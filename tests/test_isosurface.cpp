// Tests for marching-tetrahedra isosurface extraction: geometric accuracy
// on analytic fields, tiling/crack-free properties across decompositions,
// serialization, and the hybrid pipeline.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <numbers>

#include "analysis/topology/local_tree.hpp"
#include "analysis/viz/isosurface.hpp"
#include "core/framework.hpp"
#include "core/isosurface_pipeline.hpp"
#include "sim/analytic_fields.hpp"

namespace hia {
namespace {

/// Distance field from the domain center.
std::vector<double> distance_field(const GlobalGrid& grid, const Box3& box) {
  const Vec3 center{grid.physical[0] * 0.5, grid.physical[1] * 0.5,
                    grid.physical[2] * 0.5};
  std::vector<double> out;
  out.reserve(static_cast<size_t>(box.num_cells()));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        out.push_back((Vec3{grid.coord(0, i), grid.coord(1, j),
                            grid.coord(2, k)} -
                       center)
                          .norm());
  return out;
}

TEST(Isosurface, EmptyWhenIsoOutsideRange) {
  GlobalGrid grid{{8, 8, 8}, {1, 1, 1}};
  const auto values = distance_field(grid, grid.bounds());
  EXPECT_EQ(extract_isosurface(grid, grid.bounds(), values, 99.0)
                .num_triangles(),
            0u);
  EXPECT_EQ(extract_isosurface(grid, grid.bounds(), values, -1.0)
                .num_triangles(),
            0u);
}

TEST(Isosurface, SphereAreaConverges) {
  const double r = 0.3;
  double prev_err = 1e9;
  for (const int64_t n : {24, 48}) {
    GlobalGrid grid{{n, n, n}, {1, 1, 1}};
    const auto values = distance_field(grid, grid.bounds());
    const TriangleMesh mesh =
        extract_isosurface(grid, grid.bounds(), values, r);
    EXPECT_GT(mesh.num_triangles(), 0u);
    const double expected = 4.0 * std::numbers::pi * r * r;
    const double err = std::abs(mesh.area() - expected) / expected;
    EXPECT_LT(err, 0.05);
    EXPECT_LT(err, prev_err + 1e-12);  // finer grid: no worse
    prev_err = err;
  }
}

TEST(Isosurface, VerticesLieNearIsoValue) {
  GlobalGrid grid{{24, 24, 24}, {1, 1, 1}};
  const Vec3 center{0.5, 0.5, 0.5};
  const auto values = distance_field(grid, grid.bounds());
  const double iso = 0.3;
  const TriangleMesh mesh =
      extract_isosurface(grid, grid.bounds(), values, iso);
  for (const Vec3& v : mesh.vertices) {
    // Distance field is near-linear on cell scale; interpolated surface
    // points sit within a fraction of a cell of the true sphere.
    EXPECT_NEAR((v - center).norm(), iso, 1.5 * grid.spacing(0));
  }
}

class IsosurfaceTiling
    : public ::testing::TestWithParam<std::array<int, 3>> {};

TEST_P(IsosurfaceTiling, DistributedExtractionMatchesSerial) {
  const auto ranks = GetParam();
  GlobalGrid grid{{20, 16, 12}, {1.0, 0.8, 0.6}};
  Field field("f", grid.bounds());
  fill_gaussian_mixture(field, grid,
                        GaussianMixture::well_separated(4, 0.08, 21));
  const double iso = 0.5;

  const TriangleMesh serial = extract_isosurface(
      grid, grid.bounds(), field.pack_owned(), iso);

  Decomposition decomp(grid, ranks);
  TriangleMesh combined;
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 ext = extended_block(grid, decomp.block(r));
    combined.append(extract_isosurface(grid, ext, field.pack(ext), iso));
  }

  // The per-rank cell sets tile the domain: identical triangle count and
  // total area (triangles may appear in a different order).
  EXPECT_EQ(combined.num_triangles(), serial.num_triangles());
  EXPECT_NEAR(combined.area(), serial.area(),
              1e-9 * (1.0 + serial.area()));
}

INSTANTIATE_TEST_SUITE_P(Layouts, IsosurfaceTiling,
                         ::testing::Values(std::array<int, 3>{2, 2, 2},
                                           std::array<int, 3>{4, 1, 1},
                                           std::array<int, 3>{1, 1, 1},
                                           std::array<int, 3>{2, 3, 2}));

TEST(TriangleMesh, AppendOffsetsIndices) {
  TriangleMesh a;
  a.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  a.triangles = {{0, 1, 2}};
  TriangleMesh b = a;
  a.append(b);
  ASSERT_EQ(a.num_vertices(), 6u);
  ASSERT_EQ(a.num_triangles(), 2u);
  EXPECT_EQ(a.triangles[1][0], 3u);
  EXPECT_DOUBLE_EQ(a.area(), 2.0 * 0.5);
}

TEST(TriangleMesh, SerializeRoundTrip) {
  GlobalGrid grid{{12, 12, 12}, {1, 1, 1}};
  const auto values = distance_field(grid, grid.bounds());
  const TriangleMesh mesh =
      extract_isosurface(grid, grid.bounds(), values, 0.3);
  const TriangleMesh r = TriangleMesh::deserialize(mesh.serialize());
  EXPECT_EQ(r.num_vertices(), mesh.num_vertices());
  EXPECT_EQ(r.num_triangles(), mesh.num_triangles());
  EXPECT_NEAR(r.area(), mesh.area(), 1e-12);
  EXPECT_THROW(TriangleMesh::deserialize(std::vector<double>{1.0}), Error);
}

TEST(TriangleMesh, WritesValidObj) {
  TriangleMesh m;
  m.vertices = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  m.triangles = {{0, 1, 2}};
  const std::string path = ::testing::TempDir() + "/hia_test_" +
                           std::to_string(::getpid()) + ".obj";
  write_obj(m, path);
  std::ifstream in(path);
  std::string line;
  int v = 0, f = 0;
  while (std::getline(in, line)) {
    if (line.rfind("v ", 0) == 0) ++v;
    if (line.rfind("f ", 0) == 0) ++f;
  }
  EXPECT_EQ(v, 3);
  EXPECT_EQ(f, 1);
  std::remove(path.c_str());
}

TEST(IsosurfacePipeline, MatchesSerialExtraction) {
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{24, 16, 16}, {1.0, 0.75, 0.75}};
  cfg.sim.ranks_per_axis = {2, 2, 1};
  cfg.sim.chemistry.kernel_rate = 3.0;
  cfg.steps = 2;

  IsosurfaceConfig icfg;
  icfg.variable = Variable::kTemperature;
  icfg.iso = 1.5;

  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridIsosurface>(icfg);
  runner.add_analysis(analysis);
  (void)runner.run();

  const auto mesh = analysis->latest_mesh();
  ASSERT_TRUE(mesh.has_value());
  EXPECT_GT(mesh->num_triangles(), 0u);

  // Serial reference on the deterministic final state.
  S3DParams solo = cfg.sim;
  solo.ranks_per_axis = {1, 1, 1};
  TriangleMesh reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (long s = 0; s < cfg.steps; ++s) sim.advance(comm);
      reference = extract_isosurface(
          solo.grid, solo.grid.bounds(),
          sim.field(Variable::kTemperature).pack_owned(), icfg.iso);
    });
  }
  EXPECT_EQ(mesh->num_triangles(), reference.num_triangles());
  EXPECT_NEAR(mesh->area(), reference.area(),
              1e-9 * (1.0 + reference.area()));
}

}  // namespace
}  // namespace hia
