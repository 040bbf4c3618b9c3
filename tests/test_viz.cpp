// Tests for the visualization stack: ray/AABB intersection, the camera,
// transfer functions, trilinear brick sampling, rendering, compositing,
// down-sampling, the block look-up table, and image metrics.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

#include "analysis/viz/block_lut.hpp"
#include "analysis/viz/compositor.hpp"
#include "analysis/viz/raycast.hpp"
#include "sim/analytic_fields.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

TEST(Aabb, IntersectHitAndMiss) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  double t0, t1;
  Ray hit{{-1, 0.5, 0.5}, {1, 0, 0}};
  ASSERT_TRUE(box.intersect(hit, t0, t1));
  EXPECT_NEAR(t0, 1.0, 1e-12);
  EXPECT_NEAR(t1, 2.0, 1e-12);

  Ray miss{{-1, 2.0, 0.5}, {1, 0, 0}};
  EXPECT_FALSE(box.intersect(miss, t0, t1));

  Ray parallel_inside{{0.5, 0.5, 0.5}, {0, 0, 1}};
  EXPECT_TRUE(box.intersect(parallel_inside, t0, t1));

  Ray diagonal{{-1, -1, -1}, Vec3{1, 1, 1}.normalized()};
  EXPECT_TRUE(box.intersect(diagonal, t0, t1));
}

TEST(Camera, RaysAreParallelAndCoverFilm) {
  const OrthoCamera cam({0, 0, -2}, {0, 0, 0}, {0, 1, 0}, 2.0, 2.0, 8, 8);
  const Ray r1 = cam.ray(0, 0);
  const Ray r2 = cam.ray(7, 7);
  EXPECT_NEAR((r1.direction - r2.direction).norm(), 0.0, 1e-12);
  EXPECT_NEAR(r1.direction.z, 1.0, 1e-12);
  // Film corners span the requested extent. A viewer facing +z with +y up
  // has -x to their right, so pixel x increases toward world -x.
  EXPECT_GT(r1.origin.x, r2.origin.x);
  EXPECT_NEAR(r1.origin.x - r2.origin.x, 2.0 * 7.0 / 8.0, 1e-12);
  EXPECT_NEAR(r2.origin.y - r1.origin.y, 2.0 * 7.0 / 8.0, 1e-12);
}

TEST(TransferFunction, InterpolatesControlPoints) {
  TransferFunction tf({{0.0, {0, 0, 0, 0}}, {1.0, {1, 0, 0, 0.5}}});
  const Rgba mid = tf.sample(0.5);
  EXPECT_NEAR(mid.r, 0.5, 1e-6);
  EXPECT_NEAR(mid.a, 0.25, 1e-6);
  // Clamping outside the range.
  EXPECT_NEAR(tf.sample(-5.0).a, 0.0, 1e-6);
  EXPECT_NEAR(tf.sample(5.0).a, 0.5, 1e-6);
}

TEST(TransferFunction, RejectsBadControlPoints) {
  std::vector<TransferFunction::ControlPoint> one{{0.0, Rgba{}}};
  EXPECT_THROW(TransferFunction{one}, Error);
  std::vector<TransferFunction::ControlPoint> unsorted{{1.0, Rgba{}},
                                                       {0.5, Rgba{}}};
  EXPECT_THROW(TransferFunction{unsorted}, Error);
}

TEST(TransferFunction, AlphaCorrectionIdentityAndHalving) {
  EXPECT_NEAR(TransferFunction::corrected_alpha(0.4f, 0.01, 0.01), 0.4f,
              1e-6f);
  // Halving the step: compositing two corrected steps equals one original.
  const float half = TransferFunction::corrected_alpha(0.4f, 0.005, 0.01);
  const float two_steps = 1.0f - (1.0f - half) * (1.0f - half);
  EXPECT_NEAR(two_steps, 0.4f, 1e-5f);
}

TEST(BrickSampler, ReproducesLinearFieldExactly) {
  GlobalGrid grid{{10, 10, 10}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  Field f("v", box);
  fill_from_function(f, grid, [](const Vec3& x) {
    return 2.0 * x.x - 3.0 * x.y + 0.5 * x.z + 1.0;
  });
  const auto values = f.pack_owned();
  const BrickSampler sampler(grid, box, values);

  Xoshiro256 rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    // Stay inside the sample lattice (trilinear is exact for linear
    // fields only between sample points).
    const Vec3 p{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                 rng.uniform(0.1, 0.9)};
    double v = 0.0;
    ASSERT_TRUE(sampler.sample(p, v));
    EXPECT_NEAR(v, 2.0 * p.x - 3.0 * p.y + 0.5 * p.z + 1.0, 1e-10);
  }
}

TEST(RenderVolume, EmptyTransferFunctionGivesBlankImage) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  Field f("v", grid.bounds());
  f.fill(0.0);
  const auto values = f.pack_owned();
  const BrickSampler sampler(grid, grid.bounds(), values);
  TransferFunction tf({{0.0, {0, 0, 0, 0}}, {1.0, {1, 1, 1, 0.9}}});
  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 16, 16);
  Image img(16, 16);
  render_volume(cam, sampler, physical_bounds(grid, grid.bounds()), tf,
                RenderParams{}, img);
  for (const Rgba& p : img.pixels()) EXPECT_EQ(p.a, 0.0f);
}

TEST(RenderVolume, OpaqueFieldCoversCenterPixels) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  Field f("v", grid.bounds());
  f.fill(1.0);
  const auto values = f.pack_owned();
  const BrickSampler sampler(grid, grid.bounds(), values);
  TransferFunction tf({{0.0, {1, 0, 0, 0.0}}, {1.0, {1, 0, 0, 0.95}}});
  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 17, 17);
  Image img(17, 17);
  render_volume(cam, sampler, physical_bounds(grid, grid.bounds()), tf,
                RenderParams{}, img);
  const Rgba center = img.at(8, 8);
  EXPECT_GT(center.a, 0.9f);
  EXPECT_GT(center.r, 0.8f);
  EXPECT_EQ(center.g, 0.0f);
}

TEST(Compositor, FrontOccludesBack) {
  Image red(4, 4), blue(4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      red.at(x, y) = {1, 0, 0, 1};   // opaque red
      blue.at(x, y) = {0, 0, 1, 1};  // opaque blue
    }
  }
  std::vector<BrickImage> bricks;
  bricks.push_back({blue, 2.0});  // farther
  bricks.push_back({red, 1.0});   // nearer
  const Image out = composite(std::move(bricks));
  EXPECT_EQ(out.at(2, 2).r, 1.0f);
  EXPECT_EQ(out.at(2, 2).b, 0.0f);
}

TEST(Compositor, TranslucentBlend) {
  Image a(1, 1), b(1, 1);
  a.at(0, 0) = {0.5f, 0, 0, 0.5f};  // premultiplied half-red in front
  b.at(0, 0) = {0, 0.8f, 0, 0.8f};  // premultiplied green behind
  std::vector<BrickImage> bricks{{a, 0.0}, {b, 1.0}};
  const Image out = composite(std::move(bricks));
  EXPECT_NEAR(out.at(0, 0).r, 0.5f, 1e-6f);
  EXPECT_NEAR(out.at(0, 0).g, 0.4f, 1e-6f);  // 0.8 * (1 - 0.5)
  EXPECT_NEAR(out.at(0, 0).a, 0.9f, 1e-6f);
}

TEST(Downsample, StrideGridAndValues) {
  const Box3 box{{0, 0, 0}, {9, 9, 9}};
  std::vector<double> values(729);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  const auto block = downsample_block(box, values, 4);
  EXPECT_EQ(block.samples[0], 3);  // indices 0, 4, 8
  EXPECT_EQ(block.values.size(), 27u);
  EXPECT_DOUBLE_EQ(block.values[0], 0.0);
  EXPECT_DOUBLE_EQ(block.values[1], 4.0);            // (4,0,0)
  EXPECT_DOUBLE_EQ(block.values[3], 4.0 * 9.0);      // (0,4,0)
  EXPECT_NEAR(downsample_ratio(block), 729.0 / 27.0, 1e-12);
}

TEST(Downsample, StrideOneIsIdentity) {
  const Box3 box{{2, 2, 2}, {5, 5, 5}};
  std::vector<double> values(27, 3.5);
  const auto block = downsample_block(box, values, 1);
  EXPECT_EQ(block.values.size(), 27u);
  EXPECT_DOUBLE_EQ(downsample_ratio(block), 1.0);
}

TEST(Downsample, SerializeRoundTrip) {
  const Box3 box{{8, 0, 4}, {16, 8, 12}};
  std::vector<double> values(512);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.25 * static_cast<double>(i);
  const auto block = downsample_block(box, values, 2);
  const auto r = DownsampledBlock::deserialize(block.serialize());
  EXPECT_EQ(r.bounds, block.bounds);
  EXPECT_EQ(r.stride, block.stride);
  EXPECT_EQ(r.samples, block.samples);
  EXPECT_EQ(r.values, block.values);
}

TEST(BlockLut, SamplesAcrossBlocks) {
  GlobalGrid grid{{16, 8, 8}, {1.0, 0.5, 0.5}};
  // Two abutting blocks covering the domain, constant values 1 and 2.
  const Box3 left{{0, 0, 0}, {8, 8, 8}}, right{{8, 0, 0}, {16, 8, 8}};
  BlockLut lut(grid);
  lut.add_block(downsample_block(
      left, std::vector<double>(static_cast<size_t>(left.num_cells()), 1.0), 2));
  lut.add_block(downsample_block(
      right, std::vector<double>(static_cast<size_t>(right.num_cells()), 2.0),
      2));
  EXPECT_EQ(lut.num_blocks(), 2u);
  EXPECT_GT(lut.total_samples(), 0u);

  double v = 0.0;
  ASSERT_TRUE(lut.sample(Vec3{0.2, 0.25, 0.25}, v));
  EXPECT_DOUBLE_EQ(v, 1.0);
  ASSERT_TRUE(lut.sample(Vec3{0.8, 0.25, 0.25}, v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_FALSE(lut.sample(Vec3{2.0, 0.25, 0.25}, v));
}

TEST(BlockLut, AgreesWithBrickSamplerAtCoarsePoints) {
  GlobalGrid grid{{12, 12, 12}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  Field f("v", box);
  fill_from_function(f, grid, [](const Vec3& x) {
    return std::sin(5 * x.x) + std::cos(3 * x.y) + x.z;
  });
  const auto values = f.pack_owned();
  BlockLut lut(grid);
  lut.add_block(downsample_block(box, values, 3));
  const BrickSampler fine(grid, box, values);

  // At retained lattice points both samplers agree exactly.
  for (int64_t k = 0; k < 12; k += 3) {
    for (int64_t j = 0; j < 12; j += 3) {
      for (int64_t i = 0; i < 12; i += 3) {
        const Vec3 p{grid.coord(0, i), grid.coord(1, j), grid.coord(2, k)};
        double coarse = 0.0, exact = 0.0;
        ASSERT_TRUE(lut.sample(p, coarse));
        ASSERT_TRUE(fine.sample(p, exact));
        EXPECT_NEAR(coarse, exact, 1e-10);
      }
    }
  }
}

TEST(Image, PsnrAndMse) {
  Image a(8, 8), b(8, 8);
  EXPECT_EQ(image_mse(a, b), 0.0);
  EXPECT_TRUE(std::isinf(image_psnr(a, b)));
  b.at(0, 0) = {1, 1, 1, 1};
  EXPECT_GT(image_mse(a, b), 0.0);
  EXPECT_LT(image_psnr(a, b), 100.0);
}

TEST(Image, SerializeRoundTrip) {
  Image img(3, 2);
  img.at(1, 0) = {0.25f, 0.5f, 0.75f, 1.0f};
  const Image r = deserialize_image(serialize_image(img));
  EXPECT_EQ(r.width(), 3);
  EXPECT_EQ(r.height(), 2);
  EXPECT_EQ(r.at(1, 0).g, 0.5f);
  EXPECT_EQ(image_mse(img, r), 0.0);
}

TEST(Image, WritesValidPpm) {
  Image img(4, 4);
  img.at(0, 0) = {1, 0, 0, 1};
  const std::string path = ::testing::TempDir() + "/hia_test.ppm";
  write_ppm(img, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  int w, h, maxval;
  in >> w >> h >> maxval;
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(maxval, 255);
  std::remove(path.c_str());
}

TEST(HybridApproximatesInSitu, PsnrImprovesWithFinerStride) {
  // Fig. 2 quality relationship: smaller down-sampling stride -> image
  // closer to the full-resolution rendering.
  GlobalGrid grid{{32, 32, 32}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  Field f("v", box);
  fill_gaussian_mixture(f, grid, GaussianMixture::well_separated(5, 0.08, 2));
  const auto values = f.pack_owned();

  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 48, 48);
  TransferFunction tf = TransferFunction::grayscale(0.0, 1.2);
  RenderParams params;
  params.step = grid.spacing(0);
  params.reference_step = params.step;

  const Aabb bounds = physical_bounds(grid, box);
  Image reference(48, 48);
  render_volume(cam, BrickSampler(grid, box, values), bounds, tf, params,
                reference);

  double prev_psnr = -1.0;
  for (const int stride : {8, 4, 2}) {
    BlockLut lut(grid);
    lut.add_block(downsample_block(box, values, stride));
    Image approx(48, 48);
    render_volume(cam, lut, bounds, tf, params, approx);
    const double psnr = image_psnr(reference, approx);
    EXPECT_GT(psnr, prev_psnr);
    prev_psnr = psnr;
  }
  EXPECT_GT(prev_psnr, 25.0);  // stride 2 is a close approximation
}

}  // namespace
}  // namespace hia
