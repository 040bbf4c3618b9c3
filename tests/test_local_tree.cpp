// Tests for the in-situ local merge-tree builder: known topologies on
// analytic fields, augmentation invariants, subtree extraction (equal byte
// for byte to a comparison-sort transcription), and serialization,
// including a mutation sweep of the payload decoder.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "analysis/topology/local_tree.hpp"
#include "analysis/topology/stream_combine.hpp"
#include "runtime/comm.hpp"
#include "sim/analytic_fields.hpp"
#include "sim/s3d.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

std::vector<double> field_values(const GlobalGrid& grid, const Box3& box,
                                 const std::function<double(const Vec3&)>& f) {
  std::vector<double> out;
  out.reserve(static_cast<size_t>(box.num_cells()));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        out.push_back(
            f(Vec3{grid.coord(0, i), grid.coord(1, j), grid.coord(2, k)}));
  return out;
}

TEST(LocalTree, RampHasSingleLeafChain) {
  GlobalGrid grid{{8, 4, 4}, {1.0, 0.5, 0.5}};
  const Box3 box = grid.bounds();
  const auto values =
      field_values(grid, box, [](const Vec3& x) { return x.x; });
  const MergeTree t = build_local_tree(grid, box, values);

  EXPECT_EQ(t.size(), static_cast<size_t>(box.num_cells()));
  EXPECT_TRUE(t.validate().empty()) << t.validate();
  EXPECT_EQ(t.roots().size(), 1u);
  // Monotone field + id tie-breaking: exactly one maximum.
  EXPECT_EQ(t.reduced().leaves().size(), 1u);
}

TEST(LocalTree, TwoBumpsGiveTwoLeavesAndOneSaddle) {
  GlobalGrid grid{{24, 12, 12}, {1.0, 0.5, 0.5}};
  GaussianMixture mix({{Vec3{0.25, 0.25, 0.25}, 0.05, 1.0},
                       {Vec3{0.75, 0.25, 0.25}, 0.05, 0.8}});
  const Box3 box = grid.bounds();
  const auto values = field_values(
      grid, box, [&](const Vec3& x) { return mix.value(x); });
  const MergeTree reduced = build_local_tree(grid, box, values).reduced();

  EXPECT_TRUE(reduced.validate().empty());
  EXPECT_EQ(reduced.leaves().size(), 2u);
  // Leaves + 1 saddle + 1 root = 4 critical nodes.
  EXPECT_EQ(reduced.size(), 4u);

  // The discrete maxima undershoot the analytic peaks (grid sampling), but
  // the taller bump must dominate and both peaks must be prominent.
  const auto pairs = persistence_pairs(reduced);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_GT(pairs[0].max_value, pairs[1].max_value);
  EXPECT_GT(pairs[0].max_value, 0.5);
  EXPECT_GT(pairs[1].max_value, 0.4);
  EXPECT_NEAR(pairs[0].max_value / pairs[1].max_value, 1.0 / 0.8, 0.1);
}

class LeafCountProperty : public ::testing::TestWithParam<int> {};

TEST_P(LeafCountProperty, WellSeparatedBumpsYieldExactLeafCount) {
  const int bumps = GetParam();
  GlobalGrid grid{{32, 32, 32}, {1.0, 1.0, 1.0}};
  const auto mix = GaussianMixture::well_separated(bumps, 0.04, 23);
  const Box3 box = grid.bounds();
  const auto values = field_values(
      grid, box, [&](const Vec3& x) { return mix.value(x); });
  const MergeTree reduced = build_local_tree(grid, box, values).reduced();
  EXPECT_EQ(reduced.leaves().size(), static_cast<size_t>(bumps));
  EXPECT_TRUE(reduced.validate().empty());
}

INSTANTIATE_TEST_SUITE_P(BumpCounts, LeafCountProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 12));

TEST(LocalTree, ConstantFieldIsSingleComponent) {
  GlobalGrid grid{{6, 6, 6}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  std::vector<double> values(static_cast<size_t>(box.num_cells()), 1.0);
  const MergeTree t = build_local_tree(grid, box, values);
  // Ties broken by id: still a valid tree with a single root and one leaf.
  EXPECT_TRUE(t.validate().empty());
  EXPECT_EQ(t.roots().size(), 1u);
  EXPECT_EQ(t.reduced().leaves().size(), 1u);
}

TEST(LocalTree, SubBoxUsesGlobalIds) {
  GlobalGrid grid{{16, 8, 8}, {1.0, 0.5, 0.5}};
  const Box3 box{{4, 2, 2}, {10, 6, 6}};
  const auto values =
      field_values(grid, box, [](const Vec3& x) { return x.x + x.y; });
  const MergeTree t = build_local_tree(grid, box, values);
  ASSERT_EQ(t.size(), static_cast<size_t>(box.num_cells()));
  // All ids must decode to coordinates inside the box.
  for (const auto& n : t.nodes()) {
    const int64_t i = static_cast<int64_t>(n.id) % grid.dims[0];
    const int64_t j =
        (static_cast<int64_t>(n.id) / grid.dims[0]) % grid.dims[1];
    const int64_t k =
        static_cast<int64_t>(n.id) / (grid.dims[0] * grid.dims[1]);
    EXPECT_TRUE(box.contains(i, j, k));
  }
}

TEST(ExtendedBlock, GrowsPositiveDirectionsOnly) {
  GlobalGrid grid{{10, 10, 10}, {1.0, 1.0, 1.0}};
  const Box3 interior{{2, 2, 2}, {5, 5, 5}};
  EXPECT_EQ(extended_block(grid, interior), (Box3{{2, 2, 2}, {6, 6, 6}}));
  const Box3 at_edge{{5, 5, 5}, {10, 10, 10}};
  EXPECT_EQ(extended_block(grid, at_edge), at_edge);  // clamped
}

TEST(RankSubtree, RetainsCriticalsAndBoundary) {
  GlobalGrid grid{{16, 16, 16}, {1.0, 1.0, 1.0}};
  const Box3 block{{0, 0, 0}, {8, 16, 16}};
  const Box3 box = extended_block(grid, block);  // right face interior-shared
  ASSERT_EQ(box, (Box3{{0, 0, 0}, {9, 16, 16}}));
  const auto mix = GaussianMixture::well_separated(4, 0.05, 3);
  const auto values = field_values(
      grid, box, [&](const Vec3& x) { return mix.value(x); });
  const SubtreeData sub = compute_rank_subtree(grid, block, values, box);

  // Much smaller than the full augmented tree…
  EXPECT_LT(sub.num_vertices(), static_cast<size_t>(box.num_cells()) / 2);
  // …but at least the shared face (i = 8) must be present in full.
  const size_t face = 16 * 16;
  EXPECT_GE(sub.num_vertices(), face);
  // Every vertex on the shared face is retained, and only those are not
  // interior.
  size_t on_face = 0;
  for (size_t v = 0; v < sub.num_vertices(); ++v) {
    const bool shared =
        static_cast<int64_t>(sub.vertex_ids[v]) % grid.dims[0] == 8;
    if (shared) ++on_face;
    EXPECT_EQ(sub.interior[v], shared ? 0 : 1);
  }
  EXPECT_EQ(on_face, face);

  // Edges orient child strictly above parent.
  for (size_t e = 0; e < sub.num_edges(); ++e) {
    const auto c = sub.edge_child[e];
    const auto p = sub.edge_parent[e];
    EXPECT_TRUE(above(sub.vertex_values[c], sub.vertex_ids[c],
                      sub.vertex_values[p], sub.vertex_ids[p]));
  }
}

// ---- the local tree against a transcription of the comparison-sort
// construction: std::sort on (value, id), a size_t union-find tracking
// each component's lowest vertex, a fully augmented MergeTree, then the
// retain test and nearest-retained-ancestor walk over its nodes.

class ReferenceForest {
 public:
  explicit ReferenceForest(size_t n) : parent_(n), lowest_(n) {
    std::iota(parent_.begin(), parent_.end(), size_t{0});
    std::iota(lowest_.begin(), lowest_.end(), size_t{0});
  }
  size_t find(size_t x) {
    size_t root = x;
    while (parent_[root] != root) root = parent_[root];
    while (parent_[x] != root) {
      const size_t next = parent_[x];
      parent_[x] = root;
      x = next;
    }
    return root;
  }
  void merge_into(size_t a, size_t b) { parent_[find(a)] = find(b); }
  [[nodiscard]] size_t lowest(size_t root) const { return lowest_[root]; }
  void set_lowest(size_t root, size_t v) { lowest_[root] = v; }

 private:
  std::vector<size_t> parent_;
  std::vector<size_t> lowest_;
};

MergeTree reference_local_tree(const GlobalGrid& grid, const Box3& box,
                               std::span<const double> values) {
  const auto n = static_cast<size_t>(box.num_cells());
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  const int64_t nx = box.extent(0), ny = box.extent(1);
  std::vector<uint64_t> gids(n);
  for (size_t off = 0; off < n; ++off) {
    int64_t i, j, k;
    box.coords(off, i, j, k);
    gids[off] = grid_vertex_id(grid, i, j, k);
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return above(values[a], gids[a], values[b], gids[b]);
  });
  std::vector<uint32_t> rank_of(n);
  for (size_t pos = 0; pos < n; ++pos) {
    rank_of[order[pos]] = static_cast<uint32_t>(pos);
  }

  ReferenceForest forest(n);
  std::vector<int64_t> parent(n, MergeTree::kNoParent);
  const std::array<int64_t, 3> steps{1, nx, nx * ny};
  for (size_t pos = 0; pos < n; ++pos) {
    const size_t v = order[pos];
    int64_t i, j, k;
    box.coords(v, i, j, k);
    const std::array<int64_t, 3> coord{i, j, k};
    for (int axis = 0; axis < 3; ++axis) {
      for (int dir = -1; dir <= 1; dir += 2) {
        const int64_t c = coord[static_cast<size_t>(axis)] + dir;
        if (c < box.lo[axis] || c >= box.hi[axis]) continue;
        const size_t u = static_cast<size_t>(
            static_cast<int64_t>(v) + dir * steps[static_cast<size_t>(axis)]);
        if (rank_of[u] > pos) continue;
        const size_t ru = forest.find(u);
        const size_t rv = forest.find(v);
        if (ru == rv) continue;
        parent[forest.lowest(ru)] = static_cast<int64_t>(v);
        forest.merge_into(ru, rv);
        forest.set_lowest(forest.find(v), v);
      }
    }
  }
  std::vector<MergeTree::Node> nodes(n);
  for (size_t pos = 0; pos < n; ++pos) {
    const size_t v = order[pos];
    nodes[pos] = {gids[v], values[v],
                  parent[v] == MergeTree::kNoParent
                      ? MergeTree::kNoParent
                      : int64_t{rank_of[static_cast<size_t>(parent[v])]}};
  }
  return MergeTree(std::move(nodes));
}

SubtreeData reference_subtree(const GlobalGrid& grid, const Box3& box,
                              const MergeTree& local_tree) {
  const auto& nodes = local_tree.nodes();
  const auto counts = local_tree.child_counts();
  const Box3 domain = grid.bounds();
  auto on_shared_boundary = [&](uint64_t id) {
    const int64_t nx = grid.dims[0], nyd = grid.dims[1];
    const int64_t i = static_cast<int64_t>(id) % nx;
    const int64_t j = (static_cast<int64_t>(id) / nx) % nyd;
    const int64_t k = static_cast<int64_t>(id) / (nx * nyd);
    const std::array<int64_t, 3> c{i, j, k};
    for (int a = 0; a < 3; ++a) {
      if (c[a] == box.lo[a] && box.lo[a] != domain.lo[a]) return true;
      if (c[a] == box.hi[a] - 1 && box.hi[a] != domain.hi[a]) return true;
    }
    return false;
  };
  std::vector<bool> keep(nodes.size(), false);
  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    keep[idx] = counts[idx] != 1 || nodes[idx].parent == MergeTree::kNoParent ||
                on_shared_boundary(nodes[idx].id);
  }
  SubtreeData out;
  std::vector<int64_t> remap(nodes.size(), -1);
  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    if (!keep[idx]) continue;
    remap[idx] = static_cast<int64_t>(out.vertex_ids.size());
    out.vertex_ids.push_back(nodes[idx].id);
    out.vertex_values.push_back(nodes[idx].value);
    out.interior.push_back(on_shared_boundary(nodes[idx].id) ? 0 : 1);
  }
  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    if (!keep[idx]) continue;
    int64_t p = nodes[idx].parent;
    while (p != MergeTree::kNoParent && !keep[static_cast<size_t>(p)]) {
      p = nodes[static_cast<size_t>(p)].parent;
    }
    if (p == MergeTree::kNoParent) continue;
    out.edge_child.push_back(static_cast<uint32_t>(remap[idx]));
    out.edge_parent.push_back(
        static_cast<uint32_t>(remap[static_cast<size_t>(p)]));
  }
  return out;
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size_bytes()) == 0;
}

/// Every rank's subtree (and the whole-box augmented tree) of `field` over
/// `ranks` must match the reference byte for byte.
void expect_matches_reference(const GlobalGrid& grid, const Field& field,
                              std::array<int, 3> ranks) {
  const Decomposition decomp(grid, ranks);
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 block = decomp.block(r);
    const Box3 ext = extended_block(grid, block);
    const auto values = field.pack(ext);
    const MergeTree ref_tree = reference_local_tree(grid, ext, values);
    const auto want = reference_subtree(grid, ext, ref_tree).serialize();
    const auto got = compute_rank_subtree(grid, block, values, ext).serialize();
    EXPECT_TRUE(same_bytes(got, want))
        << "rank " << r << " box " << ext.describe() << ": " << got.size()
        << " vs " << want.size() << " doubles";

    const MergeTree tree = build_local_tree(grid, ext, values);
    ASSERT_EQ(tree.size(), ref_tree.size());
    for (size_t i = 0; i < tree.size(); ++i) {
      const auto& a = tree.nodes()[i];
      const auto& b = ref_tree.nodes()[i];
      ASSERT_TRUE(a.id == b.id && a.parent == b.parent &&
                  std::memcmp(&a.value, &b.value, sizeof(double)) == 0)
          << "rank " << r << " node " << i;
    }
  }
}

TEST(RankSubtree, MatchesReferenceOnGaussianMixture) {
  GlobalGrid grid{{24, 20, 16}, {1.0, 0.8, 0.6}};
  Field field("f", grid.bounds());
  fill_gaussian_mixture(field, grid,
                        GaussianMixture::well_separated(6, 0.07, 5));
  expect_matches_reference(grid, field, {2, 2, 2});
  expect_matches_reference(grid, field, {1, 1, 1});
}

TEST(RankSubtree, MatchesReferenceOnNoise) {
  GlobalGrid grid{{20, 14, 12}, {1.0, 1.0, 1.0}};
  Field field("f", grid.bounds());
  fill_noise(field, 77);
  expect_matches_reference(grid, field, {3, 2, 2});
}

TEST(RankSubtree, MatchesReferenceOnPlateausAndSignedZeros) {
  // Five levels, so most comparisons are ties broken on the global id;
  // the middle level is zero with a random sign.
  GlobalGrid grid{{18, 12, 10}, {1.0, 1.0, 1.0}};
  Field noise("n", grid.bounds());
  fill_noise(noise, 9);
  const auto u = noise.pack_owned();
  std::vector<double> levels(u.size());
  for (size_t i = 0; i < u.size(); ++i) {
    const double level = std::floor(u[i] * 5.0) - 2.0;
    const double sign_draw = u[(i * 7919) % u.size()];
    levels[i] = level == 0.0 ? (sign_draw < 0.5 ? -0.0 : 0.0) : level;
  }
  Field field("f", grid.bounds());
  field.unpack(grid.bounds(), levels);
  expect_matches_reference(grid, field, {2, 2, 2});
  expect_matches_reference(grid, field, {1, 1, 1});
}

TEST(RankSubtree, MatchesReferenceOnDegenerateBoxes) {
  GlobalGrid grid{{7, 6, 5}, {1.0, 1.0, 1.0}};
  Field field("f", grid.bounds());
  fill_noise(field, 3);
  // A 1-cell box: the last cell of the domain extends to itself.
  expect_matches_reference(grid, field, {7, 6, 5});
  // 1-thick slabs along each axis.
  expect_matches_reference(grid, field, {7, 1, 1});
  expect_matches_reference(grid, field, {1, 1, 5});
  GlobalGrid flat{{9, 8, 1}, {1.0, 1.0, 1.0}};
  Field sheet("f", flat.bounds());
  fill_noise(sheet, 4);
  expect_matches_reference(flat, sheet, {2, 2, 1});
}

TEST(RankSubtree, SortEdgeCasesMatchReference) {
  // The radix sort's corners: a constant box skips every digit pass, ±inf
  // sit at the ends of the key range, denormals differ only in low digits,
  // and ±0.0 must tie (broken on the global id) however their bits differ.
  GlobalGrid grid{{11, 9, 7}, {1.0, 1.0, 1.0}};
  const Box3 whole = grid.bounds();
  const auto n = static_cast<size_t>(whole.num_cells());
  auto check = [&](const char* what, const std::vector<double>& values) {
    SCOPED_TRACE(what);
    Field field("f", whole);
    field.unpack(whole, values);
    expect_matches_reference(grid, field, {2, 2, 2});
    expect_matches_reference(grid, field, {1, 1, 1});
  };
  check("constant", std::vector<double>(n, 0.375));

  Field noise("n", whole);
  fill_noise(noise, 21);
  const auto u = noise.pack_owned();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<double> infinities(n), denormals(n), zeros(n), mixed(n);
  for (size_t i = 0; i < n; ++i) {
    const auto pick = static_cast<int>(u[i] * 6.0);
    infinities[i] = pick == 0 ? -inf : pick == 5 ? inf : u[i] - 0.5;
    // Denormals of both signs, a handful of distinct mantissas.
    denormals[i] = (pick % 2 == 0 ? 1.0 : -1.0) * tiny *
                   static_cast<double>(1 + (i * 7) % 5);
    zeros[i] = pick % 2 == 0 ? 0.0 : -0.0;
    const std::array<double, 6> corners{-inf, -tiny, -0.0, 0.0, tiny, inf};
    mixed[i] = corners[static_cast<size_t>(pick)];
  }
  check("infinities", infinities);
  check("denormals", denormals);
  check("signed zeros", zeros);
  check("mixed corners", mixed);
}

TEST(RankSubtree, MatchesReferenceOnMiniS3DTemperature) {
  S3DParams params;
  params.grid = GlobalGrid{{32, 24, 16}, {1.0, 0.75, 0.5}};
  params.ranks_per_axis = {1, 1, 1};
  std::vector<double> temperature;
  World world(1);
  world.run([&](Comm& comm) {
    S3DRank sim(params, 0);
    sim.initialize();
    for (int s = 0; s < 3; ++s) sim.advance(comm);
    temperature = sim.field(Variable::kTemperature).pack_owned();
  });
  Field field("T", params.grid.bounds());
  field.unpack(params.grid.bounds(), temperature);
  expect_matches_reference(params.grid, field, {2, 2, 1});
}

TEST(SubtreeData, SerializeRoundTrip) {
  SubtreeData s;
  s.vertex_ids = {10, 20, 30};
  s.vertex_values = {3.0, 2.0, 1.0};
  s.edge_child = {0, 1};
  s.edge_parent = {1, 2};
  const auto flat = s.serialize();
  const SubtreeData r = SubtreeData::deserialize(flat);
  EXPECT_EQ(r.vertex_ids, s.vertex_ids);
  EXPECT_EQ(r.vertex_values, s.vertex_values);
  EXPECT_EQ(r.edge_child, s.edge_child);
  EXPECT_EQ(r.edge_parent, s.edge_parent);
  EXPECT_GT(s.byte_size(), 0u);
}

TEST(SubtreeData, DeserializeRejectsMalformed) {
  EXPECT_THROW(SubtreeData::deserialize(std::vector<double>{5.0}), Error);
  EXPECT_THROW(SubtreeData::deserialize(std::vector<double>{1.0, 1.0, 2.0}),
               Error);
  // Counts that would wrap 2 + nv*3 + ne*2, edge indices past the vertex
  // list, and interior flags other than 0/1.
  std::vector<double> wraps(2 + 1024, 0.0);  // 2 + 3 * 2^62 + 2 * (2^61 + 512)
  wraps[0] = 4611686018427387904.0;          // == 2 + 1024 modulo 2^64
  wraps[1] = 2305843009213694464.0;
  EXPECT_THROW(SubtreeData::deserialize(wraps), Error);
  EXPECT_THROW(SubtreeData::deserialize(std::vector<double>{
                   1.0, 1.0, 10.0, 1.0, 1.0, 0.0, 1.0}),
               Error);
  EXPECT_THROW(SubtreeData::deserialize(
                   std::vector<double>{1.0, 0.0, 10.0, 1.0, 2.0}),
               Error);
}

TEST(SubtreeData, MutatedPayloadsFailOnlyWithError) {
  // The in-transit stage decodes bytes a peer controls: whatever a payload
  // holds, the decoder throws hia::Error or returns a subtree the combiner
  // can ingest without reading past its vertex list.
  GlobalGrid grid{{6, 5, 4}, {1.0, 1.0, 1.0}};
  Field field("f", grid.bounds());
  fill_noise(field, 11);
  const Box3 block{{0, 0, 0}, {3, 5, 4}};
  const Box3 ext = extended_block(grid, block);
  const std::vector<double> valid =
      compute_rank_subtree(grid, block, field.pack(ext), ext).serialize();
  ASSERT_GT(valid.size(), 8u);

  const std::array<double, 14> specials{
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      -1.0, -0.5, 0.49, 1.5, 2.0, 1e300, -1e300,
      9007199254740992.0, 18446744073709551616.0, 4294967296.0,
      static_cast<double>(valid.size())};
  SplitMix64 rng(0x5ab7ee);
  size_t accepted = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<double> m = valid;
    const uint64_t draw = rng.next();
    const size_t slot = (draw >> 8) % m.size();
    switch (draw % 6) {
      case 0:  // a header count
        m[(draw >> 8) % 2] = (draw >> 16) % 2 == 0
                                 ? specials[(draw >> 20) % specials.size()]
                                 : static_cast<double>((draw >> 20) % 4096);
        break;
      case 1:
        m[slot] = specials[(draw >> 40) % specials.size()];
        break;
      case 2: {  // a bit flip
        auto bits = std::bit_cast<uint64_t>(m[slot]);
        bits ^= uint64_t{1} << ((draw >> 40) % 64);
        m[slot] = std::bit_cast<double>(bits);
        break;
      }
      case 3:
        m.resize(slot);
        break;
      case 4:
        m.resize(m.size() + 1 + (draw >> 40) % 5,
                 static_cast<double>(draw % 7));
        break;
      default:  // a small integer anywhere: ids, flags and edge indices
        m[slot] = static_cast<double>((draw >> 40) % 64);
        break;
    }
    try {
      const SubtreeData s = SubtreeData::deserialize(m);
      ++accepted;
      ASSERT_EQ(s.vertex_values.size(), s.num_vertices());
      ASSERT_EQ(s.interior.size(), s.num_vertices());
      ASSERT_EQ(s.edge_parent.size(), s.num_edges());
      for (size_t e = 0; e < s.num_edges(); ++e) {
        ASSERT_LT(s.edge_child[e], s.num_vertices());
        ASSERT_LT(s.edge_parent[e], s.num_vertices());
      }
      for (const uint8_t flag : s.interior) ASSERT_LE(flag, 1);
      StreamingCombiner combiner;
      try {
        combiner.insert_subtree(s);
      } catch (const Error&) {
        // e.g. a mutated id now collides with a vertex of another value
      }
    } catch (const Error&) {
    } catch (const std::exception& e) {
      FAIL() << "iteration " << iter << " escaped as non-hia::Error: "
             << e.what();
    }
  }
  // Many mutations (a value bit flip, a small id) leave a valid payload.
  EXPECT_GT(accepted, 1000u);
}

}  // namespace
}  // namespace hia
