// Tests for the statistics library: single-pass moment accuracy against
// brute force, pairwise-combination equivalence (the property the parallel
// learn stage relies on), the row learn kernels against the per-value
// update reference, the four-stage pattern, correlation, and histograms.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "analysis/stats/correlation.hpp"
#include "analysis/stats/descriptive.hpp"
#include "analysis/stats/histogram.hpp"
#include "analysis/stats/moments.hpp"
#include "core/correlation_pipeline.hpp"
#include "core/stats_pipeline.hpp"
#include "runtime/comm.hpp"
#include "sim/s3d.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

std::vector<double> random_data(size_t n, uint64_t seed, double scale = 1.0,
                                double offset = 0.0) {
  Xoshiro256 rng(seed);
  std::vector<double> out(n);
  for (auto& x : out) x = offset + scale * rng.normal();
  return out;
}

/// Brute-force centered moments for verification.
struct Brute {
  double mean = 0, m2 = 0, m3 = 0, m4 = 0;
};
Brute brute_force(const std::vector<double>& xs) {
  Brute b;
  for (const double x : xs) b.mean += x;
  b.mean /= static_cast<double>(xs.size());
  for (const double x : xs) {
    const double d = x - b.mean;
    b.m2 += d * d;
    b.m3 += d * d * d;
    b.m4 += d * d * d * d;
  }
  return b;
}

TEST(Moments, MatchesBruteForce) {
  const auto xs = random_data(5000, 1, 2.5, -1.0);
  const auto acc = stats_learn(xs);
  const auto bf = brute_force(xs);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_NEAR(acc.mean(), bf.mean, 1e-10);
  EXPECT_NEAR(acc.m2(), bf.m2, std::abs(bf.m2) * 1e-9);
  EXPECT_NEAR(acc.m3(), bf.m3, std::abs(bf.m2) * 1e-7);
  EXPECT_NEAR(acc.m4(), bf.m4, std::abs(bf.m4) * 1e-9);
  EXPECT_EQ(acc.min(), *std::min_element(xs.begin(), xs.end()));
  EXPECT_EQ(acc.max(), *std::max_element(xs.begin(), xs.end()));
}

TEST(Moments, EmptyAndSingle) {
  MomentAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  acc.update(5.0);
  EXPECT_EQ(acc.count(), 1u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.m2(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 5.0);
  EXPECT_DOUBLE_EQ(acc.max(), 5.0);
}

class MomentsCombine : public ::testing::TestWithParam<int> {};

TEST_P(MomentsCombine, CombineEqualsSequential) {
  const int parts = GetParam();
  const auto xs = random_data(4096, 7, 3.0, 2.0);
  const auto whole = stats_learn(xs);

  // Split into `parts` unequal chunks, learn separately, combine.
  std::vector<MomentAccumulator> partials;
  size_t begin = 0;
  for (int p = 0; p < parts; ++p) {
    const size_t len = p + 1 == parts
                           ? xs.size() - begin
                           : (xs.size() / parts) + (p % 2 == 0 ? 17 : -17);
    partials.push_back(stats_learn(
        std::span(xs.data() + begin, std::min(len, xs.size() - begin))));
    begin += len;
  }
  const auto combined = stats_combine(partials);

  EXPECT_EQ(combined.count(), whole.count());
  EXPECT_NEAR(combined.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(combined.m2(), whole.m2(), std::abs(whole.m2()) * 1e-10);
  EXPECT_NEAR(combined.m3(), whole.m3(), std::abs(whole.m2()) * 1e-8);
  EXPECT_NEAR(combined.m4(), whole.m4(), std::abs(whole.m4()) * 1e-10);
  EXPECT_DOUBLE_EQ(combined.min(), whole.min());
  EXPECT_DOUBLE_EQ(combined.max(), whole.max());
}

INSTANTIATE_TEST_SUITE_P(Partitions, MomentsCombine,
                         ::testing::Values(2, 3, 4, 8, 16, 64));

TEST(Moments, CombineWithEmptySides) {
  const auto xs = random_data(100, 3);
  auto a = stats_learn(xs);
  const MomentAccumulator empty;
  auto b = a;
  b.combine(empty);
  EXPECT_EQ(b, a);
  MomentAccumulator c;
  c.combine(a);
  EXPECT_EQ(c, a);
}

TEST(Moments, PackUnpackRoundTrip) {
  const auto acc = stats_learn(random_data(500, 11));
  double packed[MomentAccumulator::kPackedSize];
  acc.pack(packed);
  EXPECT_EQ(MomentAccumulator::unpack(packed), acc);
}

// ------------------------------------------------------------ row learn --

/// The per-value reference: update() once per owned cell.
MomentAccumulator update_field(const Field& f) {
  MomentAccumulator acc;
  const Box3& b = f.owned();
  for (int64_t k = b.lo[2]; k < b.hi[2]; ++k)
    for (int64_t j = b.lo[1]; j < b.hi[1]; ++j)
      for (int64_t i = b.lo[0]; i < b.hi[0]; ++i) acc.update(f.at(i, j, k));
  return acc;
}

/// Count and extrema exact; M2 and M4 to 1e-12 relative; the mean and M3 to
/// `scaled_tol` of their natural scales sigma and n*sigma^3 (M3 of a
/// near-symmetric field sits near 0, so relative error means nothing there).
void expect_same_moments(const MomentAccumulator& got,
                         const MomentAccumulator& want,
                         double scaled_tol = 1e-12) {
  ASSERT_EQ(got.count(), want.count());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
  const double n = static_cast<double>(want.count());
  const double sigma = std::sqrt(want.m2() / n);
  EXPECT_NEAR(got.mean(), want.mean(), scaled_tol * sigma);
  EXPECT_NEAR(got.m2(), want.m2(), 1e-12 * want.m2());
  EXPECT_NEAR(got.m3(), want.m3(), scaled_tol * n * sigma * sigma * sigma);
  EXPECT_NEAR(got.m4(), want.m4(), 1e-12 * want.m4());
}

/// Exact-enough expectation: a long-double two-pass over the values.
MomentAccumulator two_pass_expectation(const std::vector<double>& xs) {
  long double mean = 0;
  for (const double x : xs) mean += x;
  mean /= static_cast<long double>(xs.size());
  long double m[5] = {};
  for (const double x : xs) {
    const long double d = x - mean;
    m[2] += d * d;
    m[3] += d * d * d;
    m[4] += d * d * d * d;
  }
  const double packed[MomentAccumulator::kPackedSize] = {
      static_cast<double>(xs.size()), static_cast<double>(mean),
      static_cast<double>(m[2]), static_cast<double>(m[3]),
      static_cast<double>(m[4]), *std::min_element(xs.begin(), xs.end()),
      *std::max_element(xs.begin(), xs.end())};
  return MomentAccumulator::unpack(packed);
}

/// A field over `box` whose owned cells take `xs` in x-fastest order, with a
/// ghost layer so its rows are not contiguous in storage.
Field field_of(const Box3& box, const std::vector<double>& xs) {
  const Box3 domain{{box.lo[0] - 1, box.lo[1] - 1, box.lo[2] - 1},
                    {box.hi[0] + 1, box.hi[1] + 1, box.hi[2] + 1}};
  Field f("x", box, domain, 1);
  f.fill(std::numeric_limits<double>::quiet_NaN());  // ghosts must not leak
  f.unpack(box, xs);
  return f;
}

TEST(RowLearn, MatchesUpdateOnEveryMiniS3DVariable) {
  S3DParams p;
  p.grid = GlobalGrid{{48, 32, 24}, {1.0, 0.75, 0.75}};
  p.ranks_per_axis = {2, 2, 1};
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int steps = 0; steps < 2; ++steps) {
      for (int v = 0; v < kNumVariables; ++v) {
        SCOPED_TRACE(std::string(kVariableNames[static_cast<size_t>(v)]) +
                     " rank " + std::to_string(comm.rank()) + " step " +
                     std::to_string(sim.step()));
        const Field& f = sim.field(static_cast<Variable>(v));
        const MomentAccumulator exact = two_pass_expectation(f.pack_owned());
        const MomentAccumulator reference = update_field(f);
        // Both take the block as one run of 9216 values, i.e. several
        // 1024-value chunks (FieldStreamMatchesPackedLearnBitForBit).
        for (const MomentAccumulator& got :
             {learn_field(f), stats_learn(f.pack_owned())}) {
          expect_same_moments(got, exact);
          // update() itself drifts: its running mean of the temperature
          // (sigma/mean ~ 1e-3) is off by ~2e-12 sigma, over ten times the
          // kernel's error, so the mean and M3 get 1e-11 against it.
          expect_same_moments(got, reference, 1e-11);
        }
      }
      for (int s = 0; s < 3; ++s) sim.advance(comm);
    }
  });
}

TEST(RowLearn, FieldStreamMatchesPackedLearnBitForBit) {
  // learn_field streams the owned rows through 1024-value chunks, so it is
  // the learn of the packed block, not just close to it.
  S3DParams p;
  p.grid = GlobalGrid{{48, 32, 24}, {1.0, 0.75, 0.75}};
  p.ranks_per_axis = {2, 2, 1};
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < 2; ++s) sim.advance(comm);
    for (int v = 0; v < kNumVariables; ++v) {
      const Field& f = sim.field(static_cast<Variable>(v));
      EXPECT_EQ(learn_field(f), stats_learn(f.pack_owned()))
          << kVariableNames[static_cast<size_t>(v)] << " rank "
          << comm.rank();
    }
  });
  // Rows of 37 values straddle every chunk boundary; rows of 1500 values
  // span whole chunks.
  for (const Box3& box :
       {Box3{{0, 0, 0}, {37, 5, 7}}, Box3{{-3, 2, 0}, {1497, 4, 1}}}) {
    const std::vector<double> xs =
        random_data(static_cast<size_t>(box.num_cells()), 17, 2.0, 40.0);
    const Field f = field_of(box, xs);
    EXPECT_EQ(learn_field(f), stats_learn(xs)) << box.extent(0);
  }
}

TEST(RowLearn, ConstantRunsHaveExactlyZeroCentredSums) {
  for (const double c : {0.1, -1.0 / 3.0, 7.0, 1e70, -1e-300}) {
    for (const size_t n : {size_t{1}, size_t{3}, size_t{48}, size_t{2500}}) {
      MomentAccumulator acc;
      acc.learn(std::vector<double>(n, c));
      EXPECT_EQ(acc.count(), n);
      EXPECT_EQ(acc.mean(), c);
      EXPECT_EQ(acc.m2(), 0.0);
      EXPECT_EQ(acc.m3(), 0.0);
      EXPECT_EQ(acc.m4(), 0.0);
      EXPECT_EQ(acc.min(), c);
      EXPECT_EQ(acc.max(), c);
    }
  }
  // Rows that are each constant: the box's moments are the spread of the
  // row values alone; a constant box has exactly zero centred sums.
  const Box3 box{{0, 0, 0}, {37, 4, 3}};
  std::vector<double> xs;
  for (int row = 0; row < 12; ++row) xs.insert(xs.end(), 37, 0.1 * row);
  expect_same_moments(learn_field(field_of(box, xs)),
                       two_pass_expectation(xs));
  const Field flat = field_of(box, std::vector<double>(xs.size(), 0.3));
  const MomentAccumulator acc = learn_field(flat);
  EXPECT_EQ(acc.mean(), 0.3);
  EXPECT_EQ(acc.m2(), 0.0);
  EXPECT_EQ(acc.m3(), 0.0);
  EXPECT_EQ(acc.m4(), 0.0);
}

TEST(RowLearn, OneCellRowsOneCellBoxAndEmptyBox) {
  const std::vector<double> xs = random_data(60, 5, 4.0, 1.5);
  const Field rows = field_of(Box3{{3, 0, 0}, {4, 6, 10}}, xs);
  expect_same_moments(learn_field(rows), two_pass_expectation(xs));
  expect_same_moments(learn_field(rows), update_field(rows));

  const MomentAccumulator one =
      learn_field(field_of(Box3{{2, 2, 2}, {3, 3, 3}}, {-2.75}));
  EXPECT_EQ(one.count(), 1u);
  EXPECT_EQ(one.mean(), -2.75);
  EXPECT_EQ(one.m2(), 0.0);
  EXPECT_EQ(one.m3(), 0.0);
  EXPECT_EQ(one.m4(), 0.0);
  EXPECT_EQ(one.min(), -2.75);
  EXPECT_EQ(one.max(), -2.75);

  const Field empty("e", Box3{{4, 0, 0}, {4, 5, 5}});
  EXPECT_EQ(learn_field(empty), MomentAccumulator{});
  MomentAccumulator nothing;
  nothing.learn({});
  EXPECT_EQ(nothing, MomentAccumulator{});
}

TEST(RowLearn, LargeOffsetSmallNoise) {
  // 1e8 + 1e-3 noise: a one-pass sum of squares would lose every digit.
  // With |mean|/sigma = 1e11 every Pebay merge subtracts two means that
  // are only known to an ulp of 1e8, so M2 carries ~1e-6 relative error
  // whichever way the values are merged; the per-value update() reference
  // lands there too, and is held to the same bound below.
  const Box3 box{{0, 0, 0}, {49, 7, 9}};  // 3087 cells: three chunks+
  const std::vector<double> xs =
      random_data(static_cast<size_t>(box.num_cells()), 9, 1e-3, 1e8);
  const MomentAccumulator want = two_pass_expectation(xs);
  const double sigma = std::sqrt(want.m2() / static_cast<double>(xs.size()));
  MomentAccumulator reference;
  for (const double x : xs) reference.update(x);
  for (const MomentAccumulator& got :
       {stats_learn(xs), learn_field(field_of(box, xs)), reference}) {
    EXPECT_EQ(got.count(), want.count());
    EXPECT_EQ(got.min(), want.min());
    EXPECT_EQ(got.max(), want.max());
    EXPECT_NEAR(got.mean(), want.mean(), 1e-15 * want.mean());
    EXPECT_NEAR(got.m2(), want.m2(), 1e-5 * want.m2());
    EXPECT_NEAR(got.m3(), want.m3(),
                1e-5 * static_cast<double>(xs.size()) * sigma * sigma * sigma);
    EXPECT_NEAR(got.m4(), want.m4(), 1e-5 * want.m4());
  }
}

TEST(RowLearn, MagnitudesFromTinyToHuge) {
  // |x| from 1e-300 to 1e70 in both signs; fourth powers stay finite.
  const Box3 box{{0, 0, 0}, {39, 4, 15}};  // 2340 cells: two chunks+
  Xoshiro256 rng(21);
  std::vector<double> xs(static_cast<size_t>(box.num_cells()));
  for (double& x : xs) {
    x = std::pow(10.0, -300.0 + 370.0 * rng.uniform()) *
        (rng.uniform() < 0.5 ? -1.0 : 1.0);
  }
  const MomentAccumulator want = two_pass_expectation(xs);
  expect_same_moments(stats_learn(xs), want);
  expect_same_moments(learn_field(field_of(box, xs)), want);
}

/// FNV-1a over the bit patterns of `values`, continuing from `hash`.
uint64_t fnv1a(uint64_t hash, std::span<const double> values) {
  for (const double x : values) {
    uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof(bits));
    for (int b = 0; b < 8; ++b) {
      hash = (hash ^ ((bits >> (8 * b)) & 0xffU)) * 0x100000001b3ULL;
    }
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
constexpr size_t kDigestLengths[] = {1,  3,    4,    5,    47,
                                     48, 1023, 1024, 1025, 2500};

/// The seeded inputs of the recorded digests: unit normals, 1e-3 noise on
/// a 1e8 offset, and |x| from 1e-300 to 1e70 in both signs.
std::vector<std::vector<double>> digest_inputs(size_t n, uint64_t seed) {
  std::vector<double> wide(n);
  Xoshiro256 rng(seed);
  for (double& x : wide) {
    x = std::pow(10.0, -300.0 + 370.0 * rng.uniform()) *
        (rng.uniform() < 0.5 ? -1.0 : 1.0);
  }
  return {random_data(n, seed), random_data(n, seed + 1, 1e-3, 1e8), wide};
}

TEST(RowLearn, LearnMatchesRecordedBits) {
  // Every output bit of learn(), fresh and merged into a one-chunk model,
  // against a constant recorded from the scalar four-lane kernel: a kernel
  // change that moves one bit (a reordered sum, a contracted multiply-add)
  // fails here.
  constexpr uint64_t kRecorded = 0x3d4b15b9a0651c52ULL;
  uint64_t hash = kFnvBasis;
  for (const size_t n : kDigestLengths) {
    for (const std::vector<double>& xs : digest_inputs(n, 40 + n)) {
      MomentAccumulator fresh;
      fresh.learn(xs);
      MomentAccumulator merged;
      merged.learn(random_data(1024, n));
      merged.learn(xs);
      for (const MomentAccumulator& acc : {fresh, merged}) {
        double packed[MomentAccumulator::kPackedSize];
        acc.pack(packed);
        hash = fnv1a(hash, packed);
      }
    }
  }
  EXPECT_EQ(hash, kRecorded) << std::hex << "digest 0x" << hash;
}

TEST(Derive, KnownDistributions) {
  // Standard normal: variance 1, skew 0, excess kurtosis 0.
  const auto normal = derive_descriptive(stats_learn(random_data(200000, 5)));
  EXPECT_NEAR(normal.mean, 0.0, 0.02);
  EXPECT_NEAR(normal.variance, 1.0, 0.03);
  EXPECT_NEAR(normal.skewness, 0.0, 0.05);
  EXPECT_NEAR(normal.kurtosis_excess, 0.0, 0.1);

  // Uniform [0,1): variance 1/12, excess kurtosis -1.2.
  Xoshiro256 rng(8);
  std::vector<double> uni(200000);
  for (auto& x : uni) x = rng.uniform();
  const auto u = derive_descriptive(stats_learn(uni));
  EXPECT_NEAR(u.mean, 0.5, 0.01);
  EXPECT_NEAR(u.variance, 1.0 / 12.0, 0.002);
  EXPECT_NEAR(u.kurtosis_excess, -1.2, 0.05);
}

TEST(Assess, ZScores) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0};
  const auto model = derive_descriptive(stats_learn(xs));
  const auto z = stats_assess(xs, model);
  ASSERT_EQ(z.size(), xs.size());
  EXPECT_NEAR(z[2], 0.0, 1e-12);         // the mean
  EXPECT_NEAR(z[0], -z[4], 1e-12);       // symmetric
  EXPECT_LT(z[0], 0.0);
}

TEST(TestStage, NormalityStatistic) {
  // Normal data: small JB statistic / high p. Bimodal data: large JB.
  const auto normal =
      derive_descriptive(stats_learn(random_data(50000, 21)));
  const auto jb_normal = stats_test_normality(normal);
  EXPECT_LT(jb_normal.statistic, 12.0);

  Xoshiro256 rng(22);
  std::vector<double> bimodal(50000);
  for (auto& x : bimodal) x = (rng.uniform() < 0.5 ? -3.0 : 3.0) + rng.normal();
  const auto jb_bimodal =
      stats_test_normality(derive_descriptive(stats_learn(bimodal)));
  EXPECT_GT(jb_bimodal.statistic, 100.0);
  EXPECT_LT(jb_bimodal.p_value, 0.01);
}

TEST(Covariance, PerfectLinearRelation) {
  CovarianceAccumulator acc;
  for (int i = 0; i < 100; ++i) {
    acc.update(i, 2.0 * i + 5.0);
  }
  const auto m = derive_correlation(acc);
  EXPECT_NEAR(m.pearson_r, 1.0, 1e-12);
  EXPECT_NEAR(m.slope, 2.0, 1e-10);
  EXPECT_NEAR(m.intercept, 5.0, 1e-8);
}

TEST(Covariance, IndependentVariablesNearZero) {
  Xoshiro256 rng(31);
  CovarianceAccumulator acc;
  for (int i = 0; i < 100000; ++i) acc.update(rng.normal(), rng.normal());
  EXPECT_NEAR(derive_correlation(acc).pearson_r, 0.0, 0.02);
}

class CovCombine : public ::testing::TestWithParam<int> {};

TEST_P(CovCombine, CombineEqualsSequential) {
  const int parts = GetParam();
  Xoshiro256 rng(41);
  std::vector<double> x(3000), y(3000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.normal();
    y[i] = 0.7 * x[i] + 0.3 * rng.normal();
  }
  const auto whole = correlation_learn(x, y);

  CovarianceAccumulator combined;
  const size_t chunk = x.size() / static_cast<size_t>(parts);
  for (int p = 0; p < parts; ++p) {
    const size_t b = static_cast<size_t>(p) * chunk;
    const size_t e = p + 1 == parts ? x.size() : b + chunk;
    combined.combine(correlation_learn(
        std::span(x.data() + b, e - b), std::span(y.data() + b, e - b)));
  }
  EXPECT_EQ(combined.count(), whole.count());
  EXPECT_NEAR(combined.c2(), whole.c2(), std::abs(whole.c2()) * 1e-10);
  EXPECT_NEAR(derive_correlation(combined).pearson_r,
              derive_correlation(whole).pearson_r, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Partitions, CovCombine, ::testing::Values(2, 5, 30));

TEST(CovarianceRowLearn, MatchesUpdateOnMiniS3DFields) {
  S3DParams p;
  p.grid = GlobalGrid{{48, 32, 24}, {1.0, 0.75, 0.75}};
  p.ranks_per_axis = {1, 1, 1};
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < 3; ++s) sim.advance(comm);
    const Field& x = sim.field(Variable::kTemperature);
    const Field& y = sim.field(Variable::kYH2);
    CovarianceAccumulator want;
    const Box3& b = x.owned();
    for (int64_t k = b.lo[2]; k < b.hi[2]; ++k)
      for (int64_t j = b.lo[1]; j < b.hi[1]; ++j)
        for (int64_t i = b.lo[0]; i < b.hi[0]; ++i)
          want.update(x.at(i, j, k), y.at(i, j, k));
    const double n = static_cast<double>(want.count());
    for (const CovarianceAccumulator& got :
         {correlation_learn_fields(x, y),
          correlation_learn(x.pack_owned(), y.pack_owned())}) {
      ASSERT_EQ(got.count(), want.count());
      EXPECT_NEAR(got.mean_x(), want.mean_x(),
                  1e-12 * std::sqrt(want.m2_x() / n));
      EXPECT_NEAR(got.mean_y(), want.mean_y(),
                  1e-12 * std::sqrt(want.m2_y() / n));
      EXPECT_NEAR(got.m2_x(), want.m2_x(), 1e-12 * want.m2_x());
      EXPECT_NEAR(got.m2_y(), want.m2_y(), 1e-12 * want.m2_y());
      EXPECT_NEAR(got.c2(), want.c2(),
                  1e-12 * std::sqrt(want.m2_x() * want.m2_y()));
    }
  });
}

TEST(CovarianceRowLearn, FieldStreamMatchesPackedLearnBitForBit) {
  for (const Box3& box :
       {Box3{{0, 0, 0}, {37, 5, 7}}, Box3{{-3, 2, 0}, {1497, 4, 1}}}) {
    const auto n = static_cast<size_t>(box.num_cells());
    const std::vector<double> xs = random_data(n, 18, 2.0, 40.0);
    const std::vector<double> ys = random_data(n, 19, 0.5, -3.0);
    EXPECT_EQ(correlation_learn_fields(field_of(box, xs), field_of(box, ys))
                  .serialize(),
              correlation_learn(xs, ys).serialize())
        << box.extent(0);
  }
}

TEST(CovarianceRowLearn, ConstantSideHasExactlyZeroSpread) {
  for (const double c : {0.1, -1.0 / 3.0, 7.0e5}) {
    const std::vector<double> x(1500, c);
    const std::vector<double> y = random_data(1500, 4);
    const CovarianceAccumulator acc = correlation_learn(x, y);
    EXPECT_EQ(acc.mean_x(), c);
    EXPECT_EQ(acc.m2_x(), 0.0);
    // c2 is a sum of products with the constant side's rounding residual.
    EXPECT_NEAR(acc.c2(), 0.0, 1e-12 * std::abs(c) * std::sqrt(acc.m2_y()));
    const CorrelationModel m = derive_correlation(acc);
    EXPECT_EQ(m.slope, 0.0);
    EXPECT_EQ(m.pearson_r, 0.0);
  }
}

TEST(CovarianceRowLearn, LearnMatchesRecordedBits) {
  // The bivariate twin of RowLearn.LearnMatchesRecordedBits: every pairing
  // of the three input kinds, fresh and merged into a one-chunk model.
  constexpr uint64_t kRecorded = 0x64d72f6efb7d7780ULL;
  uint64_t hash = kFnvBasis;
  for (const size_t n : kDigestLengths) {
    const std::vector<std::vector<double>> in = digest_inputs(n, 70 + n);
    for (const std::vector<double>& x : in) {
      for (const std::vector<double>& y : in) {
        CovarianceAccumulator fresh;
        fresh.learn(x, y);
        CovarianceAccumulator merged;
        merged.learn(random_data(1024, n), random_data(1024, n + 1));
        merged.learn(x, y);
        for (const CovarianceAccumulator& acc : {fresh, merged}) {
          hash = fnv1a(hash, acc.serialize());
        }
      }
    }
  }
  EXPECT_EQ(hash, kRecorded) << std::hex << "digest 0x" << hash;
}

TEST(Autocorrelation, PeriodicSignal) {
  std::vector<double> series(1000);
  for (size_t i = 0; i < series.size(); ++i) {
    series[i] = std::sin(2.0 * M_PI * static_cast<double>(i) / 50.0);
  }
  EXPECT_NEAR(autocorrelation(series, 50).pearson_r, 1.0, 1e-6);
  EXPECT_NEAR(autocorrelation(series, 25).pearson_r, -1.0, 1e-6);
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.update(i + 0.5);
  h.update(-1.0);
  h.update(11.0);
  h.update(10.0);  // hi is exclusive -> overflow
  for (int b = 0; b < 10; ++b) EXPECT_EQ(h.count(b), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 2u);
  EXPECT_EQ(h.total(), 13u);
}

TEST(Histogram, CombineMatchesUnion) {
  Histogram a(0.0, 1.0, 20), b(0.0, 1.0, 20), whole(0.0, 1.0, 20);
  Xoshiro256 rng(55);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform();
    whole.update(x);
    (i % 2 == 0 ? a : b).update(x);
  }
  a.combine(b);
  for (int bin = 0; bin < 20; ++bin) EXPECT_EQ(a.count(bin), whole.count(bin));
  EXPECT_EQ(a.total(), whole.total());
}

TEST(Histogram, CombineRejectsMismatchedBinning) {
  Histogram a(0.0, 1.0, 10), b(0.0, 2.0, 10);
  EXPECT_THROW(a.combine(b), Error);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  Xoshiro256 rng(66);
  for (int i = 0; i < 100000; ++i) h.update(rng.uniform());
  EXPECT_NEAR(h.quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.quantile(0.9), 0.9, 0.02);
  EXPECT_NEAR(h.quantile(0.0), 0.0, 0.02);
}

}  // namespace
}  // namespace hia
