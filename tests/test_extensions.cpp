// End-to-end tests of the extension pipelines (the paper's §VI future
// work): hybrid auto-correlative statistics, streaming in-transit
// ingestion with early eviction, and hybrid feature-based statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>

#include "analysis/topology/feature_stats.hpp"
#include "analysis/topology/local_tree.hpp"
#include "analysis/topology/stream_combine.hpp"
#include "core/contingency_pipeline.hpp"
#include "core/correlation_pipeline.hpp"
#include "core/feature_stats_pipeline.hpp"
#include "core/framework.hpp"
#include "core/histogram_pipeline.hpp"
#include "sim/analytic_fields.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

RunConfig small_config(long steps = 3) {
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{24, 16, 16}, {1.0, 0.75, 0.75}};
  cfg.sim.ranks_per_axis = {2, 2, 1};
  cfg.staging_servers = 2;
  cfg.staging_buckets = 3;
  cfg.steps = steps;
  return cfg;
}

TEST(CorrelationPipeline, MatchesSerialBivariateLearn) {
  RunConfig cfg = small_config(2);
  HybridRunner runner(cfg);
  auto corr = std::make_shared<HybridCorrelation>(Variable::kTemperature,
                                                  Variable::kYH2O);
  runner.add_analysis(corr);
  const RunReport report = runner.run();

  const CorrelationModel model = corr->latest_model();
  EXPECT_EQ(model.count,
            static_cast<uint64_t>(cfg.sim.grid.num_points()));

  // Serial reference on the same (deterministic) state.
  S3DParams solo = cfg.sim;
  solo.ranks_per_axis = {1, 1, 1};
  CorrelationModel reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (long s = 0; s < cfg.steps; ++s) sim.advance(comm);
      reference = derive_correlation(correlation_learn_fields(
          sim.field(Variable::kTemperature), sim.field(Variable::kYH2O)));
    });
  }
  EXPECT_NEAR(model.pearson_r, reference.pearson_r, 1e-9);
  EXPECT_NEAR(model.covariance, reference.covariance,
              1e-9 * (1.0 + std::abs(reference.covariance)));
  EXPECT_NEAR(model.slope, reference.slope,
              1e-8 * (1.0 + std::abs(reference.slope)));

  // Combustion physics sanity: product mass fraction correlates positively
  // with temperature (weakly after only two steps of burning).
  EXPECT_GT(model.pearson_r, 0.0);

  // Movement: one bivariate model (6 doubles) per rank per step.
  EXPECT_DOUBLE_EQ(report.mean_movement_bytes("corr-hybrid"),
                   6.0 * sizeof(double) * report.sim_ranks);
}

TEST(StreamingIngestion, SameTreeLowerPeakMemory) {
  GlobalGrid grid{{16, 16, 16}, {1, 1, 1}};
  Decomposition decomp(grid, {2, 2, 2});
  Field field("f", grid.bounds());
  fill_gaussian_mixture(field, grid,
                        GaussianMixture::well_separated(6, 0.06, 5));

  std::vector<SubtreeData> subtrees;
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 block = decomp.block(r);
    const Box3 ext = extended_block(grid, block);
    subtrees.push_back(
        compute_rank_subtree(grid, block, field.pack(ext), ext));
  }

  StreamingCombiner batch;
  for (const auto& s : subtrees) batch.insert_subtree(s);
  const size_t batch_peak = batch.peak_live_nodes();
  const MergeTree batch_tree = batch.finish();

  StreamingCombiner streaming;
  for (const auto& s : subtrees) streaming.insert_subtree_streaming(s);
  const size_t streaming_peak = streaming.peak_live_nodes();
  const MergeTree streaming_tree = streaming.finish();

  EXPECT_TRUE(batch_tree.same_structure(streaming_tree));
  EXPECT_LT(streaming_peak, batch_peak);
}

TEST(StreamingIngestion, GeometryAwareDriverMatchesBatch) {
  GlobalGrid grid{{20, 16, 12}, {1, 1, 1}};
  Decomposition decomp(grid, {2, 2, 2});
  Field field("f", grid.bounds());
  fill_noise(field, 77);

  std::vector<SubtreeData> subtrees;
  std::vector<Box3> blocks;
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 block = decomp.block(r);
    const Box3 ext = extended_block(grid, block);
    subtrees.push_back(
        compute_rank_subtree(grid, block, field.pack(ext), ext));
    blocks.push_back(ext);
  }

  StreamingCombiner batch;
  for (const auto& s : subtrees) batch.insert_subtree(s);
  const size_t batch_peak = batch.peak_live_nodes();
  const MergeTree batch_tree = batch.finish();

  StreamingCombiner geo;
  SubtreeStreamDriver driver(grid, blocks);
  for (const auto& s : subtrees) driver.ingest(geo, s);
  EXPECT_EQ(driver.open_vertices(), 0u);  // everything fully seen
  const size_t geo_peak = geo.peak_live_nodes();
  const MergeTree geo_tree = geo.finish();

  EXPECT_TRUE(batch_tree.same_structure(geo_tree));
  EXPECT_LT(geo_peak, batch_peak * 3 / 4);
}

TEST(StreamingIngestion, RequiresInteriorFlags) {
  StreamingCombiner c;
  SubtreeData s;
  s.vertex_ids = {1, 2};
  s.vertex_values = {2.0, 1.0};
  s.edge_child = {0};
  s.edge_parent = {1};
  // interior flags missing entirely.
  EXPECT_THROW(c.insert_subtree_streaming(s), Error);
}

TEST(FeatureStatsPipeline, MatchesSerialReference) {
  RunConfig cfg = small_config(3);
  cfg.sim.chemistry.kernel_rate = 3.0;  // ensure hot features exist
  FeatureStatsConfig fcfg;
  fcfg.field = Variable::kTemperature;
  fcfg.measure = Variable::kYOH;
  fcfg.threshold = 1.5;

  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridFeatureStatistics>(fcfg);
  runner.add_analysis(analysis);
  (void)runner.run();

  const auto features = analysis->latest_features();
  ASSERT_FALSE(features.empty());

  // Serial reference at the same step.
  S3DParams solo = cfg.sim;
  solo.ranks_per_axis = {1, 1, 1};
  std::vector<GlobalFeature> reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (long s = 0; s < cfg.steps; ++s) sim.advance(comm);
      reference = feature_statistics(
          solo.grid, solo.grid.bounds(),
          sim.field(Variable::kTemperature).pack_owned(),
          sim.field(Variable::kYOH).pack_owned(), fcfg.threshold);
    });
  }
  ASSERT_EQ(features.size(), reference.size());
  for (size_t f = 0; f < features.size(); ++f) {
    EXPECT_EQ(features[f].id, reference[f].id);
    EXPECT_EQ(features[f].voxels, reference[f].voxels);
    EXPECT_EQ(features[f].measure.count(), reference[f].measure.count());
    EXPECT_NEAR(features[f].measure.mean(), reference[f].measure.mean(),
                1e-10);
  }
}

TEST(FeatureStatsPipeline, ResultBlobWellFormed) {
  RunConfig cfg = small_config(1);
  cfg.sim.chemistry.kernel_rate = 3.0;
  FeatureStatsConfig fcfg;
  fcfg.threshold = 1.5;
  fcfg.top_features = 4;

  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridFeatureStatistics>(fcfg);
  runner.add_analysis(analysis);
  uint64_t task_id = 0;
  (void)task_id;
  const RunReport report = runner.run();
  ASSERT_EQ(report.in_transit.size(), 1u);
  auto blob = runner.staging().take_result(report.in_transit[0].task_id);
  ASSERT_TRUE(blob.has_value());
  ASSERT_GE(blob->size(), sizeof(double));
  double count = 0.0;
  std::memcpy(&count, blob->data(), sizeof(double));
  const size_t expected_top =
      std::min<size_t>(static_cast<size_t>(count), 4);
  EXPECT_EQ(blob->size(), sizeof(double) * (1 + expected_top * 8));
}

/// A steering loop: the in-transit side of this analysis monitors the
/// global temperature maximum and posts a tightened threshold; the in-situ
/// side reads it back the next step.
class SteeredAnalysis final : public HybridAnalysis {
 public:
  explicit SteeredAnalysis(SteeringBoard& board) : board_(board) {}
  [[nodiscard]] std::string name() const override { return "steered"; }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return {"steer.max"};
  }
  void in_situ(InSituContext& ctx) override {
    // Read what the in-transit stage posted on an earlier step.
    const double thr = ctx.steering().read_or("threshold", 0.0);
    if (ctx.comm().rank() == 0) {
      std::lock_guard lock(mutex_);
      thresholds_seen_.push_back(thr);
    }
    double local_max = 0.0;
    const Field& t = ctx.sim().field(Variable::kTemperature);
    for (const double v : t.data()) local_max = std::max(local_max, v);
    ctx.publish("steer.max", t.owned(), {local_max});
  }
  void in_transit(TaskContext& ctx) override {
    double global_max = 0.0;
    for (const auto& desc : ctx.task().inputs) {
      global_max = std::max(global_max, ctx.pull_doubles(desc)[0]);
    }
    board_.post("threshold", 0.5 * global_max);
  }
  [[nodiscard]] std::vector<double> thresholds_seen() const {
    std::lock_guard lock(mutex_);
    return thresholds_seen_;
  }

 private:
  SteeringBoard& board_;
  mutable std::mutex mutex_;
  std::vector<double> thresholds_seen_;
};

TEST(Steering, InTransitStagePostsParametersSimulationReads) {
  RunConfig cfg = small_config(4);
  HybridRunner runner(cfg);
  auto analysis = std::make_shared<SteeredAnalysis>(runner.steering());
  runner.add_analysis(analysis);
  (void)runner.run();

  const auto seen = analysis->thresholds_seen();
  ASSERT_EQ(seen.size(), 4u);
  EXPECT_DOUBLE_EQ(seen[0], 0.0);  // nothing posted before the first step
  // Later steps observe a posted threshold derived from the global max.
  // The loop is asynchronous, so a post may lag a step or two; but after
  // drain() the board definitely carries the last posted value.
  EXPECT_GT(*std::max_element(seen.begin(), seen.end()), 0.0);
  EXPECT_GT(runner.steering().read_or("threshold", 0.0), 0.0);
  EXPECT_EQ(runner.steering().version(), 4u);
}

TEST(HistogramPipeline, CombinedMatchesSerialHistogram) {
  RunConfig cfg = small_config(2);
  HistogramConfig hcfg;
  hcfg.variable = Variable::kTemperature;
  hcfg.bins = 32;
  hcfg.range = {{0.0, 8.0}};

  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridHistogram>(hcfg);
  runner.add_analysis(analysis);
  (void)runner.run();

  const auto combined = analysis->latest();
  ASSERT_TRUE(combined.has_value());
  EXPECT_EQ(combined->total(),
            static_cast<uint64_t>(cfg.sim.grid.num_points()));

  // Serial reference on the deterministic final state.
  S3DParams solo = cfg.sim;
  solo.ranks_per_axis = {1, 1, 1};
  Histogram reference(0.0, 8.0, 32);
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (long s = 0; s < cfg.steps; ++s) sim.advance(comm);
      for (const double v :
           sim.field(Variable::kTemperature).pack_owned()) {
        reference.update(v);
      }
    });
  }
  for (int b = 0; b < 32; ++b) {
    EXPECT_EQ(combined->count(b), reference.count(b)) << "bin " << b;
  }
  EXPECT_EQ(combined->underflow(), reference.underflow());
  EXPECT_EQ(combined->overflow(), reference.overflow());
}

TEST(HistogramPipeline, AutoRangeCoversAllSamples) {
  RunConfig cfg = small_config(2);
  HistogramConfig hcfg;   // no fixed range: per-invocation all-reduce
  hcfg.bins = 16;
  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridHistogram>(hcfg);
  runner.add_analysis(analysis);
  (void)runner.run();

  const auto hist = analysis->latest();
  ASSERT_TRUE(hist.has_value());
  // The padded global range admits every sample.
  EXPECT_EQ(hist->underflow(), 0u);
  EXPECT_EQ(hist->overflow(), 0u);
  EXPECT_EQ(hist->total(),
            static_cast<uint64_t>(cfg.sim.grid.num_points()));
}

TEST(HistogramPipeline, SerializeRoundTrip) {
  Histogram h(-1.0, 3.0, 8);
  Xoshiro256 rng(2);
  for (int i = 0; i < 500; ++i) h.update(rng.uniform(-2.0, 4.0));
  const Histogram r = Histogram::deserialize(h.serialize());
  EXPECT_EQ(r.bins(), h.bins());
  EXPECT_EQ(r.lo(), h.lo());
  EXPECT_EQ(r.hi(), h.hi());
  EXPECT_EQ(r.total(), h.total());
  EXPECT_EQ(r.underflow(), h.underflow());
  EXPECT_EQ(r.overflow(), h.overflow());
  for (int b = 0; b < h.bins(); ++b) EXPECT_EQ(r.count(b), h.count(b));
}

TEST(FeatureStatsPipeline, SteeredThresholdIsAppliedConsistently) {
  RunConfig cfg = small_config(3);
  cfg.sim.chemistry.kernel_rate = 3.0;
  FeatureStatsConfig fcfg;
  fcfg.threshold = 1.5;
  fcfg.threshold_steering_key = "thr";

  HybridRunner runner(cfg);
  // Post a much higher threshold up front: fewer/hotter features than the
  // fallback would produce.
  runner.steering().post("thr", 3.0);
  auto analysis = std::make_shared<HybridFeatureStatistics>(fcfg);
  runner.add_analysis(analysis);
  (void)runner.run();

  for (const auto& f : analysis->latest_features()) {
    EXPECT_GE(f.max_value, 3.0);  // every feature respects the steered bar
  }
}

TEST(ContingencyPipeline, MatchesSerialTable) {
  RunConfig cfg = small_config(2);
  ContingencyConfig ccfg;
  ccfg.x = Variable::kTemperature;
  ccfg.y = Variable::kYH2O;
  ccfg.x_lo = 0.0; ccfg.x_hi = 8.0;
  ccfg.y_lo = 0.0; ccfg.y_hi = 1.0;

  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridContingency>(ccfg);
  runner.add_analysis(analysis);
  const RunReport report = runner.run();

  const auto table = analysis->latest_table();
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->total(),
            static_cast<uint64_t>(cfg.sim.grid.num_points()));

  // Serial reference on the deterministic final state.
  S3DParams solo = cfg.sim;
  solo.ranks_per_axis = {1, 1, 1};
  ContingencyTable reference(ccfg.x_bins, ccfg.y_bins);
  {
    const Categorizer cx(ccfg.x_lo, ccfg.x_hi, ccfg.x_bins);
    const Categorizer cy(ccfg.y_lo, ccfg.y_hi, ccfg.y_bins);
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(solo, 0);
      sim.initialize();
      for (long s = 0; s < cfg.steps; ++s) sim.advance(comm);
      reference.update(sim.field(ccfg.x).pack_owned(),
                       sim.field(ccfg.y).pack_owned(), cx, cy);
    });
  }
  for (int a = 0; a < ccfg.x_bins; ++a) {
    for (int b = 0; b < ccfg.y_bins; ++b) {
      EXPECT_EQ(table->count(a, b), reference.count(a, b))
          << "cell (" << a << "," << b << ")";
    }
  }
  const auto model = analysis->latest_model();
  const auto ref_model = derive_contingency(reference);
  EXPECT_DOUBLE_EQ(model.chi_squared, ref_model.chi_squared);
  EXPECT_DOUBLE_EQ(model.mutual_information, ref_model.mutual_information);

  // Intermediate data is the sparse table, far below the raw pair.
  EXPECT_LT(report.mean_movement_bytes("cont-hybrid"),
            0.05 * 2.0 * sizeof(double) *
                static_cast<double>(cfg.sim.grid.num_points()));
}

// Publishes a table whose dimensions differ from the configuration on the
// forging ranks, the real partial elsewhere; counts the in-transit stages
// that reject the task with hia::Error.
class ForgedContingency final : public HybridAnalysis {
 public:
  ForgedContingency(ContingencyConfig config, std::vector<int> forgers)
      : config_(config),
        inner_(std::make_shared<HybridContingency>(config)),
        forgers_(std::move(forgers)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return inner_->staged_variables();
  }
  void in_situ(InSituContext& ctx) override {
    const int rank = ctx.comm().rank();
    if (std::find(forgers_.begin(), forgers_.end(), rank) == forgers_.end()) {
      inner_->in_situ(ctx);
      return;
    }
    ContingencyTable forged(config_.x_bins + 1, config_.y_bins);
    forged.update(config_.x_bins, 0);
    ctx.publish("cont.partial", ctx.sim().decomp().block(rank),
                forged.serialize());
  }
  void in_transit(TaskContext& ctx) override {
    try {
      inner_->in_transit(ctx);
    } catch (const Error&) {
      ++rejected_;
      throw;
    }
  }

  ContingencyConfig config_;
  std::shared_ptr<HybridContingency> inner_;
  std::vector<int> forgers_;
  std::atomic<int> rejected_{0};
};

TEST(ContingencyPipeline, PulledTableOfOtherDimensionsFails) {
  // Rank 0's or rank 1's table alone arrives first in the fold in one of
  // the two runs and later in the other; when both forge, the fold agrees
  // with itself and only the configured dimensions can reject it.
  for (const std::vector<int>& forgers :
       {std::vector<int>{0}, std::vector<int>{1}, std::vector<int>{0, 1}}) {
    RunConfig cfg = small_config(1);
    cfg.sim.ranks_per_axis = {2, 1, 1};
    HybridRunner runner(cfg);
    auto analysis =
        std::make_shared<ForgedContingency>(ContingencyConfig{}, forgers);
    runner.add_analysis(analysis);
    const RunReport report = runner.run();
    EXPECT_GT(analysis->rejected_.load(), 0) << forgers.size();
    for (const TaskRecord& rec : report.in_transit) {
      EXPECT_NE(rec.outcome, TaskOutcome::kCompleted);
    }
    EXPECT_FALSE(analysis->inner_->latest_table().has_value());
  }
}

TEST(AllAnalysesTogether, FullCampaignRunsClean) {
  // Every pipeline registered simultaneously — the "various simultaneous
  // analyses" configuration of the paper's staging design.
  RunConfig cfg = small_config(2);
  HybridRunner runner(cfg);
  runner.add_analysis(std::make_shared<HybridCorrelation>(
      Variable::kTemperature, Variable::kYH2O));
  FeatureStatsConfig fcfg;
  fcfg.threshold = 1.5;
  runner.add_analysis(std::make_shared<HybridFeatureStatistics>(fcfg));
  const RunReport report = runner.run();
  EXPECT_EQ(report.in_transit.size(), 4u);  // 2 analyses x 2 steps
  for (const auto& r : report.in_transit) {
    EXPECT_GT(r.complete_time, 0.0);
  }
}

}  // namespace
}  // namespace hia
