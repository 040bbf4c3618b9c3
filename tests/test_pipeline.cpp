// End-to-end integration tests of the hybrid framework: MiniS3D + in-situ
// stages + staging + in-transit stages, checking that the hybrid variants
// produce the *same science* as the fully in-situ variants and that the
// scheduler bookkeeping matches the run configuration.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <mutex>
#include <thread>

#include "analysis/topology/local_tree.hpp"
#include "core/framework.hpp"
#include "io/bp_lite.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "core/viz_pipeline.hpp"
#include "obs/histogram.hpp"

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

// A hybrid analysis that talks to no other rank: rank r sleeps
// (r + 1) * sleep_ms and publishes (r + 1) * 16 doubles, so the last rank
// is the slowest and every rank publishes a different amount. The
// in-transit stage records how many blocks each task received.
class RankProbe : public HybridAnalysis {
 public:
  RankProbe(std::string name, int sleep_ms)
      : name_(std::move(name)), sleep_ms_(sleep_ms) {}

  [[nodiscard]] std::string name() const override { return name_; }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return {name_ + ".block"};
  }
  void in_situ(InSituContext& ctx) override {
    const int weight = ctx.comm().rank() + 1;
    std::this_thread::sleep_for(std::chrono::milliseconds(weight * sleep_ms_));
    ctx.publish(name_ + ".block",
                ctx.sim().field(Variable::kTemperature).owned(),
                std::vector<double>(static_cast<size_t>(weight) * 16, 1.0));
  }
  void in_transit(TaskContext& ctx) override {
    std::lock_guard lock(mutex_);
    inputs_per_task_.push_back(ctx.task().inputs.size());
  }
  std::vector<size_t> inputs_per_task() {
    std::lock_guard lock(mutex_);
    return inputs_per_task_;
  }

 private:
  std::string name_;
  int sleep_ms_;
  std::mutex mutex_;
  std::vector<size_t> inputs_per_task_;
};

TEST(Pipeline, ReportFoldsEveryRanksRows) {
  const long steps = 3;
  const int sleep_ms = 4;
  RunConfig cfg = small_config(steps);
  const int nranks = 4;  // 2x2x1
  HybridRunner runner(cfg);
  auto probe = std::make_shared<RankProbe>("probe", sleep_ms);
  runner.add_analysis(probe);
  const RunReport report = runner.run();

  EXPECT_EQ(report.sim_step_seconds.size(), static_cast<size_t>(steps));
  ASSERT_EQ(report.in_situ.size(), static_cast<size_t>(steps));
  const size_t bytes_sum = 16 * sizeof(double) * (1 + 2 + 3 + 4);
  for (size_t i = 0; i < report.in_situ.size(); ++i) {
    const InSituMetric& m = report.in_situ[i];
    EXPECT_EQ(m.analysis, "probe");
    EXPECT_EQ(m.step, static_cast<long>(i) + 1);
    // The last rank sleeps longest; rank 0's own time is a quarter of it.
    EXPECT_GE(m.max_rank_seconds, nranks * sleep_ms * 1e-3);
    EXPECT_EQ(m.published_bytes, bytes_sum);
  }
  const std::vector<size_t> inputs = probe->inputs_per_task();
  EXPECT_EQ(inputs.size(), static_cast<size_t>(steps));
  for (const size_t n : inputs) EXPECT_EQ(n, static_cast<size_t>(nranks));
  EXPECT_EQ(report.in_transit.size(), static_cast<size_t>(steps));
}

TEST(Pipeline, RankLoopRunsOneBarrierPerStage) {
  // Neither the simulation nor these analyses run a collective, so every
  // comm_collective_s observation is one of the runner's own: a barrier
  // after each sim step and after each in-situ stage, plus the final one.
  const long steps = 3;
  const int nranks = 4;  // 2x2x1
  const int analyses = 2;
  HybridRunner runner(small_config(steps));
  runner.add_analysis(std::make_shared<RankProbe>("probe-a", 0));
  runner.add_analysis(std::make_shared<RankProbe>("probe-b", 0));
  obs::reset_histograms();
  (void)runner.run();
  EXPECT_EQ(obs::histogram("comm_collective_s").snapshot().count,
            static_cast<uint64_t>(nranks * (steps * (1 + analyses) + 1)));
}

TEST(Pipeline, PureInTransitStatsMatchHybrid) {
  RunConfig cfg = small_config(2);
  HybridRunner runner(cfg);
  auto hybrid = std::make_shared<HybridStatistics>(
      std::vector<Variable>{Variable::kTemperature});
  auto raw = std::make_shared<Statistics>(
      Placement::kInTransit, std::vector<Variable>{Variable::kTemperature});
  runner.add_analysis(hybrid);
  runner.add_analysis(raw);
  const RunReport report = runner.run();

  const auto h = hybrid->latest_models();
  ASSERT_EQ(h.size(), 1u);
  const auto raw_models = raw->latest_models();
  ASSERT_EQ(raw_models.size(), 1u);
  const DescriptiveModel& r = raw_models[0];
  EXPECT_EQ(h[0].count, r.count);
  EXPECT_NEAR(h[0].mean, r.mean, 1e-9);
  EXPECT_NEAR(h[0].variance, r.variance, 1e-8);

  // The raw path moves ~the full variable; the hybrid path moves a model.
  const double raw_bytes = report.mean_movement_bytes("stats-intransit");
  const double hybrid_bytes = report.mean_movement_bytes("stats-hybrid");
  EXPECT_GT(raw_bytes, 100.0 * hybrid_bytes);
}

TEST(Pipeline, OneStatisticsAgreesUnderEveryPlacement) {
  // One Statistics over all 14 variables, run under each placement in the
  // same campaign: only the reduce step differs, so counts and extrema
  // are exact and the moments agree to rounding.
  const Placement placements[] = {Placement::kInSitu, Placement::kHybrid,
                                  Placement::kInTransit};
  const char* const names[] = {"stats-insitu", "stats-hybrid",
                               "stats-intransit"};
  const RunConfig cfg = small_config(3);
  HybridRunner runner(cfg);
  std::vector<std::shared_ptr<Statistics>> stats;
  for (const Placement placement : placements) {
    stats.push_back(std::make_shared<Statistics>(placement));
    runner.add_analysis(stats.back());
  }
  const RunReport report = runner.run();

  auto near = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
  };
  const auto reference = stats[0]->latest_models();
  ASSERT_EQ(reference.size(), static_cast<size_t>(kNumVariables));
  for (size_t p = 0; p < stats.size(); ++p) {
    EXPECT_EQ(stats[p]->name(), names[p]);
    const auto models = stats[p]->latest_models();
    ASSERT_EQ(models.size(), reference.size()) << names[p];
    for (size_t v = 0; v < models.size(); ++v) {
      const DescriptiveModel& a = reference[v];
      const DescriptiveModel& b = models[v];
      EXPECT_EQ(b.count, static_cast<uint64_t>(cfg.sim.grid.num_points()))
          << names[p];
      EXPECT_EQ(b.count, a.count) << names[p] << " " << kVariableNames[v];
      EXPECT_EQ(b.min, a.min) << names[p] << " " << kVariableNames[v];
      EXPECT_EQ(b.max, a.max) << names[p] << " " << kVariableNames[v];
      EXPECT_TRUE(near(b.mean, a.mean))
          << names[p] << " " << kVariableNames[v] << ": " << b.mean
          << " vs " << a.mean;
      EXPECT_TRUE(near(b.variance, a.variance))
          << names[p] << " " << kVariableNames[v] << ": " << b.variance
          << " vs " << a.variance;
    }
  }

  // Bookkeeping: one task per step for each staged placement; the in-situ
  // placement stages nothing.
  std::map<std::string, size_t> tasks;
  for (const auto& r : report.in_transit) ++tasks[r.analysis];
  EXPECT_EQ(tasks, (std::map<std::string, size_t>{{"stats-hybrid", 3},
                                                 {"stats-intransit", 3}}));
  EXPECT_EQ(report.sim_step_seconds.size(), 3u);
  EXPECT_GT(report.mean_in_situ_seconds("stats-insitu"), 0.0);
  // Hybrid stats ship a few hundred bytes per rank, not the raw data.
  EXPECT_LT(report.mean_movement_bytes("stats-hybrid"),
            static_cast<double>(report.solution_bytes_per_step) / 100.0);
}

TEST(Latest, KeepsTheNewestStepWhateverTheOfferOrder) {
  Latest<int> latest;
  EXPECT_EQ(latest.get(), 0);  // nothing offered yet
  latest.offer(2, 20);
  latest.offer(1, 10);  // an older step finishing later is dropped
  EXPECT_EQ(latest.get(), 20);
  latest.offer(4, 40);
  latest.offer(3, 30);
  EXPECT_EQ(latest.get(), 40);
  latest.offer(4, 41);  // the same step replaces
  EXPECT_EQ(latest.get(), 41);
}

TEST(Pipeline, VisualizationVariantsProduceSimilarImages) {
  RunConfig cfg = small_config(2);
  VizConfig viz;
  viz.image_size = 48;
  viz.downsample_stride = 2;
  HybridRunner runner(cfg);
  auto insitu = std::make_shared<InSituVisualization>(viz);
  auto hybrid = std::make_shared<HybridVisualization>(viz);
  runner.add_analysis(insitu);
  runner.add_analysis(hybrid);
  (void)runner.run();

  const auto a = insitu->latest_image();
  const auto b = hybrid->latest_image();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const double psnr = image_psnr(*a, *b);
  // Down-sampled rendering approximates the full-resolution image
  // (Fig. 2: suitable for monitoring, not identical).
  EXPECT_GT(psnr, 18.0) << "hybrid image too far from in-situ reference";
}

TEST(Pipeline, TopologyMatchesDirectGlobalTree) {
  RunConfig cfg = small_config(3);
  TopologyConfig topo;
  topo.variable = Variable::kTemperature;
  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridTopology>(topo);
  runner.add_analysis(analysis);
  (void)runner.run();

  const TreeSummary summary = analysis->latest_summary();
  EXPECT_EQ(summary.step, 3);
  EXPECT_GT(summary.tree_leaves, 0u);
  EXPECT_GE(summary.tree_nodes, summary.tree_leaves);

  // Reference: advance an identical single-rank simulation to the same
  // step (MiniS3D is decomposition-invariant) and build the global tree.
  S3DParams ref_params = cfg.sim;
  ref_params.ranks_per_axis = {1, 1, 1};
  MergeTree reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(ref_params, 0);
      sim.initialize();
      for (long s = 0; s < cfg.steps; ++s) sim.advance(comm);
      const auto values = sim.field(Variable::kTemperature).pack_owned();
      reference = build_local_tree(ref_params.grid, ref_params.grid.bounds(),
                                   values)
                      .reduced();
    });
  }
  const MergeTree combined = analysis->latest_tree();
  EXPECT_TRUE(combined.same_structure(reference))
      << "combined tree: " << combined.size()
      << " nodes, reference: " << reference.size();
}

TEST(Pipeline, TopologyArcSinkWritesEvictedArcsToDisk) {
  RunConfig cfg = small_config(1);
  TopologyConfig topo;
  topo.arc_output_dir = ::testing::TempDir();
  HybridRunner runner(cfg);
  auto analysis = std::make_shared<HybridTopology>(topo);
  runner.add_analysis(analysis);
  (void)runner.run();

  const TreeSummary summary = analysis->latest_summary();
  char path[512];
  std::snprintf(path, sizeof(path), "%s/topo-hybrid.step%06ld.arcs.bp",
                topo.arc_output_dir.c_str(), summary.step);
  const auto entries = bp_read_file(path);
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].name, "evicted_arcs");
  // One [id, value, child, parent] row per evicted vertex; mid-stream
  // evictions plus the finish() sweep are all captured.
  EXPECT_EQ(entries[0].values.size() % 4, 0u);
  EXPECT_EQ(entries[0].values.size() / 4, summary.evicted);
  EXPECT_GT(summary.evicted, 0u);
  std::remove(path);
}

TEST(Pipeline, FrequencyControlsInvocationCount) {
  RunConfig cfg = small_config(6);
  HybridRunner runner(cfg);
  auto every = std::make_shared<HybridStatistics>(
      std::vector<Variable>{Variable::kTemperature});
  auto sparse = std::make_shared<HybridTopology>(TopologyConfig{});
  runner.add_analysis(every, 1);
  runner.add_analysis(sparse, 3);  // steps 3 and 6 only
  const RunReport report = runner.run();

  size_t stats_tasks = 0, topo_tasks = 0;
  for (const auto& r : report.in_transit) {
    if (r.analysis == "stats-hybrid") ++stats_tasks;
    if (r.analysis == "topo-hybrid") ++topo_tasks;
  }
  EXPECT_EQ(stats_tasks, 6u);
  EXPECT_EQ(topo_tasks, 2u);
}

TEST(Pipeline, ReportFormattersProduceTables) {
  RunConfig cfg = small_config(2);
  HybridRunner runner(cfg);
  runner.add_analysis(std::make_shared<InSituStatistics>());
  runner.add_analysis(std::make_shared<HybridStatistics>());
  const RunReport report = runner.run();

  const auto t2 =
      format_table2(report, {"stats-insitu", "stats-hybrid"});
  EXPECT_NE(t2.find("stats-insitu"), std::string::npos);
  EXPECT_NE(t2.find("in-transit time"), std::string::npos);

  const auto f6 = format_fig6(report, {"stats-insitu", "stats-hybrid"});
  EXPECT_NE(f6.find("simulation"), std::string::npos);
  EXPECT_NE(f6.find("100.00%"), std::string::npos);

  const auto t1 = format_table1(
      {{MachineConfig::paper_4896(),
        GlobalGrid{{1600, 1372, 430}, {1, 1, 1}}, 16.85, OstModel{}}});
  EXPECT_NE(t1.find("16x28x10 = 4480"), std::string::npos);
  EXPECT_NE(t1.find("4896 cores"), std::string::npos);
}

TEST(Pipeline, RunnerRejectsMisuse) {
  RunConfig cfg = small_config(1);
  HybridRunner runner(cfg);
  EXPECT_THROW(runner.add_analysis(nullptr), Error);
  runner.add_analysis(std::make_shared<InSituStatistics>());
  EXPECT_THROW(runner.add_analysis(std::make_shared<InSituStatistics>(), 0),
               Error);
  (void)runner.run();
  EXPECT_THROW((void)runner.run(), Error);
}

TEST(Pipeline, SimulationNotBlockedBySlowInTransit) {
  // With sleep_transfers enabled and a large time_scale the in-transit
  // stage takes much longer than a simulation step, yet the simulation
  // completes all steps and drain() collects every task afterwards —
  // the asynchronous decoupling the framework exists to provide.
  RunConfig cfg = small_config(4);
  cfg.staging_buckets = 4;
  cfg.dart.sleep_transfers = true;
  cfg.dart.time_scale = 3000.0;  // exaggerate wire time
  HybridRunner runner(cfg);
  runner.add_analysis(std::make_shared<HybridStatistics>(
      std::vector<Variable>{Variable::kTemperature}));
  const RunReport report = runner.run();
  ASSERT_EQ(report.in_transit.size(), 4u);
  // Every task completed and the pipeline used multiple buckets.
  std::set<int> buckets;
  for (const auto& r : report.in_transit) buckets.insert(r.bucket);
  EXPECT_GE(buckets.size(), 2u);
}

}  // namespace
}  // namespace hia
