// Tests for the replay-driven capacity planner (planner/replay.hpp):
// hand-built event logs whose replayed makespans are known by
// construction — single-task identity, bucket serialization, queue-cap
// shed/degrade diversion, fair-share vs FCFS ordering, the starvation
// guard the replay shares with the live matcher, modeled
// transfers against the NetworkModel — plus the sweep grammar and the
// fail-closed contract on spills with dropped records.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/events.hpp"
#include "planner/replay.hpp"
#include "runtime/network_model.hpp"

namespace hia {
namespace {

using planner::Calibration;
using planner::DivertMode;
using planner::Prediction;
using planner::QueuePolicy;
using planner::Scenario;
using planner::SweepSpec;
using planner::Workload;

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_events();
    obs::enable_events();
    obs::set_events_capacity(16384);
  }
  void TearDown() override {
    obs::reset_events();
    obs::enable_events();
    obs::set_events_capacity(16384);
  }

  // Per process: two test binaries run side by side share TempDir(), and
  // one must never remove or rewrite another's spill.
  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + std::to_string(::getpid()) + "_" + name;
  }
};

/// Builds one record with a strictly increasing wall stamp (the spill
/// sorts by t_us; attribution orders by vt_s with t_us as tiebreak).
obs::EventRecord ev(obs::EventKind kind, int tenant, int bucket, int64_t a,
                    int64_t b, double vt) {
  static double wall_us = 0.0;
  obs::EventRecord r;
  r.t_us = (wall_us += 1.0);
  r.vt_s = vt;
  r.a = a;
  r.b = b;
  r.kind = static_cast<int32_t>(kind);
  r.tenant = tenant;
  r.bucket = bucket;
  return r;
}

int idx(obs::TaskPhase p) { return static_cast<int>(p); }

/// One complete task: submit at `at`, assign at `assign`, xfer/work
/// seconds inside the occupancy, complete at `done`. No credit record,
/// so the replayed admission wait is zero by construction.
void add_task(std::vector<obs::EventRecord>* log, int tenant, int bucket,
              int64_t id, int64_t bytes, double at, double assign,
              double xfer_s, double work_s, double done) {
  using K = obs::EventKind;
  log->push_back(ev(K::kTaskSubmit, tenant, 0, id, bytes, at));
  log->push_back(ev(K::kTaskAssign, tenant, bucket, id, 1, assign));
  log->push_back(ev(K::kTaskXfer, tenant, bucket, id,
                    static_cast<int64_t>(xfer_s * 1e6), done));
  log->push_back(ev(K::kTaskWork, tenant, bucket, id,
                    static_cast<int64_t>(work_s * 1e6), done));
  log->push_back(ev(K::kTaskComplete, tenant, bucket, id, 1, done));
}

Workload workload_from(const std::vector<obs::EventRecord>& log) {
  return planner::extract_workload(obs::attribute_events(log, 0));
}

// ----------------------------------------------------- exact replays

TEST_F(PlannerTest, SingleTaskReplaysItsRecordedMakespanExactly) {
  // xfer 0.1 + work 0.2 + drain 0.1 inside the occupancy [0.0, 0.4]:
  // the replayed service is 0.4 s, so with no contention the predicted
  // makespan equals the measured one exactly.
  std::vector<obs::EventRecord> log;
  add_task(&log, /*tenant=*/0, /*bucket=*/0, /*id=*/1, /*bytes=*/4096,
           /*at=*/0.0, /*assign=*/0.0, /*xfer_s=*/0.1, /*work_s=*/0.2,
           /*done=*/0.4);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  ASSERT_EQ(w.tasks.size(), 1u);
  EXPECT_EQ(w.recorded_buckets, 1);
  EXPECT_NEAR(w.measured_makespan_s, 0.4, 1e-9);
  EXPECT_EQ(w.tasks[0].input_bytes, 4096);
  EXPECT_NEAR(w.tasks[0].drain_s, 0.1, 1e-9);

  const Prediction p = planner::replay(w, Scenario{});
  ASSERT_TRUE(p.ok) << p.error;
  EXPECT_NEAR(p.makespan_s, 0.4, 1e-9);
  EXPECT_EQ(p.completed, 1u);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kTransfer)], 0.1, 1e-9);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kCompute)], 0.2, 1e-9);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kDrain)], 0.1, 1e-9);

  const Calibration c = planner::calibrate(w);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.calibrated);
  EXPECT_NEAR(c.rel_error, 0.0, 1e-9);
}

TEST_F(PlannerTest, BucketSerializationMakespanKnownByConstruction) {
  // Two 0.3 s tasks arriving together on one recorded bucket: the
  // recorded run serialized them (makespan 0.6), and so must the
  // replay. Doubling the buckets halves the predicted makespan.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.1, 0.1, 0.3);
  add_task(&log, 0, 0, 2, 64, 0.0, 0.3, 0.1, 0.1, 0.6);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  EXPECT_EQ(w.recorded_buckets, 1);
  EXPECT_NEAR(w.measured_makespan_s, 0.6, 1e-9);

  const Prediction one = planner::replay(w, Scenario{});
  ASSERT_TRUE(one.ok) << one.error;
  EXPECT_NEAR(one.makespan_s, 0.6, 1e-9);
  // The second task waits exactly the first task's service time.
  EXPECT_NEAR(one.phase_totals[idx(obs::TaskPhase::kQueue)], 0.3, 1e-9);
  EXPECT_NEAR(one.utilization, 1.0, 1e-9);

  Scenario two;
  two.buckets = 2;
  const Prediction par = planner::replay(w, two);
  ASSERT_TRUE(par.ok) << par.error;
  EXPECT_NEAR(par.makespan_s, 0.3, 1e-9);
  EXPECT_NEAR(par.phase_totals[idx(obs::TaskPhase::kQueue)], 0.0, 1e-9);

  const Calibration c = planner::calibrate(w);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_TRUE(c.calibrated);
  EXPECT_NEAR(c.rel_error, 0.0, 1e-9);
}

TEST_F(PlannerTest, QueueCapShedsOrDegradesDeterministically) {
  // Three simultaneous 0.2 s tasks, one bucket, queue capped at one
  // waiter. The matcher is work-conserving, so task 1 dispatches onto
  // the idle bucket at arrival, task 2 takes the single queue slot, and
  // task 3 hits the wall and diverts.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.0, 0.2, 0.2);
  add_task(&log, 0, 0, 2, 64, 0.0, 0.2, 0.0, 0.2, 0.4);
  add_task(&log, 0, 0, 3, 64, 0.0, 0.4, 0.0, 0.2, 0.6);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;

  Scenario shed;
  shed.queue_depth = 1;
  shed.divert = DivertMode::kShed;
  const Prediction ps = planner::replay(w, shed);
  ASSERT_TRUE(ps.ok) << ps.error;
  EXPECT_EQ(ps.completed, 2u);
  EXPECT_EQ(ps.shed, 1u);
  EXPECT_EQ(ps.peak_queue_depth, 1);
  // Tasks 1 and 2 serialize on the bucket; the shed task costs nothing.
  EXPECT_NEAR(ps.makespan_s, 0.4, 1e-9);

  Scenario degrade = shed;
  degrade.divert = DivertMode::kDegrade;
  const Prediction pd = planner::replay(w, degrade);
  ASSERT_TRUE(pd.ok) << pd.error;
  EXPECT_EQ(pd.completed, 2u);
  EXPECT_EQ(pd.degraded, 1u);
  // The diverted task runs at in-situ (compute-only) cost from t=0 and
  // finishes at 0.2, inside the bucket tasks' 0.4 s makespan.
  EXPECT_NEAR(pd.makespan_s, 0.4, 1e-9);
}

TEST_F(PlannerTest, FairShareBreaksTiesByTenantAndDivergesFromFcfs) {
  // Tenant 2's short tasks are admitted first, tenant 1's long task
  // last. Under both policies tenant 2's first task grabs the idle
  // bucket at arrival; at its completion FCFS keeps admission order,
  // while fair-share picks the least-served tenant — tenant 1 — so the
  // 1.0 s task jumps ahead of tenant 2's second and the turnarounds
  // shift.
  std::vector<obs::EventRecord> log;
  add_task(&log, 2, 0, 1, 64, 0.0, 0.0, 0.0, 0.1, 0.1);
  add_task(&log, 2, 0, 2, 64, 0.0, 0.1, 0.0, 0.1, 0.2);
  add_task(&log, 1, 0, 3, 64, 0.0, 0.2, 0.0, 1.0, 1.2);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  ASSERT_EQ(w.tenants.size(), 2u);

  const Prediction fcfs = planner::replay(w, Scenario{});
  ASSERT_TRUE(fcfs.ok) << fcfs.error;
  EXPECT_NEAR(fcfs.makespan_s, 1.2, 1e-9);
  EXPECT_NEAR(fcfs.total_turnaround_s, 0.1 + 0.2 + 1.2, 1e-9);

  Scenario fair;
  fair.policy = QueuePolicy::kFair;
  const Prediction pf = planner::replay(w, fair);
  ASSERT_TRUE(pf.ok) << pf.error;
  EXPECT_NEAR(pf.makespan_s, 1.2, 1e-9);
  // Order: t2a [0,0.1], t1 [0.1,1.1], t2b [1.1,1.2].
  EXPECT_NEAR(pf.total_turnaround_s, 0.1 + 1.1 + 1.2, 1e-9);
}

TEST_F(PlannerTest, StarvationGuardServesATinyWeightTenant) {
  // Tenant 2 (weight 1e-4) ran one 0.125 s task first, so its normalized
  // service (1250) outruns anything tenant 1 (weight 1) reaches in 16
  // tasks of 0.125 s: weights alone serve tenant 2's 0.2 s task last, at
  // 2.125 s. The replay runs the live policy, whose starvation guard picks
  // that task at the first completion after it has waited longer than
  // kStarvationWaitS — at 0.625 s, so it ends sixth, at 0.825 s.
  std::vector<obs::EventRecord> log;
  add_task(&log, 2, 0, 1, 64, 0.0, 0.0, 0.0, 0.125, 0.125);
  for (int k = 1; k <= 16; ++k) {
    add_task(&log, 1, 0, 2 + k, 64, 0.0, 0.125 * k, 0.0, 0.125,
             0.125 * (k + 1));
  }
  add_task(&log, 2, 0, 2, 64, 0.0, 2.125, 0.0, 0.2, 2.325);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;

  Scenario fair;
  fair.policy = QueuePolicy::kFair;
  fair.tenant_weights = {1.0, 1e-4};
  const Prediction p = planner::replay(w, fair);
  ASSERT_TRUE(p.ok) << p.error;
  ASSERT_EQ(p.terminals_vt.size(), 18u);
  EXPECT_NEAR(p.terminals_vt[4], 0.625, 1e-9);
  EXPECT_NEAR(p.terminals_vt[5], 0.625 + 0.2, 1e-9);
  EXPECT_NEAR(p.makespan_s, 17 * 0.125 + 0.2, 1e-9);
}

TEST_F(PlannerTest, ModeledTransfersUseTheNetworkModel) {
  // Re-modeling replaces the recorded 0.1 s transfer with the Gemini
  // model's cost for the task's input bytes on an idle link.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 1 << 20, 0.0, 0.0, 0.1, 0.2, 0.4);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;

  Scenario modeled;
  modeled.model_network = true;
  const Prediction p = planner::replay(w, modeled);
  ASSERT_TRUE(p.ok) << p.error;
  const double expected =
      NetworkModel(modeled.net).transfer_seconds(1 << 20, 1);
  EXPECT_NEAR(p.phase_totals[idx(obs::TaskPhase::kTransfer)], expected,
              1e-12);
  // compute + drain still replay at recorded cost.
  EXPECT_NEAR(p.makespan_s, expected + 0.2 + 0.1, 1e-9);

  // A codec ratio shrinks the modeled wire bytes.
  Scenario quant = modeled;
  quant.codec_ratio = 0.25;
  const Prediction pq = planner::replay(w, quant);
  ASSERT_TRUE(pq.ok) << pq.error;
  EXPECT_NEAR(pq.phase_totals[idx(obs::TaskPhase::kTransfer)],
              NetworkModel(quant.net).transfer_seconds((1 << 20) / 4, 1),
              1e-12);
}

TEST_F(PlannerTest, PredictedPartitionTelescopesExactly) {
  // The same conservation property attribution enforces on recordings
  // holds for predictions by construction: phase totals sum to the
  // total turnaround.
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.1, 0.1, 0.3);
  add_task(&log, 1, 0, 2, 64, 0.05, 0.3, 0.1, 0.1, 0.6);
  add_task(&log, 2, 0, 3, 64, 0.10, 0.6, 0.1, 0.1, 0.9);
  const Workload w = workload_from(log);
  ASSERT_TRUE(w.ok) << w.error;
  Scenario sc;
  sc.credits = 1;  // force admission waits too
  const Prediction p = planner::replay(w, sc);
  ASSERT_TRUE(p.ok) << p.error;
  double sum = 0.0;
  for (int i = 0; i < obs::kPhaseCount; ++i) sum += p.phase_totals[i];
  EXPECT_NEAR(sum, p.total_turnaround_s, 1e-9);
  EXPECT_GT(p.phase_totals[idx(obs::TaskPhase::kAdmit)], 0.0);
}

// ------------------------------------------------------- fail closed

TEST_F(PlannerTest, DroppedRecordsFailClosed) {
  std::vector<obs::EventRecord> log;
  add_task(&log, 0, 0, 1, 64, 0.0, 0.0, 0.0, 0.1, 0.1);
  const Workload w =
      planner::extract_workload(obs::attribute_events(log, /*dropped=*/3));
  EXPECT_FALSE(w.ok);
  EXPECT_NE(w.error.find("dropped"), std::string::npos) << w.error;
  // Replay and calibration inherit the refusal.
  EXPECT_FALSE(planner::replay(w, Scenario{}).ok);
  EXPECT_FALSE(planner::calibrate(w).ok);
}

TEST_F(PlannerTest, DroppedSpillFileFailsClosed) {
  // A real ring overflow: capacity 8, more lifecycle records than fit.
  obs::set_events_capacity(8);
  obs::reset_events();
  for (int64_t id = 1; id <= 16; ++id) {
    obs::record_event(obs::EventKind::kTaskSubmit, 0, 0, id, 64, 0.1);
    obs::record_event(obs::EventKind::kTaskComplete, 0, 0, id, 1, 0.2);
  }
  ASSERT_GT(obs::dropped_event_records(), 0u);
  const std::string path = temp_path("planner_dropped.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const Workload w = planner::extract_workload_file(path);
  EXPECT_FALSE(w.ok);
  EXPECT_NE(w.error.find("dropped"), std::string::npos) << w.error;
  std::remove(path.c_str());
}

// ------------------------------------------- scenario + sweep grammar

TEST_F(PlannerTest, ScenarioSpecParsesKeysSuffixesAndDomains) {
  Scenario sc;
  std::string error;
  ASSERT_TRUE(planner::parse_scenario(
      "buckets=4,credits=8,queue-depth=16,divert=degrade,policy=fair",
      &sc, &error))
      << error;
  EXPECT_EQ(sc.buckets, 4);
  EXPECT_EQ(sc.credits, 8);
  EXPECT_EQ(sc.queue_depth, 16);
  EXPECT_EQ(sc.divert, DivertMode::kDegrade);
  EXPECT_EQ(sc.policy, QueuePolicy::kFair);
  EXPECT_FALSE(sc.model_network);

  // Network keys accept binary k/m/g suffixes (the overload-spec
  // convention) and imply xfer=modeled.
  ASSERT_TRUE(planner::parse_scenario("bte-bw=6g,smsg-max=4k", &sc, &error))
      << error;
  EXPECT_TRUE(sc.model_network);
  EXPECT_NEAR(sc.net.bte_bandwidth_Bps, 6.0 * 1024 * 1024 * 1024, 1e-3);
  EXPECT_EQ(sc.net.smsg_max_bytes, 4096u);

  // Named codecs map to their nominal ratios.
  ASSERT_TRUE(planner::parse_scenario("codec=quantize", &sc, &error));
  EXPECT_NEAR(sc.codec_ratio, planner::nominal_codec_ratio("quantize"),
              1e-12);

  Scenario bad;
  EXPECT_FALSE(planner::parse_scenario("buckets=0", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("buckets=4294967297", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("credits=2.5", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("queue-depth=1e300", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("nodes=inf", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("bogus=1", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("divert=nowhere", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("buckets", &bad, &error));
  EXPECT_FALSE(planner::parse_scenario("codec=zstd", &bad, &error));
}

TEST_F(PlannerTest, SweepGrammarListsRangesAndSteps) {
  SweepSpec s;
  std::string error;
  ASSERT_TRUE(planner::parse_sweep("buckets=1..4", &s, &error)) << error;
  EXPECT_EQ(s.key, "buckets");
  EXPECT_EQ(s.values, (std::vector<std::string>{"1", "2", "3", "4"}));

  ASSERT_TRUE(planner::parse_sweep("arrival-scale=1..2:0.5", &s, &error))
      << error;
  EXPECT_EQ(s.values, (std::vector<std::string>{"1", "1.5", "2"}));

  ASSERT_TRUE(planner::parse_sweep("codec=raw,delta,quantize", &s, &error))
      << error;
  EXPECT_EQ(s.values,
            (std::vector<std::string>{"raw", "delta", "quantize"}));

  EXPECT_FALSE(planner::parse_sweep("buckets", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=4..1", &s, &error));
  EXPECT_FALSE(planner::parse_sweep("buckets=1..4:0", &s, &error));
}

TEST_F(PlannerTest, SweepExpansionCrossesAxesRowMajor) {
  Scenario base;
  std::vector<SweepSpec> axes(2);
  std::string error;
  ASSERT_TRUE(planner::parse_sweep("buckets=1..2", &axes[0], &error));
  ASSERT_TRUE(planner::parse_sweep("credits=4,8", &axes[1], &error));
  std::vector<Scenario> grid;
  ASSERT_TRUE(planner::expand_sweeps(base, axes, &grid, &error)) << error;
  ASSERT_EQ(grid.size(), 4u);
  EXPECT_EQ(grid[0].label, "buckets=1;credits=4");
  EXPECT_EQ(grid[1].label, "buckets=1;credits=8");
  EXPECT_EQ(grid[2].label, "buckets=2;credits=4");
  EXPECT_EQ(grid[3].label, "buckets=2;credits=8");
  EXPECT_EQ(grid[3].buckets, 2);
  EXPECT_EQ(grid[3].credits, 8);

  // Swept values still pass scenario domain checks.
  ASSERT_TRUE(planner::parse_sweep("buckets=0..1", &axes[0], &error));
  EXPECT_FALSE(planner::expand_sweeps(base, {axes[0]}, &grid, &error));
}

}  // namespace
}  // namespace hia
