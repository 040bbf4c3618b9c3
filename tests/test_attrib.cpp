// Tests for timeline attribution (obs/attrib.hpp): hand-built synthetic
// event logs whose phase partition and critical path are known by
// construction — an all-phases single task, bucket-serialized tasks,
// step-barrier and credit-dependency chains — plus the fail-closed
// contract: a log with dropped records must refuse attribution, and a
// partition that cannot telescope must be flagged, never fudged.
#include <gtest/gtest.h>

#include <unistd.h>

#include <string>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/events.hpp"

namespace hia {
namespace {

class AttribTest : public ::testing::Test {
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

// ------------------------------------------------------ phase partition

TEST_F(AttribTest, AllSixPhasesPartitionExactly) {
  using K = obs::EventKind;
  // One task through every wait state: 0.5 s admission wait, first
  // attempt on bucket 0 fails and retries, second attempt on bucket 1
  // completes. Every number below is chosen by hand.
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 0, /*step=*/3, 1, 4096, 1.0));
  log.push_back(ev(K::kCreditGrant, 0, -1, 1, 500000, 1.0));   // 0.5 s
  log.push_back(ev(K::kTaskAssign, 0, 0, 1, 1, 1.2));          // queue 0.2
  log.push_back(ev(K::kTaskXfer, 0, 0, 1, 100000, 1.6));       // 0.1 s
  log.push_back(ev(K::kTaskWork, 0, 0, 1, 200000, 1.6));       // 0.2 s
  log.push_back(ev(K::kTaskRetry, 0, 0, 1, 1, 1.6));      // occ [1.2,1.6]
  log.push_back(ev(K::kBackoffRelease, 0, -1, 1, 2, 1.85));    // 0.25 s
  log.push_back(ev(K::kTaskAssign, 0, 1, 1, 2, 1.9));          // queue 0.05
  log.push_back(ev(K::kTaskXfer, 0, 1, 1, 50000, 2.3));        // 0.05 s
  log.push_back(ev(K::kTaskWork, 0, 1, 1, 250000, 2.3));       // 0.25 s
  log.push_back(ev(K::kTaskComplete, 0, 1, 1, 2, 2.3));   // occ [1.9,2.3]

  const obs::Attribution a = obs::attribute_events(log, 0);
  ASSERT_TRUE(a.ok) << a.error;
  ASSERT_TRUE(a.conserved) << a.error;
  ASSERT_EQ(a.tasks.size(), 1u);
  const obs::TaskTimeline& t = a.tasks.front();
  EXPECT_TRUE(t.conserved) << t.error;
  EXPECT_EQ(t.tenant, 0);
  EXPECT_EQ(t.step, 3);
  EXPECT_EQ(t.bucket, 1);
  EXPECT_EQ(t.attempts, 2);
  EXPECT_EQ(t.terminal_kind,
            static_cast<int32_t>(obs::EventKind::kTaskComplete));
  EXPECT_NEAR(t.phases[idx(obs::TaskPhase::kAdmit)], 0.5, 1e-9);
  EXPECT_NEAR(t.phases[idx(obs::TaskPhase::kQueue)], 0.25, 1e-9);
  EXPECT_NEAR(t.phases[idx(obs::TaskPhase::kBackoff)], 0.25, 1e-9);
  EXPECT_NEAR(t.phases[idx(obs::TaskPhase::kTransfer)], 0.15, 1e-9);
  EXPECT_NEAR(t.phases[idx(obs::TaskPhase::kCompute)], 0.45, 1e-9);
  EXPECT_NEAR(t.phases[idx(obs::TaskPhase::kDrain)], 0.2, 1e-9);
  // The property the layer exists for: the partition telescopes exactly.
  double sum = 0.0;
  for (int p = 0; p < obs::kPhaseCount; ++p) sum += t.phases[p];
  EXPECT_NEAR(sum, t.turnaround_s, 1e-9);
  EXPECT_NEAR(t.turnaround_s, 1.8, 1e-9);
  // Makespan runs from the start of the admission wait to the terminal.
  EXPECT_NEAR(a.makespan_s, 2.3 - 0.5, 1e-9);
}

TEST_F(AttribTest, ShedFromQueueIsAllQueueWait) {
  using K = obs::EventKind;
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 1, 0, 7, 128, 0.0));
  log.push_back(ev(K::kTaskShed, 1, -1, 7, 1, 0.75));
  const obs::Attribution a = obs::attribute_events(log, 0);
  ASSERT_TRUE(a.conserved) << a.error;
  ASSERT_EQ(a.tasks.size(), 1u);
  EXPECT_NEAR(a.tasks[0].phases[idx(obs::TaskPhase::kQueue)], 0.75, 1e-9);
  EXPECT_NEAR(a.tasks[0].turnaround_s, 0.75, 1e-9);
}

// -------------------------------------------------------- fail closed

TEST_F(AttribTest, DroppedRecordsFailClosed) {
  using K = obs::EventKind;
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 0, 0, 1, 64, 0.0));
  log.push_back(ev(K::kTaskComplete, 0, 0, 1, 1, 1.0));
  const obs::Attribution a = obs::attribute_events(log, /*dropped=*/3);
  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(a.conserved);
  EXPECT_NE(a.error.find("dropped"), std::string::npos) << a.error;
  EXPECT_TRUE(a.tasks.empty());
  // And the critical path refuses to build on an unverifiable stream.
  EXPECT_FALSE(obs::extract_critical_path(a).ok);
}

TEST_F(AttribTest, DroppedSpillFileFailsClosed) {
  // A real ring overflow: capacity 8, more lifecycle records than fit.
  obs::set_events_capacity(8);
  obs::reset_events();
  for (int64_t id = 1; id <= 16; ++id) {
    obs::record_event(obs::EventKind::kTaskSubmit, 0, 0, id, 64, 0.1);
    obs::record_event(obs::EventKind::kTaskComplete, 0, 0, id, 1, 0.2);
  }
  ASSERT_GT(obs::dropped_event_records(), 0u);
  const std::string path = temp_path("attrib_dropped.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const obs::Attribution a = obs::attribute_events_file(path);
  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(a.conserved);
  EXPECT_NE(a.error.find("dropped"), std::string::npos) << a.error;
  std::remove(path.c_str());
}

TEST_F(AttribTest, OverfullOccupancyIsFlaggedNotFudged) {
  using K = obs::EventKind;
  // 2.0 s of claimed work inside a 1.0 s occupancy window: drain would
  // have to be negative, so the partition must fail, not clamp.
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 0, 0, 1, 64, 0.0));
  log.push_back(ev(K::kTaskAssign, 0, 0, 1, 1, 0.0));
  log.push_back(ev(K::kTaskWork, 0, 0, 1, 2000000, 1.0));
  log.push_back(ev(K::kTaskComplete, 0, 0, 1, 1, 1.0));
  const obs::Attribution a = obs::attribute_events(log, 0);
  EXPECT_FALSE(a.conserved);
  ASSERT_EQ(a.tasks.size(), 1u);
  EXPECT_FALSE(a.tasks[0].conserved);
  EXPECT_FALSE(a.tasks[0].error.empty());
}

TEST_F(AttribTest, MissingTerminalIsStructuralFailure) {
  using K = obs::EventKind;
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 0, 0, 1, 64, 0.0));
  log.push_back(ev(K::kTaskAssign, 0, 0, 1, 1, 0.5));
  const obs::Attribution a = obs::attribute_events(log, 0);
  EXPECT_FALSE(a.ok);
  EXPECT_FALSE(a.conserved);
  EXPECT_NE(a.error.find("terminal"), std::string::npos) << a.error;
}

// ------------------------------------------------------- critical path

TEST_F(AttribTest, BucketSerializationExtendsTheCriticalPath) {
  using K = obs::EventKind;
  // Two tasks on one bucket. Task 2 submits at 0.2 and waits for the
  // bucket, so its own chain is 1.3 s — but the *causal* chain runs
  // through task 1's occupancy (1.0 s) into task 2's compute (0.5 s):
  // the unique critical path is 1.5 s, via the bucket-serialization edge.
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 0, 0, 1, 64, 0.0));
  log.push_back(ev(K::kTaskAssign, 0, 0, 1, 1, 0.0));
  log.push_back(ev(K::kTaskWork, 0, 0, 1, 1000000, 1.0));
  log.push_back(ev(K::kTaskComplete, 0, 0, 1, 1, 1.0));
  log.push_back(ev(K::kTaskSubmit, 0, 0, 2, 64, 0.2));
  log.push_back(ev(K::kTaskAssign, 0, 0, 2, 1, 1.0));
  log.push_back(ev(K::kTaskWork, 0, 0, 2, 500000, 1.5));
  log.push_back(ev(K::kTaskComplete, 0, 0, 2, 1, 1.5));

  const obs::Attribution a = obs::attribute_events(log, 0);
  ASSERT_TRUE(a.conserved) << a.error;
  const obs::CriticalPath cp = obs::extract_critical_path(a);
  ASSERT_TRUE(cp.ok) << cp.error;
  EXPECT_NEAR(cp.length_s, 1.5, 1e-9);
  EXPECT_NEAR(cp.longest_task_chain_s, 1.3, 1e-9);
  ASSERT_EQ(cp.path.size(), 2u);
  EXPECT_EQ(cp.path[0].task_id, 1u);
  EXPECT_EQ(cp.path[1].task_id, 2u);
  EXPECT_NEAR(cp.phase_on_path[idx(obs::TaskPhase::kCompute)], 1.5, 1e-9);
  // Structural bounds: never longer than the makespan, never shorter
  // than the longest single-task chain.
  EXPECT_LE(cp.length_s, a.makespan_s + 1e-9);
  EXPECT_GE(cp.length_s, cp.longest_task_chain_s - 1e-9);
}

TEST_F(AttribTest, StepBarrierChainsAcrossSteps) {
  using K = obs::EventKind;
  // Step 0's task finishes at 0.4, step 1's starts at 0.5 on another
  // bucket: no bucket edge, but the producer's step barrier links them.
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 0, /*step=*/0, 1, 64, 0.0));
  log.push_back(ev(K::kTaskAssign, 0, 0, 1, 1, 0.0));
  log.push_back(ev(K::kTaskWork, 0, 0, 1, 400000, 0.4));
  log.push_back(ev(K::kTaskComplete, 0, 0, 1, 1, 0.4));
  log.push_back(ev(K::kTaskSubmit, 0, /*step=*/1, 2, 64, 0.5));
  log.push_back(ev(K::kTaskAssign, 0, 1, 2, 1, 0.5));
  log.push_back(ev(K::kTaskWork, 0, 1, 2, 400000, 0.9));
  log.push_back(ev(K::kTaskComplete, 0, 1, 2, 1, 0.9));

  const obs::Attribution a = obs::attribute_events(log, 0);
  ASSERT_TRUE(a.conserved) << a.error;
  const obs::CriticalPath cp = obs::extract_critical_path(a);
  ASSERT_TRUE(cp.ok) << cp.error;
  // 0.4 + 0.4 across the barrier: longer than either task alone (0.4),
  // shorter than the makespan (0.9, which includes the 0.1 s gap).
  EXPECT_NEAR(cp.length_s, 0.8, 1e-9);
  EXPECT_NEAR(cp.longest_task_chain_s, 0.4, 1e-9);
  EXPECT_NEAR(a.makespan_s, 0.9, 1e-9);
  ASSERT_EQ(cp.path.size(), 2u);
  EXPECT_EQ(cp.path[0].task_id, 1u);
  EXPECT_EQ(cp.path[1].task_id, 2u);
}

TEST_F(AttribTest, CreditDependencyChainsThroughAdmissionWait) {
  using K = obs::EventKind;
  // Task 2's 0.3 s admission wait begins at 1.1, right after task 1's
  // terminal at 1.0 — the credit edge chains them: 1.0 + 0.6 = 1.6 s.
  // Same step and different buckets, so no other edge applies.
  std::vector<obs::EventRecord> log;
  log.push_back(ev(K::kTaskSubmit, 0, 0, 1, 64, 0.0));
  log.push_back(ev(K::kTaskAssign, 0, 0, 1, 1, 0.0));
  log.push_back(ev(K::kTaskWork, 0, 0, 1, 1000000, 1.0));
  log.push_back(ev(K::kTaskComplete, 0, 0, 1, 1, 1.0));
  log.push_back(ev(K::kTaskSubmit, 0, 0, 2, 64, 1.4));
  log.push_back(ev(K::kCreditGrant, 0, -1, 2, 300000, 1.4));
  log.push_back(ev(K::kTaskAssign, 0, 1, 2, 1, 1.5));
  log.push_back(ev(K::kTaskWork, 0, 1, 2, 200000, 1.7));
  log.push_back(ev(K::kTaskComplete, 0, 1, 2, 1, 1.7));

  const obs::Attribution a = obs::attribute_events(log, 0);
  ASSERT_TRUE(a.conserved) << a.error;
  const obs::CriticalPath cp = obs::extract_critical_path(a);
  ASSERT_TRUE(cp.ok) << cp.error;
  EXPECT_NEAR(cp.length_s, 1.6, 1e-9);
  EXPECT_NEAR(cp.longest_task_chain_s, 1.0, 1e-9);
  ASSERT_GE(cp.path.size(), 2u);
  EXPECT_EQ(cp.path.front().task_id, 1u);
  EXPECT_EQ(cp.path.back().task_id, 2u);
  // The admission-wait segment itself sits on the path.
  EXPECT_NEAR(cp.phase_on_path[idx(obs::TaskPhase::kAdmit)], 0.3, 1e-9);
}

TEST_F(AttribTest, TopChainsEndInDistinctTasks) {
  using K = obs::EventKind;
  std::vector<obs::EventRecord> log;
  for (int64_t id = 1; id <= 3; ++id) {
    const double base = 0.1 * static_cast<double>(id);
    log.push_back(ev(K::kTaskSubmit, 0, 0, id, 64, base));
    log.push_back(ev(K::kTaskAssign, 0, static_cast<int>(id), id, 1, base));
    log.push_back(ev(K::kTaskWork, 0, static_cast<int>(id), id,
                     100000 * id, base + 0.1 * static_cast<double>(id)));
    log.push_back(ev(K::kTaskComplete, 0, static_cast<int>(id), id, 1,
                     base + 0.1 * static_cast<double>(id)));
  }
  const obs::Attribution a = obs::attribute_events(log, 0);
  ASSERT_TRUE(a.conserved) << a.error;
  const obs::CriticalPath cp = obs::extract_critical_path(a, /*top_k=*/3);
  ASSERT_TRUE(cp.ok) << cp.error;
  ASSERT_EQ(cp.top_chains.size(), 3u);
  EXPECT_EQ(cp.top_chains[0].back().task_id, 3u);  // longest first
  // Chains are ranked longest-first and end in three distinct tasks.
  double prev = 1e30;
  std::vector<uint64_t> enders;
  for (const auto& chain : cp.top_chains) {
    double len = 0.0;
    for (const auto& n : chain) len += n.end_vt - n.begin_vt;
    EXPECT_LE(len, prev);
    prev = len;
    enders.push_back(chain.back().task_id);
  }
  EXPECT_NE(enders[0], enders[1]);
  EXPECT_NE(enders[1], enders[2]);
  EXPECT_NE(enders[0], enders[2]);
}

// ------------------------------------------------------ file round trip

TEST_F(AttribTest, SpillRoundTripAttributesConserved) {
  using K = obs::EventKind;
  obs::record_event(K::kTaskSubmit, 0, 0, 1, 64, 0.0);
  obs::record_event(K::kTaskAssign, 0, 0, 1, 1, 0.25);
  obs::record_event(K::kTaskXfer, 0, 0, 1, 100000, 1.0);
  obs::record_event(K::kTaskWork, 0, 0, 1, 500000, 1.0);
  obs::record_event(K::kTaskComplete, 0, 0, 1, 1, 1.0);
  const std::string path = temp_path("attrib_roundtrip.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const obs::Attribution a = obs::attribute_events_file(path);
  ASSERT_TRUE(a.conserved) << a.error;
  ASSERT_EQ(a.tasks.size(), 1u);
  EXPECT_NEAR(a.tasks[0].phases[idx(obs::TaskPhase::kQueue)], 0.25, 1e-9);
  EXPECT_NEAR(a.tasks[0].phases[idx(obs::TaskPhase::kTransfer)], 0.1, 1e-9);
  EXPECT_NEAR(a.tasks[0].phases[idx(obs::TaskPhase::kCompute)], 0.5, 1e-9);
  EXPECT_NEAR(a.tasks[0].phases[idx(obs::TaskPhase::kDrain)], 0.15, 1e-9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hia
