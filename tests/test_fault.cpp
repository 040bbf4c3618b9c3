// Tests for the fault-injection/resilience subsystem: spec parsing,
// deterministic keyed draws, backoff bounds, CRC-guarded frame
// retransmission, the retry -> degrade/shed state machine, scripted bucket
// kills and crashes, concurrent injection (TSan-clean), and the
// resilience ledger's field list and console block.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "core/metrics.hpp"
#include "core/report.hpp"
#include "obs/counters.hpp"
#include "runtime/fault.hpp"
#include "staging/scheduler.hpp"
#include "transport/dart.hpp"
#include "util/crc32.hpp"
#include "util/log.hpp"

namespace hia {
namespace {

// ---- Spec parsing ----

// The scripted events of one kind, in timeline order.
std::vector<ScriptedEvent> events_of(const FaultPlanConfig& cfg,
                                     ScriptedEvent::Kind kind) {
  std::vector<ScriptedEvent> out;
  for (const ScriptedEvent& e : cfg.scripted) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

TEST(FaultSpec, ParsesEveryDirective) {
  const FaultPlanConfig cfg = FaultPlan::parse_spec(
      "drop=0.1,corrupt=0.2,delay=0.3:0.004,task-fail=0.5:0.006,"
      "kill-bucket=2@9,slow-bucket=1:3.5,crash-bucket=3@7,"
      "crash-server=1@4,attempts=6,backoff=0.001:0.05,shed,seed=42");
  EXPECT_DOUBLE_EQ(cfg.frame_drop_prob, 0.1);
  EXPECT_DOUBLE_EQ(cfg.frame_corrupt_prob, 0.2);
  EXPECT_DOUBLE_EQ(cfg.frame_delay_prob, 0.3);
  EXPECT_DOUBLE_EQ(cfg.frame_delay_s, 0.004);
  EXPECT_DOUBLE_EQ(cfg.task_fail_prob, 0.5);
  EXPECT_DOUBLE_EQ(cfg.retry.task_timeout_s, 0.006);
  const auto kills = events_of(cfg, ScriptedEvent::Kind::kKillBucket);
  ASSERT_EQ(kills.size(), 1u);
  EXPECT_EQ(kills[0].target, 2);
  EXPECT_EQ(kills[0].step, 9);
  ASSERT_EQ(cfg.bucket_slowdowns.size(), 1u);
  EXPECT_EQ(cfg.bucket_slowdowns[0].bucket, 1);
  EXPECT_DOUBLE_EQ(cfg.bucket_slowdowns[0].factor, 3.5);
  const auto crashes = events_of(cfg, ScriptedEvent::Kind::kCrashBucket);
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].target, 3);
  EXPECT_EQ(crashes[0].step, 7);
  const auto servers = events_of(cfg, ScriptedEvent::Kind::kCrashServer);
  ASSERT_EQ(servers.size(), 1u);
  EXPECT_EQ(servers[0].target, 1);
  EXPECT_EQ(servers[0].step, 4);
  EXPECT_EQ(cfg.retry.max_task_attempts, 6);
  EXPECT_DOUBLE_EQ(cfg.retry.backoff_base_s, 0.001);
  EXPECT_DOUBLE_EQ(cfg.retry.backoff_cap_s, 0.05);
  EXPECT_FALSE(cfg.retry.degrade_to_insitu);
  EXPECT_EQ(cfg.seed, 42u);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse_spec("drop=1.5"), Error);     // prob > 1
  EXPECT_THROW(FaultPlan::parse_spec("drop=nope"), Error);    // not a number
  EXPECT_THROW(FaultPlan::parse_spec("kill-bucket=2"), Error);  // no @step
  EXPECT_THROW(FaultPlan::parse_spec("crash-bucket=2"), Error);  // no @step
  EXPECT_THROW(FaultPlan::parse_spec("crash-server=0"), Error);  // no @step
  EXPECT_THROW(FaultPlan::parse_spec("slow-bucket=1:0.5"), Error);  // < 1x
  EXPECT_THROW(FaultPlan::parse_spec("backoff=0.01:0.001"), Error);  // cap<base
  EXPECT_THROW(FaultPlan::parse_spec("attempts=0"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("bogus=1"), Error);
  // Integer fields: whole, non-negative and within their type.
  EXPECT_THROW(FaultPlan::parse_spec("kill-bucket=1e300@1"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("kill-bucket=1.5@1"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("crash-server=0@-1"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("overload=-5@1"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("attempts=4294967297"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("seed=nan"), Error);
  EXPECT_NO_THROW(FaultPlan::parse_spec(""));  // empty = all defaults
}

// ---- Deterministic keyed draws ----

TEST(FaultPlanDraws, SameSeedSameDecisions) {
  const FaultPlanConfig cfg =
      FaultPlan::parse_spec("drop=0.3,corrupt=0.3,delay=0.3,task-fail=0.3");
  const FaultPlan a(cfg);
  const FaultPlan b(cfg);
  for (uint64_t key = 1; key <= 500; ++key) {
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const auto fa = a.frame_fault("sim-2", key, attempt);
      const auto fb = b.frame_fault("sim-2", key, attempt);
      EXPECT_EQ(fa.drop, fb.drop);
      EXPECT_EQ(fa.corrupt, fb.corrupt);
      EXPECT_EQ(fa.corrupt_byte, fb.corrupt_byte);
      EXPECT_DOUBLE_EQ(fa.delay_s, fb.delay_s);
      EXPECT_EQ(a.task_fails(key, attempt), b.task_fails(key, attempt));
      EXPECT_DOUBLE_EQ(a.backoff_seconds(key, attempt),
                       b.backoff_seconds(key, attempt));
    }
  }
}

TEST(FaultPlanDraws, DifferentSeedsDiverge) {
  FaultPlanConfig cfg = FaultPlan::parse_spec("task-fail=0.5");
  const FaultPlan a(cfg);
  cfg.seed = 2;
  const FaultPlan b(cfg);
  int differing = 0;
  for (uint64_t key = 1; key <= 200; ++key) {
    if (a.task_fails(key, 1) != b.task_fails(key, 1)) ++differing;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlanDraws, ProbabilitiesAreHonoredRoughly) {
  const FaultPlan plan(FaultPlan::parse_spec("task-fail=0.2"));
  int fails = 0;
  constexpr int kTrials = 5000;
  for (uint64_t key = 1; key <= kTrials; ++key) {
    if (plan.task_fails(key, 1)) ++fails;
  }
  const double rate = static_cast<double>(fails) / kTrials;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(FaultPlanDraws, BackoffStaysWithinBounds) {
  const FaultPlan plan(
      FaultPlan::parse_spec("task-fail=1,backoff=0.002:0.040"));
  for (uint64_t task = 1; task <= 50; ++task) {
    for (int attempt = 1; attempt <= 6; ++attempt) {
      const double s = plan.backoff_seconds(task, attempt);
      EXPECT_GE(s, 0.002);
      EXPECT_LE(s, 0.040);
    }
  }
}

// ---- CRC + frame retransmission on the Dart wire ----

TEST(Crc32, KnownVector) {
  // The standard IEEE 802.3 check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xcbf43926u);
}

TEST(FaultDart, DroppedFramesExhaustAttemptsAndThrow) {
  const FaultPlan plan(FaultPlan::parse_spec("drop=1"));
  NetworkModel net;
  Dart::Options opts;
  opts.faults = &plan;
  Dart dart(net, opts);
  const int src = dart.register_node("src");
  const int dst = dart.register_node("dst");
  const DartHandle h = dart.put_doubles(src, {1.0, 2.0, 3.0});
  EXPECT_THROW(dart.get(dst, h), Error);
  const DartCounters counters = dart.counters();
  // Every attempt but the last counted as a retry; the final one threw.
  EXPECT_EQ(counters.get_retries,
            static_cast<size_t>(plan.retry().max_frame_attempts - 1));
  EXPECT_GT(plan.stats().frames_dropped, 0u);
}

TEST(FaultDart, CrcCatchesCorruptionAndRetransmits) {
  const FaultPlan plan(FaultPlan::parse_spec("corrupt=0.5,seed=3"));
  NetworkModel net;
  Dart::Options opts;
  opts.faults = &plan;
  Dart dart(net, opts);
  const int src = dart.register_node("src");
  const int dst = dart.register_node("dst");

  std::vector<double> payload(256);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<double>(i) * 0.5 - 3.0;
  }
  int retransmitted = 0;
  for (int i = 0; i < 20; ++i) {
    const DartHandle h = dart.put_doubles(src, payload);
    TransferStats stats;
    // Corrupted attempts are caught by the CRC and retransmitted; the
    // delivered payload is always byte-exact.
    const std::vector<double> out = dart.get_doubles(dst, h, &stats);
    EXPECT_EQ(out, payload);
    if (stats.retries > 0) ++retransmitted;
    dart.release(h);
  }
  EXPECT_GT(retransmitted, 0);
  const DartCounters counters = dart.counters();
  EXPECT_GT(counters.crc_failures, 0u);
  EXPECT_GT(counters.recovered_bytes, 0u);
  EXPECT_EQ(counters.crc_failures, plan.stats().frames_corrupted);
}

TEST(FaultDart, VerdictsFollowEachOwnersPutsNotTheInterleaving) {
  // Rank threads register and put in whatever order they reach the
  // staging area, so node and handle ids differ from run to run; a
  // region's verdicts must not. Every region carries the same bytes: equal
  // contents must not share a verdict either.
  const FaultPlan plan(FaultPlan::parse_spec("drop=0.3,corrupt=0.3,seed=4"));
  constexpr int kPerOwner = 12;
  const std::vector<double> payload(64, 0.25);
  // Retries of each owner's puts, in put order: owners "a" and "b"
  // registered in either order, their puts alternating or "b"'s first.
  const auto retries = [&](bool reversed) {
    NetworkModel net;
    Dart dart(net, {.faults = &plan});
    const int dst = dart.register_node("dst");
    const int first = dart.register_node(reversed ? "b" : "a");
    const int second = dart.register_node(reversed ? "a" : "b");
    const int a = reversed ? second : first;
    const int b = reversed ? first : second;
    std::vector<DartHandle> of_a, of_b;
    for (int i = 0; i < kPerOwner; ++i) {
      if (reversed) {
        of_b.push_back(dart.put_doubles(b, payload));
      } else {
        of_a.push_back(dart.put_doubles(a, payload));
        of_b.push_back(dart.put_doubles(b, payload));
      }
    }
    if (reversed) {
      for (int i = 0; i < kPerOwner; ++i) {
        of_a.push_back(dart.put_doubles(a, payload));
      }
    }
    std::vector<int> out;
    for (const auto* handles : {&of_a, &of_b}) {
      for (const DartHandle& h : *handles) {
        TransferStats stats;
        EXPECT_EQ(dart.get_doubles(dst, h, &stats), payload);
        out.push_back(stats.retries);
      }
    }
    return out;
  };
  const std::vector<int> forward = retries(false);
  EXPECT_EQ(retries(true), forward);
  const auto faulted = std::count_if(forward.begin(), forward.end(),
                                     [](int n) { return n > 0; });
  EXPECT_GT(faulted, 0);
  EXPECT_LT(faulted, 2 * kPerOwner);
}

TEST(FaultDart, NullPlanLeavesWireUntouched) {
  NetworkModel net;
  Dart dart(net);
  const int src = dart.register_node("src");
  const int dst = dart.register_node("dst");
  const DartHandle h = dart.put_doubles(src, {4.0, 5.0});
  TransferStats stats;
  EXPECT_EQ(dart.get_doubles(dst, h, &stats), (std::vector<double>{4.0, 5.0}));
  EXPECT_EQ(stats.retries, 0);
  EXPECT_DOUBLE_EQ(stats.injected_delay_s, 0.0);
  EXPECT_EQ(dart.counters().get_retries, 0u);
  // Without a plan Dart holds the off plan: nothing on the wire, one
  // task attempt before degrading.
  EXPECT_FALSE(dart.faults().frame_faults_enabled());
  EXPECT_EQ(dart.faults().retry().max_task_attempts, 1);
}

TEST(FaultDeployment, EmptySpecIsTheOffPlanTheServiceReadsThroughDart) {
  RunConfig cfg;
  cfg.staging_servers = 1;
  cfg.staging_buckets = 1;
  StagingDeployment off(cfg);
  const FaultPlan& plan = off.dart().faults();
  EXPECT_FALSE(plan.frame_faults_enabled());
  EXPECT_TRUE(plan.config().scripted.empty());
  EXPECT_EQ(plan.retry().max_task_attempts, 1);
  // A failed bucket attempt is the task's only one: it degrades at once.
  off.staging().register_handler("work", [](TaskContext& ctx) {
    if (ctx.bucket() >= 0) throw Error("bucket-side failure");
  });
  off.staging().submit(InTransitTask{"work", 0, {}, 0});
  off.staging().drain();
  const auto records = off.staging().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, TaskOutcome::kDegraded);
  EXPECT_EQ(records[0].attempts, 1);

  cfg.faults = "drop=0.1,attempts=3,seed=11";
  StagingDeployment on(cfg);
  EXPECT_TRUE(on.dart().faults().frame_faults_enabled());
  EXPECT_EQ(on.dart().faults().retry().max_task_attempts, 3);
  EXPECT_EQ(on.dart().faults().config().seed, 11u);
}

// ---- Retry -> degrade/shed state machine ----

struct FaultedService {
  explicit FaultedService(const std::string& spec, int buckets = 2)
      : plan(FaultPlan::parse_spec(spec)), dart(net, {.faults = &plan}) {
    service = std::make_unique<StagingService>(
        dart, StagingService::Options{1, buckets});
  }
  FaultPlan plan;
  NetworkModel net;
  Dart dart;
  std::unique_ptr<StagingService> service;
};

TEST(FaultStaging, RetryThenDegradeConservesTasks) {
  FaultedService f("task-fail=1,attempts=3,backoff=0.0001:0.001");
  std::atomic<int> executions{0};
  f.service->register_handler("work", [&](TaskContext& ctx) {
    executions.fetch_add(1);
    ctx.set_result({std::byte{0x5a}});
  });
  constexpr int kTasks = 6;
  std::vector<uint64_t> ids;
  for (int t = 0; t < kTasks; ++t) {
    ids.push_back(f.service->submit(InTransitTask{"work", t, {}, 0}));
  }
  f.service->drain();

  const auto records = f.service->records();
  ASSERT_EQ(records.size(), static_cast<size_t>(kTasks));
  for (const TaskRecord& r : records) {
    EXPECT_EQ(r.outcome, TaskOutcome::kDegraded);
    EXPECT_EQ(r.attempts, 3);         // 2 failed bucket attempts + fallback
    EXPECT_EQ(r.bucket, -1);          // ran on the in-situ fallback executor
    EXPECT_GT(r.backoff_seconds, 0.0);
  }
  // The handler ran exactly once per task (on the fallback), and degraded
  // tasks still deliver their results.
  EXPECT_EQ(executions.load(), kTasks);
  for (const uint64_t id : ids) {
    EXPECT_TRUE(f.service->take_result(id).has_value());
  }
}

TEST(FaultStaging, ShedPolicyDropsLoudly) {
  const int64_t dropped_before =
      obs::counter("staging_tasks_dropped").value();
  FaultedService f("task-fail=1,attempts=2,backoff=0.0001:0.001,shed");
  std::atomic<int> executions{0};
  f.service->register_handler("work",
                              [&](TaskContext&) { executions.fetch_add(1); });
  constexpr int kTasks = 4;
  for (int t = 0; t < kTasks; ++t) {
    f.service->submit(InTransitTask{"work", t, {}, 0});
  }
  f.service->drain();

  const auto records = f.service->records();
  ASSERT_EQ(records.size(), static_cast<size_t>(kTasks));
  for (const TaskRecord& r : records) {
    EXPECT_EQ(r.outcome, TaskOutcome::kShed);
    EXPECT_EQ(r.attempts, 2);
  }
  EXPECT_EQ(executions.load(), 0);  // shed work never runs
  EXPECT_EQ(obs::counter("staging_tasks_dropped").value() - dropped_before,
            kTasks);
}

TEST(FaultStaging, HandlerExceptionIsRetried) {
  FaultedService f("attempts=4,backoff=0.0001:0.001");
  std::atomic<int> calls{0};
  f.service->register_handler("flaky", [&](TaskContext&) {
    if (calls.fetch_add(1) < 2) throw Error("transient pull failure");
  });
  f.service->submit(InTransitTask{"flaky", 0, {}, 0});
  f.service->drain();

  const auto records = f.service->records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, TaskOutcome::kCompleted);
  EXPECT_EQ(records[0].attempts, 3);  // threw twice, succeeded third
  EXPECT_GE(records[0].bucket, 0);    // still on a real bucket
  EXPECT_EQ(calls.load(), 3);
}

TEST(FaultStaging, RetriesPreferADifferentBucket) {
  // Task 1's first attempt fails; with 2 live buckets the retry must not
  // land on the bucket that failed it.
  FaultedService f("task-fail=0.4,attempts=4,backoff=0.0001:0.001");
  std::mutex mu;
  std::map<uint64_t, std::vector<int>> buckets_used;
  f.service->register_handler("work", [&](TaskContext& ctx) {
    std::lock_guard lock(mu);
    buckets_used[ctx.task().task_id].push_back(ctx.bucket());
  });
  for (int t = 0; t < 12; ++t) {
    f.service->submit(InTransitTask{"work", t, {}, 0});
  }
  f.service->drain();

  bool any_retry = false;
  for (const TaskRecord& r : f.service->records()) {
    if (r.attempts > 1 && r.outcome == TaskOutcome::kCompleted &&
        r.last_failed_bucket >= 0) {
      any_retry = true;
      EXPECT_NE(r.bucket, r.last_failed_bucket);
    }
  }
  EXPECT_TRUE(any_retry);  // seed 1 @ 40%: some task retried and completed
}

TEST(FaultStaging, DeterministicReplayUnderFixedSeed) {
  auto run = [] {
    FaultedService f("task-fail=0.5,attempts=3,backoff=0.0001:0.001,seed=9");
    f.service->register_handler("work", [](TaskContext&) {});
    for (int t = 0; t < 10; ++t) {
      f.service->submit(InTransitTask{"work", t, {}, 0});
    }
    f.service->drain();
    // (task_id -> outcome/attempts) is the deterministic part; bucket
    // placement and timing may vary with thread interleaving.
    std::map<uint64_t, std::pair<int, int>> ledger;
    for (const TaskRecord& r : f.service->records()) {
      ledger[r.task_id] = {static_cast<int>(r.outcome), r.attempts};
    }
    return ledger;
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);
}

// ---- Scripted bucket kills ----

TEST(FaultStaging, ScriptedKillRetiresBucket) {
  FaultedService f("kill-bucket=1@5", 2);
  f.service->register_handler("work", [](TaskContext&) {});
  EXPECT_EQ(f.service->live_bucket_count(), 2);
  for (int t = 0; t < 10; ++t) {
    f.service->submit(InTransitTask{"work", t, {}, 0});
  }
  f.service->drain();

  EXPECT_EQ(f.service->live_bucket_count(), 1);
  EXPECT_EQ(f.plan.stats().buckets_killed, 1u);
  const auto records = f.service->records();
  ASSERT_EQ(records.size(), 10u);
  for (const TaskRecord& r : records) {
    EXPECT_EQ(r.outcome, TaskOutcome::kCompleted);
  }
}

TEST(FaultStaging, TotalWipeoutDegradesEverything) {
  FaultedService f("kill-bucket=0@0,kill-bucket=1@0", 2);
  f.service->register_handler("work", [](TaskContext&) {});
  for (int t = 0; t < 5; ++t) {
    f.service->submit(InTransitTask{"work", t, {}, 0});
  }
  f.service->drain();

  EXPECT_EQ(f.service->live_bucket_count(), 0);
  const auto records = f.service->records();
  ASSERT_EQ(records.size(), 5u);
  for (const TaskRecord& r : records) {
    EXPECT_EQ(r.outcome, TaskOutcome::kDegraded);
    EXPECT_EQ(r.bucket, -1);
  }
}

// ---- The scripted timeline ----

TEST(FaultStaging, KillDueOnDivertedSubmissionFires) {
  // A queue budget smaller than one task's inputs diverts the task; the
  // kill due at its step fires all the same.
  FaultPlan plan(FaultPlan::parse_spec("kill-bucket=1@3"));
  OverloadControl ctrl(OverloadConfig::parse_spec("queue-bytes=8"));
  NetworkModel net;
  Dart dart(net, {.faults = &plan, .overload = &ctrl});
  StagingService service(dart, {1, 2});
  service.register_handler("work", [](TaskContext&) {});
  const int sim = dart.register_node("sim");
  service.publish(sim, "x", 3, Box3{{0, 0, 0}, {2, 1, 1}}, {1.0, 2.0});
  service.submit_for("work", 3, {"x"});
  service.drain();

  EXPECT_EQ(service.overload_diversions(), 1u);
  EXPECT_EQ(plan.stats().buckets_killed, 1u);
  EXPECT_EQ(service.live_bucket_count(), 1);
  const auto records = service.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].outcome, TaskOutcome::kDegraded);
}

TEST(FaultStaging, RepeatedKillOfOneBucketFiresOnce) {
  FaultedService f("kill-bucket=1@2,kill-bucket=1@4", 2);
  f.service->register_handler("work", [](TaskContext&) {});
  for (int t = 0; t < 6; ++t) {
    f.service->submit(InTransitTask{"work", t, {}, 0});
  }
  f.service->drain();

  EXPECT_EQ(f.plan.stats().buckets_killed, 1u);
  EXPECT_EQ(f.service->live_bucket_count(), 1);
  EXPECT_EQ(f.service->records().size(), 6u);
}

TEST(FaultStaging, MissingTargetsWarnAndCountZero) {
  std::mutex mu;
  std::vector<std::string> lines;
  log::set_sink([&](const std::string& line) {
    std::lock_guard lock(mu);
    lines.push_back(line);
  });
  {
    FaultedService f("kill-bucket=5@0,crash-bucket=7@1,crash-server=9@1", 2);
    f.service->register_handler("work", [](TaskContext&) {});
    for (int t = 0; t < 3; ++t) {
      f.service->submit(InTransitTask{"work", t, {}, 0});
    }
    f.service->drain();

    const FaultStats stats = f.plan.stats();
    EXPECT_EQ(stats.buckets_killed, 0u);
    EXPECT_EQ(stats.buckets_crashed, 0u);
    EXPECT_EQ(stats.servers_crashed, 0u);
    EXPECT_EQ(f.service->live_bucket_count(), 2);
    for (const TaskRecord& r : f.service->records()) {
      EXPECT_EQ(r.outcome, TaskOutcome::kCompleted);
    }
  }
  log::set_sink(nullptr);
  int ignored = 0;
  for (const std::string& line : lines) {
    if (line.find("ignored") != std::string::npos) ++ignored;
  }
  EXPECT_EQ(ignored, 3);
}

TEST(FaultStaging, EventsDueAtOneStepFireInSpecOrder) {
  // Kill and crash name one bucket at one step: the first in the spec
  // takes the bucket, the second finds it dead and does nothing.
  for (const bool crash_first : {true, false}) {
    FaultedService f(crash_first ? "crash-bucket=0@2,kill-bucket=0@2"
                                 : "kill-bucket=0@2,crash-bucket=0@2",
                     2);
    f.service->register_handler("work", [](TaskContext&) {});
    for (int t = 0; t < 4; ++t) {
      f.service->submit(InTransitTask{"work", t, {}, 0});
    }
    f.service->drain();
    EXPECT_EQ(f.plan.stats().buckets_crashed, crash_first ? 1u : 0u);
    EXPECT_EQ(f.plan.stats().buckets_killed, crash_first ? 0u : 1u);
    EXPECT_EQ(f.service->records().size(), 4u);
  }
  // The timeline is sorted by step, stably: spec order breaks ties.
  const FaultPlan plan(FaultPlan::parse_spec(
      "kill-bucket=1@5,overload=1k@2,crash-server=0@5,credit-starve=1@2"));
  const auto& timeline = plan.config().scripted;
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_EQ(timeline[0].kind, ScriptedEvent::Kind::kOverload);
  EXPECT_EQ(timeline[1].kind, ScriptedEvent::Kind::kCreditStarve);
  EXPECT_EQ(timeline[2].kind, ScriptedEvent::Kind::kKillBucket);
  EXPECT_EQ(timeline[3].kind, ScriptedEvent::Kind::kCrashServer);
}

// ---- Ungraceful crashes: leases, fencing, replication ----

// Poll-with-deadline helper (the repo rule for timing-dependent asserts:
// never a bare sleep). Returns false if `pred` stayed false for 10 s.
template <typename Pred>
bool eventually(Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(FaultStaging, CrashDuringComputeReexecutesExactlyOnce) {
  // Choreography: two tasks block both buckets mid-compute; a step-1
  // submission then crashes bucket 0 under one of them. The lease on the
  // stranded task must expire, the task must re-execute on the surviving
  // bucket, and the crashed bucket's late completion must be fenced —
  // every task terminal exactly once.
  FaultedService f("crash-bucket=0@1,attempts=4,backoff=0.0001:0.001", 2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  f.service->register_handler("block", [&](TaskContext& ctx) {
    started.fetch_add(1);
    ASSERT_TRUE(eventually([&] { return release.load(); }));
    // Result encodes the executing bucket so the test can prove the
    // delivered result came from the re-execution, not the zombie.
    ctx.set_result({static_cast<std::byte>(ctx.bucket())});
  });

  const uint64_t a = f.service->submit(InTransitTask{"block", 0, {}, 0});
  const uint64_t b = f.service->submit(InTransitTask{"block", 0, {}, 0});
  // Both buckets are now provably holding one blocked task each.
  ASSERT_TRUE(eventually([&] { return started.load() == 2; }));

  const uint64_t c = f.service->submit(InTransitTask{"block", 1, {}, 0});
  EXPECT_EQ(f.service->live_bucket_count(), 1);
  EXPECT_EQ(f.plan.stats().buckets_crashed, 1u);

  // Drive the lease clock until the crashed owner's lease expires and its
  // task is reclaimed (drain() would do this too, but polling heartbeat()
  // directly keeps the expiry observable before the handlers unblock).
  ASSERT_TRUE(eventually([&] {
    f.service->heartbeat();
    return f.service->leases_expired() >= 1;
  }));
  release.store(true);
  f.service->drain();

  EXPECT_EQ(f.service->leases_expired(), 1u);
  EXPECT_EQ(f.service->tasks_reexecuted(), 1u);
  // drain() joins the crashed bucket's thread: the zombie is fenced.
  EXPECT_EQ(f.service->zombies_fenced(), 1u);

  const auto records = f.service->records();
  ASSERT_EQ(records.size(), 3u);
  std::map<uint64_t, int> terminals;  // task -> record count (exactly once)
  uint64_t reexecuted = 0;
  for (const TaskRecord& r : records) {
    EXPECT_EQ(r.outcome, TaskOutcome::kCompleted);
    terminals[r.task_id] += 1;
    if (r.attempts == 2) {
      reexecuted = r.task_id;
      // The reclaimed task finished on the surviving bucket, never the
      // crashed one.
      EXPECT_EQ(r.bucket, 1);
    } else {
      EXPECT_EQ(r.attempts, 1);
    }
  }
  for (const uint64_t id : {a, b, c}) {
    EXPECT_EQ(terminals[id], 1) << "task " << id;
  }
  ASSERT_NE(reexecuted, 0u);
  // The delivered result is the re-execution's (bucket 1), not the fenced
  // zombie's (bucket 0).
  const auto result = f.service->take_result(reexecuted);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0], std::byte{1});
}

TEST(FaultStaging, DrainReturnsAfterTheSlowedZombieIsFenced) {
  // A crashed bucket slowed 30x is still sleeping out its attempt when the
  // re-execution finishes; drain() must not return before that zombie is
  // fenced, so the crash ledger is final when the caller reads it.
  FaultedService f("slow-bucket=0:30,crash-bucket=0@1,attempts=2", 2);
  std::atomic<int> started{0};
  f.service->register_handler("work", [&](TaskContext&) {
    started.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  });
  f.service->submit(InTransitTask{"work", 0, {}, 0});
  f.service->submit(InTransitTask{"work", 0, {}, 0});
  // Both buckets hold an attempt; bucket 0's lasts ~0.3 s.
  ASSERT_TRUE(eventually([&] { return started.load() == 2; }));
  f.service->submit(InTransitTask{"work", 1, {}, 0});
  EXPECT_EQ(f.plan.stats().buckets_crashed, 1u);
  f.service->drain();

  EXPECT_EQ(f.service->leases_expired(), 1u);
  EXPECT_EQ(f.service->tasks_reexecuted(), 1u);
  EXPECT_EQ(f.service->zombies_fenced(), 1u);
  EXPECT_EQ(f.service->records().size(), 3u);
}

TEST(FaultStaging, CrashWipeoutDegradesStrandedTask) {
  // The crashed bucket was the last one: the reclaimed task cannot
  // re-execute in-transit, so it must degrade to the in-situ fallback —
  // still counted exactly once, never lost.
  FaultedService f("crash-bucket=0@1,attempts=4,backoff=0.0001:0.001", 1);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  f.service->register_handler("block", [&](TaskContext&) {
    if (started.fetch_add(1) == 0) {
      ASSERT_TRUE(eventually([&] { return release.load(); }));
    }
  });
  const uint64_t a = f.service->submit(InTransitTask{"block", 0, {}, 0});
  ASSERT_TRUE(eventually([&] { return started.load() == 1; }));
  f.service->submit(InTransitTask{"block", 1, {}, 0});
  EXPECT_EQ(f.service->live_bucket_count(), 0);
  ASSERT_TRUE(eventually([&] {
    f.service->heartbeat();
    return f.service->leases_expired() >= 1;
  }));
  release.store(true);
  f.service->drain();

  const auto records = f.service->records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(f.service->zombies_fenced(), 1u);
  for (const TaskRecord& r : records) {
    if (r.task_id == a) {
      // Reclaimed with no live bucket left: degraded, not re-executed.
      EXPECT_EQ(r.outcome, TaskOutcome::kDegraded);
      EXPECT_EQ(r.bucket, -1);
    } else {
      // Submitted after the wipeout: orphaned straight to the fallback.
      EXPECT_EQ(r.outcome, TaskOutcome::kDegraded);
    }
  }
}

TEST(FaultStaging, CrashOnLastAttemptVacatesAndDegrades) {
  // With one attempt allowed, the attempt a crash strands is also the
  // task's last: the reclaim must vacate the crashed bucket and degrade
  // the task to the in-situ fallback instead of re-executing it, and the
  // crashed bucket's late completion must still be fenced.
  FaultedService f("crash-bucket=0@1,attempts=1", 2);
  std::atomic<int> started{0};
  std::atomic<bool> release{false};
  f.service->register_handler("block", [&](TaskContext& ctx) {
    // Only bucket attempts block: the degraded run executes on the thread
    // that ticks the heartbeat, which must not wait on itself.
    if (ctx.bucket() < 0) return;
    started.fetch_add(1);
    ASSERT_TRUE(eventually([&] { return release.load(); }));
  });

  const uint64_t a = f.service->submit(InTransitTask{"block", 0, {}, 0});
  const uint64_t b = f.service->submit(InTransitTask{"block", 0, {}, 0});
  ASSERT_TRUE(eventually([&] { return started.load() == 2; }));
  const uint64_t c = f.service->submit(InTransitTask{"block", 1, {}, 0});
  EXPECT_EQ(f.service->live_bucket_count(), 1);

  ASSERT_TRUE(eventually([&] {
    f.service->heartbeat();
    return f.service->leases_expired() >= 1;
  }));
  release.store(true);
  f.service->drain();

  EXPECT_EQ(f.service->leases_expired(), 1u);
  EXPECT_EQ(f.service->tasks_reexecuted(), 0u);
  EXPECT_EQ(f.service->zombies_fenced(), 1u);

  const auto records = f.service->records();
  ASSERT_EQ(records.size(), 3u);
  std::map<uint64_t, int> terminals;
  int degraded = 0;
  for (const TaskRecord& r : records) {
    terminals[r.task_id] += 1;
    EXPECT_EQ(r.attempts, 1);
    if (r.outcome == TaskOutcome::kDegraded) {
      ++degraded;
      EXPECT_EQ(r.bucket, -1);
      EXPECT_EQ(r.last_failed_bucket, 0);  // the crashed bucket
    } else {
      EXPECT_EQ(r.outcome, TaskOutcome::kCompleted);
      EXPECT_EQ(r.bucket, 1);
    }
  }
  EXPECT_EQ(degraded, 1);
  for (const uint64_t id : {a, b, c}) {
    EXPECT_EQ(terminals[id], 1) << "task " << id;
  }
}

TEST(FaultStaging, CrashDuringStuckAttemptFencesItOnWake) {
  // Every attempt times out and occupies its bucket for 0.2 s. Bucket 0
  // crashes while its attempt sleeps; the lease (0.05 s) expires first, so
  // the heartbeat reclaims the attempt mid-sleep and the woken attempt
  // must be fenced rather than retried a second time.
  FaultedService f("task-fail=1:0.2,crash-bucket=0@1,attempts=2", 2);
  f.service->register_handler("work", [](TaskContext&) {});

  const uint64_t a = f.service->submit(InTransitTask{"work", 0, {}, 0});
  const uint64_t b = f.service->submit(InTransitTask{"work", 0, {}, 0});
  // Both buckets are now stuck in a failed first attempt.
  ASSERT_TRUE(eventually([&] { return f.plan.stats().tasks_failed == 2; }));
  // The step-1 submission fires the crash; it runs on the fallback so no
  // further attempt lengthens the drill.
  const uint64_t c = f.service->submit(InTransitTask{"work", 1, {}, 0},
                                       SubmitRoute::kFallback);
  EXPECT_EQ(f.plan.stats().buckets_crashed, 1u);

  ASSERT_TRUE(eventually([&] {
    f.service->heartbeat();
    return f.service->leases_expired() >= 1;
  }));
  f.service->drain();

  EXPECT_EQ(f.service->leases_expired(), 1u);
  EXPECT_EQ(f.service->tasks_reexecuted(), 1u);
  EXPECT_EQ(f.service->zombies_fenced(), 1u);
  // Two first attempts, then both second attempts on the surviving bucket.
  EXPECT_EQ(f.plan.stats().tasks_failed, 4u);

  const auto records = f.service->records();
  ASSERT_EQ(records.size(), 3u);
  std::map<uint64_t, int> terminals;
  for (const TaskRecord& r : records) {
    terminals[r.task_id] += 1;
    EXPECT_EQ(r.outcome, TaskOutcome::kDegraded);
    EXPECT_EQ(r.bucket, -1);
    EXPECT_EQ(r.attempts, r.task_id == c ? 1 : 2);
  }
  for (const uint64_t id : {a, b, c}) {
    EXPECT_EQ(terminals[id], 1) << "task " << id;
  }
}

TEST(FaultStaging, CrashServerDuringTransfersKeepsReplicatedObjects) {
  // Objects staged before an ungraceful server loss must stay readable
  // through every later transfer: with replicas=2 the lookups fall back
  // to the surviving copy and read-repair restores the factor.
  FaultPlan plan(FaultPlan::parse_spec("crash-server=0@2"));
  NetworkModel net;
  Dart dart(net, {.faults = &plan});
  StagingService service(dart, {.num_servers = 3, .num_buckets = 2,
                                .replicas = 2});
  constexpr long kSteps = 10;
  for (long s = 0; s < kSteps; ++s) {
    DataDescriptor d;
    d.variable = "T";
    d.step = s;
    d.box = Box3{{0, 0, 0}, {4, 4, 4}};
    service.store().put(d);
    d.variable = "P";
    service.store().put(d);
  }
  EXPECT_EQ(service.store().bytes(), 0u);  // descriptors carry no payload

  std::atomic<int> missing{0};
  service.register_handler("read", [&](TaskContext& ctx) {
    // Every step's objects must still be visible, before or after the
    // crash (the step-2 submission below fires it).
    if (service.store().query_all("T", ctx.task().step).size() != 1u ||
        service.store().query_all("P", ctx.task().step).size() != 1u) {
      missing.fetch_add(1);
    }
  });
  for (long s = 0; s < kSteps; ++s) {
    service.submit(InTransitTask{"read", s, {}, 0});
  }
  service.drain();

  EXPECT_TRUE(service.store().is_server_crashed(0));
  EXPECT_EQ(service.store().live_servers(), 2);
  EXPECT_EQ(missing.load(), 0);
  // Zero committed objects lost: every key had a live replica.
  EXPECT_EQ(service.store().objects_lost(), 0u);
  // At least one key's replica chain included the dead server, so lookups
  // actually exercised read-repair (deterministic: shard hashing is fixed).
  EXPECT_GT(service.store().replicas_repaired(), 0u);
  const auto records = service.records();
  ASSERT_EQ(records.size(), static_cast<size_t>(kSteps));
  for (const TaskRecord& r : records) {
    EXPECT_EQ(r.outcome, TaskOutcome::kCompleted);
  }
  // Post-crash puts target only live servers and stay fully readable.
  DataDescriptor late;
  late.variable = "late";
  late.step = 99;
  late.box = Box3{{0, 0, 0}, {2, 2, 2}};
  service.store().put(late);
  EXPECT_EQ(service.store().query_all("late", 99).size(), 1u);
}

// ---- Concurrent injection (exercised under TSan via ci/sanitize.sh) ----

TEST(FaultPlanDraws, ConcurrentInjectionIsRaceFree) {
  const FaultPlan plan(FaultPlan::parse_spec(
      "drop=0.2,corrupt=0.2,delay=0.2,task-fail=0.2"));
  constexpr int kThreads = 4;
  constexpr uint64_t kIters = 2000;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> observed_drops{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&plan, &observed_drops, t] {
      uint64_t drops = 0;
      for (uint64_t i = 1; i <= kIters; ++i) {
        const uint64_t key = static_cast<uint64_t>(t) * kIters + i;
        if (plan.frame_fault("sim", key, 1).drop) ++drops;
        (void)plan.task_fails(key, 1);
        (void)plan.backoff_seconds(key, 2);
      }
      observed_drops.fetch_add(drops);
    });
  }
  for (auto& th : threads) th.join();
  // The atomic tally agrees with what the callers saw.
  EXPECT_EQ(plan.stats().frames_dropped, observed_drops.load());
  // Decisions are keyed, so a replay on one thread matches what the
  // concurrent run decided.
  const FaultPlan replay(FaultPlan::parse_spec(
      "drop=0.2,corrupt=0.2,delay=0.2,task-fail=0.2"));
  uint64_t replay_drops = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (uint64_t i = 1; i <= kIters; ++i) {
      const uint64_t key = static_cast<uint64_t>(t) * kIters + i;
      if (replay.frame_fault("sim", key, 1).drop) ++replay_drops;
    }
  }
  EXPECT_EQ(replay_drops, observed_drops.load());
}

TEST(FaultStaging, ConcurrentFaultedSubmissionsStayConserved) {
  FaultedService f("task-fail=0.3,attempts=3,backoff=0.0001:0.001", 3);
  f.service->register_handler("work", [](TaskContext&) {});
  constexpr int kProducers = 3;
  constexpr int kPerProducer = 8;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&f, p] {
      for (int t = 0; t < kPerProducer; ++t) {
        f.service->submit(InTransitTask{"work", p * kPerProducer + t, {}, 0});
      }
    });
  }
  for (auto& th : producers) th.join();
  f.service->drain();

  const auto records = f.service->records();
  EXPECT_EQ(records.size(), static_cast<size_t>(kProducers * kPerProducer));
  for (const TaskRecord& r : records) {
    EXPECT_NE(r.outcome, TaskOutcome::kShed);  // degrade policy: none lost
  }
}

// ---- The resilience ledger's one field list ----

// Every ResilienceSummary field is an 8-byte count or seconds value listed
// once in kLedgerFields: a field added without its entry changes the size.
TEST(LedgerFields, ListEveryFieldOnceWithOneKey) {
  EXPECT_EQ(std::size(kLedgerFields), 33u);
  EXPECT_EQ(sizeof(ResilienceSummary), std::size(kLedgerFields) * 8);
  std::set<std::string> keys;
  std::set<std::string> labels;
  for (const LedgerField& f : kLedgerFields) {
    keys.insert(f.key);
    labels.insert(f.label);
    EXPECT_NE(f.count == nullptr, f.seconds == nullptr) << f.key;
    EXPECT_EQ(f.seconds != nullptr, f.unit == LedgerUnit::kSeconds) << f.key;
  }
  EXPECT_EQ(keys.size(), 33u);
  EXPECT_EQ(labels.size(), 33u);
}

// Setting field i to `scale * (i + 1)` reaches every field through the
// list: summing two slices adds each field, and nothing else.
TEST(LedgerFields, SlicesSumFieldByField) {
  auto filled = [](double scale) {
    ResilienceSummary r;
    for (size_t i = 0; i < std::size(kLedgerFields); ++i) {
      const LedgerField& f = kLedgerFields[i];
      const double v = scale * static_cast<double>(i + 1);
      if (f.count != nullptr) r.*f.count = static_cast<uint64_t>(v);
      if (f.seconds != nullptr) r.*f.seconds = v / 4.0;
    }
    return r;
  };
  ResilienceSummary total;
  total += filled(1.0);
  total += filled(100.0);
  const ResilienceSummary expect = filled(101.0);
  for (const LedgerField& f : kLedgerFields) {
    EXPECT_EQ(f.value(total), f.value(expect)) << f.key;
  }
  EXPECT_EQ(total.tasks_completed, 101u);
  EXPECT_EQ(total.backoff_seconds, 6 * 101 / 4.0);
}

// any() is true exactly when one trigger field is nonzero.
TEST(LedgerFields, AnyFiresOnEachTriggerFieldAlone) {
  EXPECT_FALSE(ResilienceSummary{}.any());
  for (const LedgerField& f : kLedgerFields) {
    ResilienceSummary r;
    if (f.count != nullptr) r.*f.count = 1;
    if (f.seconds != nullptr) r.*f.seconds = 0.5;
    EXPECT_EQ(r.any(), f.trigger) << f.key;
  }
}

// The console block's rows, order and formatting, pinned to the text the
// hand-written per-field printer produced before the list existed.
TEST(LedgerFields, FormatResilienceGolden) {
  ResilienceSummary full;
  full.tasks_completed = 40;
  full.tasks_degraded = 3;
  full.tasks_deferred = 2;
  full.tasks_shed = 1;
  full.task_retries = 7;
  full.backoff_seconds = 0.01234;
  full.tasks_failed = 5;
  full.buckets_killed = 1;
  full.buckets_crashed = 1;
  full.servers_crashed = 1;
  full.leases_expired = 2;
  full.tasks_reexecuted = 2;
  full.zombies_fenced = 1;
  full.replicas_repaired = 4;
  full.objects_lost = 3;
  full.frame_retransmits = 11;
  full.frames_dropped = 4;
  full.frames_corrupted = 7;
  full.crc_failures = 7;
  full.recovered_bytes = 111480;
  full.frames_delayed = 6;
  full.injected_delay_s = 0.5;
  full.steer_in_transit = 30;
  full.steer_in_situ = 3;
  full.steer_deferred = 2;
  full.steer_shed = 1;
  full.overload_diversions = 2;
  full.admission_overdrafts = 68;
  full.admission_wait_s = 6.015;
  full.peak_queue_bytes = 262144;
  full.overload_bytes_injected = 65536;
  full.credits_starved = 2;
  full.tenant_hog_bytes = 65536;
  EXPECT_EQ(format_resilience(full),
            R"(| resilience metric                 | value     |
|-----------------------------------|-----------|
| tasks submitted                   | 46        |
|   completed on buckets            | 40        |
|   degraded to in-situ fallback    | 3         |
|   deferred one step (resubmitted) | 2         |
|   shed (dropped, counted)         | 1         |
| task retries                      | 7         |
| retry backoff total (s)           | 0.0123    |
| injected task timeouts            | 5         |
| buckets killed                    | 1         |
| buckets crashed (ungraceful)      | 1         |
| servers crashed (ungraceful)      | 1         |
| leases expired (reclaimed)        | 2         |
| tasks re-executed                 | 2         |
| zombie completions fenced         | 1         |
| replica copies read-repaired      | 4         |
| objects lost (last copy died)     | 3         |
| frame retransmits                 | 11        |
|   frames dropped (injected)       | 4         |
|   frames corrupted (injected)     | 7         |
|   CRC failures caught             | 7         |
| recovered payload                 | 108.87 KB |
| frames delayed (injected)         | 6         |
| injected frame delay (s)          | 0.5000    |
| steer: in-transit                 | 30        |
| steer: in-situ fallback           | 3         |
| steer: deferred                   | 2         |
| steer: shed                       | 1         |
| queue-budget diversions           | 2         |
| admission overdrafts              | 68        |
| admission wait total (s)          | 6.0150    |
| peak queue bytes                  | 256.00 KB |
| injected phantom bytes            | 64.00 KB  |
| credits starved (injected)        | 2         |
| tenant-hog bytes (injected)       | 64.00 KB  |
)");

  // Crash group only: task and frame rows print, steering rows do not.
  ResilienceSummary crash;
  crash.tasks_completed = 9;
  crash.buckets_crashed = 1;
  crash.servers_crashed = 1;
  crash.leases_expired = 1;
  crash.tasks_reexecuted = 1;
  crash.zombies_fenced = 1;
  crash.replicas_repaired = 2;
  EXPECT_EQ(format_resilience(crash),
            R"(| resilience metric                 | value  |
|-----------------------------------|--------|
| tasks submitted                   | 9      |
|   completed on buckets            | 9      |
|   degraded to in-situ fallback    | 0      |
|   deferred one step (resubmitted) | 0      |
|   shed (dropped, counted)         | 0      |
| task retries                      | 0      |
| retry backoff total (s)           | 0.0000 |
| injected task timeouts            | 0      |
| buckets killed                    | 0      |
| buckets crashed (ungraceful)      | 1      |
| servers crashed (ungraceful)      | 1      |
| leases expired (reclaimed)        | 1      |
| tasks re-executed                 | 1      |
| zombie completions fenced         | 1      |
| replica copies read-repaired      | 2      |
| objects lost (last copy died)     | 0      |
| frame retransmits                 | 0      |
|   frames dropped (injected)       | 0      |
|   frames corrupted (injected)     | 0      |
|   CRC failures caught             | 0      |
| recovered payload                 | 0.00 B |
| frames delayed (injected)         | 0      |
| injected frame delay (s)          | 0.0000 |
)");

  // Steering group only: no crash rows, and no hog row at zero bytes.
  ResilienceSummary steer;
  steer.tasks_completed = 12;
  steer.steer_in_transit = 12;
  steer.steer_in_situ = 3;
  steer.steer_deferred = 2;
  steer.steer_shed = 1;
  steer.overload_diversions = 4;
  steer.admission_overdrafts = 5;
  steer.admission_wait_s = 1.25;
  steer.peak_queue_bytes = 1 << 20;
  EXPECT_EQ(format_resilience(steer),
            R"(| resilience metric                 | value   |
|-----------------------------------|---------|
| tasks submitted                   | 12      |
|   completed on buckets            | 12      |
|   degraded to in-situ fallback    | 0       |
|   deferred one step (resubmitted) | 0       |
|   shed (dropped, counted)         | 0       |
| task retries                      | 0       |
| retry backoff total (s)           | 0.0000  |
| injected task timeouts            | 0       |
| buckets killed                    | 0       |
| frame retransmits                 | 0       |
|   frames dropped (injected)       | 0       |
|   frames corrupted (injected)     | 0       |
|   CRC failures caught             | 0       |
| recovered payload                 | 0.00 B  |
| frames delayed (injected)         | 0       |
| injected frame delay (s)          | 0.0000  |
| steer: in-transit                 | 12      |
| steer: in-situ fallback           | 3       |
| steer: deferred                   | 2       |
| steer: shed                       | 1       |
| queue-budget diversions           | 4       |
| admission overdrafts              | 5       |
| admission wait total (s)          | 1.2500  |
| peak queue bytes                  | 1.00 MB |
| injected phantom bytes            | 0.00 B  |
| credits starved (injected)        | 0       |
)");

  // Hog bytes alone: the hog row only prints inside the steering group.
  ResilienceSummary hog;
  hog.tenant_hog_bytes = 65536;
  EXPECT_TRUE(hog.any());
  EXPECT_EQ(format_resilience(hog),
            R"(| resilience metric                 | value  |
|-----------------------------------|--------|
| tasks submitted                   | 0      |
|   completed on buckets            | 0      |
|   degraded to in-situ fallback    | 0      |
|   deferred one step (resubmitted) | 0      |
|   shed (dropped, counted)         | 0      |
| task retries                      | 0      |
| retry backoff total (s)           | 0.0000 |
| injected task timeouts            | 0      |
| buckets killed                    | 0      |
| frame retransmits                 | 0      |
|   frames dropped (injected)       | 0      |
|   frames corrupted (injected)     | 0      |
|   CRC failures caught             | 0      |
| recovered payload                 | 0.00 B |
| frames delayed (injected)         | 0      |
| injected frame delay (s)          | 0.0000 |
)");
}

}  // namespace
}  // namespace hia
