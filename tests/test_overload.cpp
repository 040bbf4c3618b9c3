// Tests for the overload-control subsystem: spec parsing, watermark
// hysteresis, credit-based admission (including overdraft liveness and
// scripted starvation), the staging hard wall, steering routes, and the
// steering decision table. The concurrency tests at the bottom run under
// TSan (ci/sanitize.sh tsan).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "runtime/overload.hpp"
#include "staging/object_store.hpp"
#include "staging/scheduler.hpp"
#include "util/error.hpp"

namespace hia {
namespace {

// ------------------------------------------------------------ spec parsing

TEST(OverloadConfig, ParseFullSpec) {
  const OverloadConfig cfg = OverloadConfig::parse_spec(
      "queue-bytes=1m,queue-depth=32,store-bytes=2k,low=0.4,high=0.8,"
      "credits=16,admit-wait=0.01,defer-max=3");
  EXPECT_EQ(cfg.queue_bytes_budget, size_t{1} << 20);
  EXPECT_EQ(cfg.queue_depth_budget, 32u);
  EXPECT_EQ(cfg.store_bytes_budget, 2048u);
  EXPECT_DOUBLE_EQ(cfg.low_watermark, 0.4);
  EXPECT_DOUBLE_EQ(cfg.high_watermark, 0.8);
  EXPECT_EQ(cfg.credits, 16);
  EXPECT_DOUBLE_EQ(cfg.admit_max_wait_s, 0.01);
  EXPECT_EQ(cfg.max_defers, 3);
  EXPECT_TRUE(cfg.enabled());
}

TEST(OverloadConfig, EmptySpecIsDisabled) {
  const OverloadConfig cfg = OverloadConfig::parse_spec("");
  EXPECT_FALSE(cfg.enabled());
  EXPECT_EQ(cfg.queue_bytes_budget, 0u);
  EXPECT_EQ(cfg.credits, 0);
}

TEST(OverloadConfig, RejectsMalformedSpecs) {
  EXPECT_THROW(OverloadConfig::parse_spec("frobnicate=1"), Error);
  EXPECT_THROW(OverloadConfig::parse_spec("queue-bytes=nope"), Error);
  // Inverted / out-of-range watermarks.
  EXPECT_THROW(OverloadConfig::parse_spec("queue-bytes=1k,low=0.9,high=0.5"),
               Error);
  EXPECT_THROW(OverloadConfig::parse_spec("queue-bytes=1k,low=0"), Error);
  EXPECT_THROW(OverloadConfig::parse_spec("queue-bytes=1k,high=1.5"), Error);
  // Counts are whole and fit their field: no wrap (2^32 + 1 -> 1 credit),
  // no truncation, no out-of-range conversion.
  EXPECT_THROW(OverloadConfig::parse_spec("credits=4294967297"), Error);
  EXPECT_THROW(OverloadConfig::parse_spec("credits=1e12"), Error);
  EXPECT_THROW(OverloadConfig::parse_spec("credits=2.5"), Error);
  EXPECT_THROW(OverloadConfig::parse_spec("queue-depth=1e30"), Error);
  EXPECT_THROW(OverloadConfig::parse_spec("queue-bytes=-1"), Error);
  EXPECT_THROW(OverloadConfig::parse_spec("credits=4,defer-max=1e300"), Error);
}

// -------------------------------------------------------------- watermarks

TEST(OverloadControl, WatermarkHysteresis) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("queue-bytes=1000,low=0.5,high=0.9"));
  EXPECT_EQ(ctrl.state(), PressureState::kNominal);

  ctrl.on_queue_add(400);  // util 0.4 < low
  EXPECT_EQ(ctrl.state(), PressureState::kNominal);
  ctrl.on_queue_add(100);  // util 0.5: crosses low on the way up
  EXPECT_EQ(ctrl.state(), PressureState::kElevated);
  ctrl.on_queue_add(400);  // util 0.9: saturated
  EXPECT_EQ(ctrl.state(), PressureState::kSaturated);

  // Hysteresis: dropping back into the [low, high) band must NOT release.
  ctrl.on_queue_remove(300);  // util 0.6
  EXPECT_EQ(ctrl.state(), PressureState::kSaturated);
  // Only below the low watermark does the state return to nominal.
  ctrl.on_queue_remove(200);  // util 0.4
  EXPECT_EQ(ctrl.state(), PressureState::kNominal);
}

TEST(OverloadControl, QueueWouldOverflowByBytesAndDepth) {
  OverloadControl by_bytes(OverloadConfig::parse_spec("queue-bytes=1000"));
  by_bytes.on_queue_add(800);
  EXPECT_FALSE(by_bytes.queue_would_overflow(200));
  EXPECT_TRUE(by_bytes.queue_would_overflow(201));

  OverloadControl by_depth(OverloadConfig::parse_spec("queue-depth=2"));
  EXPECT_FALSE(by_depth.queue_would_overflow(1));
  by_depth.on_queue_add(1);
  by_depth.on_queue_add(1);
  EXPECT_TRUE(by_depth.queue_would_overflow(1));
}

TEST(OverloadControl, PhantomBytesRaisePressureAndCountAgainstBudget) {
  OverloadControl ctrl(OverloadConfig::parse_spec("queue-bytes=1000"));
  ctrl.inject_phantom_bytes(900);
  EXPECT_EQ(ctrl.state(), PressureState::kSaturated);
  EXPECT_EQ(ctrl.stats().phantom_bytes, 900u);
  EXPECT_EQ(ctrl.pressure().queue_bytes, 900u);
  // The hard wall sees phantom bytes too: injected overload is
  // indistinguishable from real overload downstream.
  EXPECT_TRUE(ctrl.queue_would_overflow(200));
  EXPECT_FALSE(ctrl.queue_would_overflow(100));
}

// --------------------------------------------------------------- admission

TEST(OverloadControl, CreditAdmitReleaseAndOverdraft) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("credits=2,admit-wait=0.01"));
  ctrl.admit(64);
  EXPECT_EQ(ctrl.pressure().credits_free, 1);
  ctrl.admit(64);
  EXPECT_EQ(ctrl.stats().credits_outstanding, 2);

  // All credits out: the third put waits admit-wait, then overdrafts.
  ctrl.admit(64);
  EXPECT_EQ(ctrl.pressure().credits_free, 0);
  const OverloadControl::Stats stats = ctrl.stats();
  EXPECT_EQ(stats.admissions, 3u);
  EXPECT_EQ(stats.admission_overdrafts, 1u);
  EXPECT_GE(stats.admission_wait_s, 0.005);

  ctrl.release_credit();
  ctrl.release_credit();
  ctrl.release_credit();
  EXPECT_EQ(ctrl.stats().credits_outstanding, 0);
}

TEST(OverloadControl, AdmitUnblocksOnRelease) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("credits=1,admit-wait=5.0"));
  ctrl.admit(8);
  std::atomic<bool> entered{false};
  std::thread blocked([&] {
    entered.store(true, std::memory_order_release);
    ctrl.admit(8);
  });
  // Poll until the waiter is at (or provably headed into) the credit
  // wait instead of sleeping a fixed interval; either interleaving keeps
  // the assertions valid — release can only make its admit clean.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!entered.load(std::memory_order_acquire) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ctrl.release_credit();
  blocked.join();
  // The waiter got a real credit (no overdraft) well before the deadline.
  EXPECT_EQ(ctrl.stats().admission_overdrafts, 0u);
  EXPECT_EQ(ctrl.stats().credits_outstanding, 1);
}

TEST(OverloadControl, StarveCreditsKeepsOneEffective) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("credits=2,admit-wait=0.002"));
  ctrl.starve_credits(5);  // far more than exist
  EXPECT_EQ(ctrl.stats().credits_starved, 5);
  // At least one effective credit always remains: the first admit is clean,
  // only the second overdrafts. Admission crawls, it never stops.
  ctrl.admit(8);
  EXPECT_EQ(ctrl.stats().admission_overdrafts, 0u);
  ctrl.admit(8);
  EXPECT_EQ(ctrl.stats().admission_overdrafts, 1u);
}

// ------------------------------------------------------- store accounting

TEST(ObjectStore, ByteAccountingFeedsPressure) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("store-bytes=1000,low=0.5,high=0.9"));
  ObjectStore store(2, &ctrl);

  DataDescriptor d1;
  d1.variable = "T";
  d1.step = 1;
  d1.handle.bytes = 600;
  store.put(d1);
  EXPECT_EQ(store.bytes(), 600u);
  EXPECT_EQ(ctrl.pressure().store_bytes, 600u);
  EXPECT_EQ(ctrl.state(), PressureState::kElevated);

  DataDescriptor d2 = d1;
  d2.handle.bytes = 400;
  store.put(d2);
  EXPECT_EQ(store.bytes(), 1000u);
  EXPECT_EQ(ctrl.state(), PressureState::kSaturated);

  const auto taken = store.take("T", 1);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_EQ(store.bytes(), 0u);
  EXPECT_EQ(ctrl.pressure().store_bytes, 0u);
  EXPECT_EQ(ctrl.state(), PressureState::kNominal);
}

// --------------------------------------------------------- Dart admission

TEST(DartOverload, PutAdmissionHoldsOneCredit) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("credits=4,admit-wait=0.002"));
  NetworkModel net;
  Dart::Options opts;
  opts.overload = &ctrl;
  Dart dart(net, opts);
  const int owner = dart.register_node("sim-0");

  const DartHandle h = dart.put_doubles(owner, {1.0, 2.0, 3.0});
  EXPECT_EQ(ctrl.stats().credits_outstanding, 1);
  EXPECT_EQ(ctrl.stats().admissions, 1u);
  EXPECT_EQ(ctrl.pressure().credits_free, 3);

  // release() returns the region's credit.
  dart.release(h);
  EXPECT_EQ(ctrl.stats().credits_outstanding, 0);
  EXPECT_EQ(dart.num_published(), 0u);
}

TEST(DartOverload, ReleaseRecyclesTheCredit) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("credits=1,admit-wait=0.002"));
  NetworkModel net;
  Dart::Options opts;
  opts.overload = &ctrl;
  Dart dart(net, opts);
  const int owner = dart.register_node("sim-0");
  for (int i = 0; i < 3; ++i) {
    const DartHandle h = dart.put_doubles(owner, {1.0});
    dart.release(h);
  }
  // Serial put/release cycles through one credit never overdraft.
  EXPECT_EQ(ctrl.stats().admissions, 3u);
  EXPECT_EQ(ctrl.stats().admission_overdrafts, 0u);
}

// ---------------------------------------------------------- staging wall

TEST(StagingOverload, HardWallBoundsQueueBytesAndConserves) {
  // One slow bucket, a queue budget of two payloads, six back-to-back
  // tasks: the wall must divert the overflow to the fallback executor
  // while real queued bytes never exceed the budget.
  OverloadControl ctrl(OverloadConfig::parse_spec("queue-bytes=16384"));
  NetworkModel net;
  Dart dart(net, {.overload = &ctrl});
  StagingService service(dart, {1, 1});
  service.register_handler("work", [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  const int sim = dart.register_node("sim-0");
  const std::vector<double> payload(1024, 1.0);  // 8192 B per task
  for (long t = 0; t < 6; ++t) {
    service.publish(sim, "x", t, Box3{{0, 0, 0}, {1024, 1, 1}}, payload);
    service.submit_for("work", t, {"x"});
  }
  service.drain();

  uint64_t completed = 0, degraded = 0, shed = 0;
  for (const TaskRecord& r : service.records()) {
    if (r.outcome == TaskOutcome::kCompleted) ++completed;
    if (r.outcome == TaskOutcome::kDegraded) ++degraded;
    if (r.outcome == TaskOutcome::kShed) ++shed;
  }
  EXPECT_EQ(service.records().size(), 6u);
  EXPECT_EQ(completed + degraded + shed, 6u);  // conservation
  EXPECT_EQ(shed, 0u);
  EXPECT_GE(service.overload_diversions(), 1u);
  EXPECT_EQ(degraded, service.overload_diversions());
  // No phantom injection here, so the peak is entirely real queue bytes.
  EXPECT_LE(ctrl.stats().peak_queue_bytes, 16384u);
  EXPECT_EQ(dart.num_published(), 0u);  // every input released
}

TEST(StagingOverload, SubmitRoutesFallbackAndShed) {
  NetworkModel net;
  Dart dart(net);
  StagingService service(dart, {1, 2});
  std::atomic<int> ran{0};
  service.register_handler("work", [&](TaskContext&) { ran.fetch_add(1); });
  const int sim = dart.register_node("sim-0");

  service.publish(sim, "x", 0, Box3{{0, 0, 0}, {4, 1, 1}}, {1, 2, 3, 4});
  service.submit_for("work", 0, {"x"}, SubmitRoute::kFallback);
  service.publish(sim, "x", 1, Box3{{0, 0, 0}, {4, 1, 1}}, {1, 2, 3, 4});
  service.submit_for("work", 1, {"x"}, SubmitRoute::kShed);
  service.drain();

  ASSERT_EQ(service.records().size(), 2u);
  EXPECT_EQ(service.records()[0].outcome, TaskOutcome::kDegraded);
  EXPECT_EQ(service.records()[1].outcome, TaskOutcome::kShed);
  EXPECT_EQ(ran.load(), 1);  // the shed task never executed
  EXPECT_EQ(dart.num_published(), 0u);  // shed inputs were released, not leaked
}

TEST(StagingOverload, RecordDeferredWritesTerminalRecord) {
  NetworkModel net;
  Dart dart(net);
  StagingService service(dart, {1, 1});
  const uint64_t id = service.record_deferred("stats", 4);
  EXPECT_GT(id, 0u);
  service.drain();  // deferred records hold no outstanding work
  ASSERT_EQ(service.records().size(), 1u);
  EXPECT_EQ(service.records()[0].outcome, TaskOutcome::kDeferred);
  EXPECT_EQ(service.records()[0].analysis, "stats");
  EXPECT_EQ(service.records()[0].step, 4);
}

TEST(StagingOverload, TaskClockDomainInvariant) {
  // Every TaskRecord timestamp lives on the service's virtual task clock
  // (seconds since service start), never wall-epoch time. A wall-epoch
  // value here would be ~1.7e9 and trip both the guard and this test.
  NetworkModel net;
  Dart dart(net);
  StagingService service(dart, {1, 2});
  service.register_handler("work", [](TaskContext&) {});
  for (long t = 0; t < 4; ++t) {
    service.submit(InTransitTask{"work", t, {}, 0});
  }
  service.drain();
  const double now = service.now();
  for (const TaskRecord& r : service.records()) {
    EXPECT_GE(r.enqueue_time, 0.0);
    EXPECT_LE(r.enqueue_time, now);
    EXPECT_GE(r.assign_time, r.enqueue_time);
    EXPECT_LE(r.complete_time, now);
  }
}

// ------------------------------------------------------- steering table

TEST(Steering, ParsePolicyNames) {
  EXPECT_EQ(parse_steer_policy(""), SteerPolicy::kInTransit);
  EXPECT_EQ(parse_steer_policy("in-transit"), SteerPolicy::kInTransit);
  EXPECT_EQ(parse_steer_policy("adaptive"), SteerPolicy::kAdaptive);
  EXPECT_EQ(parse_steer_policy("in-situ"), SteerPolicy::kInSitu);
  EXPECT_EQ(parse_steer_policy("shed"), SteerPolicy::kShed);
  EXPECT_THROW(parse_steer_policy("yolo"), Error);
}

TEST(Steering, DecisionTable) {
  PressureSignal nominal;
  nominal.live_buckets = 4;
  PressureSignal saturated = nominal;
  saturated.state = PressureState::kSaturated;
  PressureSignal saturated_dead = saturated;
  saturated_dead.live_buckets = 0;

  // Fixed policies ignore pressure entirely.
  EXPECT_EQ(steer_decide(SteerPolicy::kInTransit, saturated, 0, 1),
            SteerDecision::kInTransit);
  EXPECT_EQ(steer_decide(SteerPolicy::kInSitu, nominal, 0, 1),
            SteerDecision::kInSitu);

  // Adaptive: nominal -> in-transit; saturated -> defer while the deadline
  // and a live bucket allow, then in-situ fallback.
  EXPECT_EQ(steer_decide(SteerPolicy::kAdaptive, nominal, 0, 1),
            SteerDecision::kInTransit);
  EXPECT_EQ(steer_decide(SteerPolicy::kAdaptive, saturated, 0, 1),
            SteerDecision::kDefer);
  EXPECT_EQ(steer_decide(SteerPolicy::kAdaptive, saturated, 1, 1),
            SteerDecision::kInSitu);
  // Pressure that can never drain (no live bucket) skips the defer.
  EXPECT_EQ(steer_decide(SteerPolicy::kAdaptive, saturated_dead, 0, 1),
            SteerDecision::kInSitu);

  // Shed policy: like adaptive, but past-deadline saturated work drops.
  EXPECT_EQ(steer_decide(SteerPolicy::kShed, nominal, 0, 1),
            SteerDecision::kInTransit);
  EXPECT_EQ(steer_decide(SteerPolicy::kShed, saturated, 0, 1),
            SteerDecision::kDefer);
  EXPECT_EQ(steer_decide(SteerPolicy::kShed, saturated, 1, 1),
            SteerDecision::kShed);
}

// ------------------------------------------------------- runner steering

TEST(RunnerSteering, InSituPolicyDegradesEveryTask) {
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {1, 1, 1};
  cfg.staging_servers = 1;
  cfg.staging_buckets = 2;
  cfg.steps = 3;
  cfg.steer = "in-situ";
  HybridRunner runner(cfg);
  runner.add_analysis(std::make_shared<HybridStatistics>());
  const RunReport report = runner.run();
  EXPECT_EQ(report.resilience.tasks_degraded, 3u);
  EXPECT_EQ(report.resilience.tasks_completed, 0u);
  EXPECT_EQ(report.resilience.steer_in_situ, 3u);
  EXPECT_TRUE(report.resilience.any());
}

TEST(RunnerSteering, AdaptiveUnderNoPressureIsAllInTransit) {
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {1, 1, 1};
  cfg.staging_servers = 1;
  cfg.staging_buckets = 2;
  cfg.steps = 3;
  cfg.steer = "adaptive";
  cfg.overload = "queue-bytes=64m,credits=64";
  HybridRunner runner(cfg);
  runner.add_analysis(std::make_shared<HybridStatistics>());
  const RunReport report = runner.run();
  // An uncontended pipeline must be byte-identical to the plain path:
  // everything completes in-transit, nothing deferred or degraded.
  EXPECT_EQ(report.resilience.tasks_completed, 3u);
  EXPECT_EQ(report.resilience.tasks_degraded, 0u);
  EXPECT_EQ(report.resilience.tasks_deferred, 0u);
  EXPECT_EQ(report.resilience.steer_in_transit, 3u);
  EXPECT_EQ(report.resilience.overload_diversions, 0u);
}

TEST(RunnerSteering, SteeringOffCountsEveryTaskInTransit) {
  // No --steer and no --overload: every staged submission still takes the
  // steering table's in-transit row, so the verdict count matches the
  // in-transit records, and the printed resilience table stays quiet.
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {1, 1, 1};
  cfg.staging_servers = 1;
  cfg.staging_buckets = 2;
  cfg.steps = 3;
  HybridRunner runner(cfg);
  runner.add_analysis(std::make_shared<HybridStatistics>());
  const RunReport report = runner.run();
  ASSERT_EQ(report.in_transit.size(), 3u);
  EXPECT_EQ(report.resilience.steer_in_transit, report.in_transit.size());
  EXPECT_EQ(report.resilience.tasks_completed, 3u);
  EXPECT_FALSE(report.resilience.any());
  EXPECT_EQ(format_resilience(report.resilience).find("steer:"),
            std::string::npos);
}

// ----------------------------------------------------------- concurrency

TEST(OverloadConcurrency, ParallelAdmitAndAccountingStaysConsistent) {
  OverloadControl ctrl(OverloadConfig::parse_spec(
      "queue-bytes=1m,store-bytes=1m,credits=8,admit-wait=0.0005"));
  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&] {
      for (int n = 0; n < kIters; ++n) {
        ctrl.admit(64);
        ctrl.on_queue_add(64);
        ctrl.on_store_put(64);
        (void)ctrl.queue_would_overflow(64);
        (void)ctrl.pressure();
        ctrl.on_store_take(64);
        ctrl.on_queue_remove(64);
        ctrl.release_credit();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const OverloadControl::Stats stats = ctrl.stats();
  EXPECT_EQ(stats.admissions, uint64_t{kThreads} * kIters);
  EXPECT_EQ(stats.credits_outstanding, 0);
  const PressureSignal sig = ctrl.pressure();
  EXPECT_EQ(sig.queue_bytes, 0u);
  EXPECT_EQ(sig.queue_depth, 0u);
  EXPECT_EQ(sig.store_bytes, 0u);
}

TEST(OverloadConcurrency, ParallelStorePutsTakeExactBytes) {
  OverloadControl ctrl(OverloadConfig::parse_spec("store-bytes=16m"));
  ObjectStore store(4, &ctrl);
  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      for (int n = 0; n < kIters; ++n) {
        DataDescriptor d;
        d.variable = "v" + std::to_string(i);
        d.step = n;
        d.handle.bytes = 128;
        store.put(d);
        const auto taken = store.take(d.variable, d.step);
        ASSERT_EQ(taken.size(), 1u);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(store.bytes(), 0u);
  EXPECT_EQ(ctrl.pressure().store_bytes, 0u);
}

}  // namespace
}  // namespace hia
