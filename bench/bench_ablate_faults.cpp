// Ablation: staging resilience under fault injection. Sweeps the injected
// task-failure probability for a fixed in-transit task stream and reports
// makespan, retries, and outcome mix — showing that the retry/degradation
// path keeps the end-to-end slowdown bounded (failed work falls back to
// the in-situ executor instead of stalling the pipeline) and that no task
// is ever lost silently: completed + degraded + shed == submitted, at
// every failure rate.
//
// A second scenario kills every staging bucket mid-run and checks the
// pipeline survives on the in-situ fallback executor alone.
//
// Recipes that drive the same machinery through hia_campaign are in
// EXPERIMENTS.md ("Failure drills").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault.hpp"
#include "staging/scheduler.hpp"
#include "util/table.hpp"

#include "bench_common.hpp"

namespace {

struct SweepPoint {
  double fail_prob = 0.0;
  double makespan_s = 0.0;
  uint64_t completed = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t retries = 0;
  double backoff_s = 0.0;
  size_t records = 0;
};

constexpr int kTasks = 16;
constexpr int kBuckets = 4;
constexpr auto kTaskDuration = std::chrono::milliseconds(25);

SweepPoint run_sweep_point(const std::string& fault_spec, double fail_prob) {
  using namespace hia;
  SweepPoint point;
  point.fail_prob = fail_prob;

  // The plan must outlive Dart and the service (the buckets read it
  // through Dart until joined). Null = Dart's own off plan.
  std::unique_ptr<FaultPlan> plan;
  if (!fault_spec.empty()) {
    plan = std::make_unique<FaultPlan>(FaultPlan::parse_spec(fault_spec));
  }

  NetworkModel net;
  Dart dart(net, {.faults = plan.get()});
  StagingService service(dart, {1, kBuckets});
  service.register_handler("work", [&](TaskContext&) {
    std::this_thread::sleep_for(kTaskDuration);
  });
  for (int t = 0; t < kTasks; ++t) {
    service.submit(InTransitTask{"work", t, {}, 0});
  }
  service.drain();

  for (const TaskRecord& r : service.records()) {
    point.makespan_s = std::max(point.makespan_s, r.complete_time);
    switch (r.outcome) {
      case TaskOutcome::kCompleted: ++point.completed; break;
      case TaskOutcome::kDegraded: ++point.degraded; break;
      case TaskOutcome::kShed: ++point.shed; break;
      case TaskOutcome::kDeferred: break;  // not produced by raw submit()
    }
    point.retries += static_cast<uint64_t>(r.attempts - 1);
    point.backoff_s += r.backoff_seconds;
  }
  point.records = service.records().size();
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  // Writes straight to the bench_diff-gated filename (like fig5).
  hia::bench::ObsCli obs_cli = hia::bench::ObsCli::parse(
      argc, argv, "ablate_faults", "BENCH_ablate_faults.json");
  using namespace hia;
  using namespace hia::bench;

  const double task_s = std::chrono::duration<double>(kTaskDuration).count();
  std::printf("\n==== task-failure sweep (%d tasks of %.0f ms on %d buckets, "
              "retry then degrade) ====\n\n",
              kTasks, task_s * 1e3, kBuckets);

  // Failed attempts are detected after a 2 ms stuck period and retried with
  // a 1..10 ms decorrelated-jitter backoff; after 4 attempts the task runs
  // on the in-situ fallback executor.
  Table table({"fail prob", "makespan (s)", "slowdown", "completed",
               "degraded", "shed", "retries", "backoff (s)"});

  std::vector<SweepPoint> sweep;
  for (const double p : {0.0, 0.05, 0.10, 0.20}) {
    std::string spec;
    if (p > 0.0) {
      char buf[128];
      std::snprintf(buf, sizeof(buf),
                    "task-fail=%.2f:0.002,attempts=4,backoff=0.001:0.01,"
                    "seed=4",
                    p);
      spec = buf;
    }
    sweep.push_back(run_sweep_point(spec, p));
  }

  const double base = sweep.front().makespan_s;
  for (const SweepPoint& pt : sweep) {
    char prob[16];
    std::snprintf(prob, sizeof(prob), "%.0f%%", pt.fail_prob * 100.0);
    table.add_row({prob, fmt_fixed(pt.makespan_s, 3),
                   fmt_fixed(pt.makespan_s / base, 2) + "x",
                   std::to_string(pt.completed), std::to_string(pt.degraded),
                   std::to_string(pt.shed), std::to_string(pt.retries),
                   fmt_fixed(pt.backoff_s, 4)});
  }
  std::printf("%s\n", table.render().c_str());

  const SweepPoint& p5 = sweep[1];
  const SweepPoint& p20 = sweep.back();
  bool conserved = true;
  for (const SweepPoint& pt : sweep) {
    conserved = conserved && pt.records == static_cast<size_t>(kTasks) &&
                pt.completed + pt.degraded + pt.shed ==
                    static_cast<uint64_t>(kTasks);
  }
  shape_check("no task lost silently at any failure rate "
              "(completed + degraded + shed == submitted)",
              conserved);
  shape_check("5% task failure keeps end-to-end slowdown <= 1.5x "
              "(retries + degradation absorb the faults)",
              p5.makespan_s <= 1.5 * base);
  shape_check("retries rise with the injected failure rate",
              sweep.front().retries == 0 && p20.retries >= p5.retries &&
                  p20.retries > 0);

  // ---- Scenario: total staging wipeout mid-run ----
  std::printf("\n==== staging wipeout (all %d buckets killed at step %d) "
              "====\n\n",
              kBuckets, kTasks / 2);
  std::string kill_spec = "seed=7";
  for (int b = 0; b < kBuckets; ++b) {
    kill_spec += ",kill-bucket=" + std::to_string(b) + "@" +
                 std::to_string(kTasks / 2);
  }
  const SweepPoint wipeout = run_sweep_point(kill_spec, 0.0);
  std::printf("  completed on buckets: %llu, degraded to in-situ: %llu, "
              "shed: %llu (of %d submitted)\n\n",
              static_cast<unsigned long long>(wipeout.completed),
              static_cast<unsigned long long>(wipeout.degraded),
              static_cast<unsigned long long>(wipeout.shed), kTasks);
  shape_check("pipeline survives losing every staging bucket "
              "(remaining work degrades in-situ, none lost)",
              wipeout.records == static_cast<size_t>(kTasks) &&
                  wipeout.degraded > 0 && wipeout.shed == 0 &&
                  wipeout.completed + wipeout.degraded ==
                      static_cast<uint64_t>(kTasks));

  // ---- Scenario: ungraceful crash recovery (bucket + server loss) ----
  //
  // A bucket dies mid-run with no drain (its in-flight task is seized and
  // must be reclaimed by lease expiry, re-executed, and any zombie
  // completion fenced), then an object-store server dies with committed
  // objects on it. With replicas=2 the gate is exact: every committed
  // object survives, and completed + degraded + shed == submitted with
  // one terminal record per task — the `crash_recovery_conserved_ok`
  // boolean bench_diff holds at tolerance 0.0.
  std::printf("\n==== crash recovery (bucket 0 crashes at step %d, server 0 "
              "at step %d, replicas=2) ====\n\n",
              kTasks / 4, kTasks / 2);
  // slow-bucket pins bucket 0 mid-compute so the crash seizes in-flight
  // work (lease expiry + re-execution), not an idle bucket.
  FaultPlan crash_plan(FaultPlan::parse_spec(
      "slow-bucket=0:8,crash-bucket=0@" + std::to_string(kTasks / 4) +
      ",crash-server=0@" + std::to_string(kTasks / 2) +
      ",attempts=4,backoff=0.001:0.01"));
  NetworkModel crash_net;
  Dart crash_dart(crash_net, {.faults = &crash_plan});
  StagingService crash_service(
      crash_dart, {.num_servers = 2, .num_buckets = kBuckets, .replicas = 2});
  // Commit objects before the server loss so replication has something to
  // protect (descriptors only: the gate is about copies, not bytes).
  for (int s = 0; s < kTasks; ++s) {
    DataDescriptor d;
    d.variable = "field";
    d.step = s;
    d.box = Box3{{0, 0, 0}, {4, 4, 4}};
    crash_service.store().put(d);
  }
  crash_service.register_handler("work", [&](TaskContext&) {
    std::this_thread::sleep_for(kTaskDuration);
  });
  const auto crash_start = std::chrono::steady_clock::now();
  for (int t = 0; t < kTasks; ++t) {
    if (t == kTasks / 4) {
      // Let the first wave reach the buckets so the crash seizes a bucket
      // mid-compute (the interesting case: lease expiry + re-execution),
      // not an idle one. Recovery is still correct either way; the gate
      // below is timing-independent.
      std::this_thread::sleep_for(kTaskDuration);
    }
    crash_service.submit(InTransitTask{"work", t, {}, 0});
  }
  crash_service.drain();
  const double crash_makespan_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    crash_start)
          .count();

  uint64_t crash_completed = 0;
  uint64_t crash_degraded = 0;
  uint64_t crash_shed = 0;
  for (const TaskRecord& r : crash_service.records()) {
    switch (r.outcome) {
      case TaskOutcome::kCompleted: ++crash_completed; break;
      case TaskOutcome::kDegraded: ++crash_degraded; break;
      case TaskOutcome::kShed: ++crash_shed; break;
      case TaskOutcome::kDeferred: break;
    }
  }
  const bool crash_conserved =
      crash_service.records().size() == static_cast<size_t>(kTasks) &&
      crash_completed + crash_degraded + crash_shed ==
          static_cast<uint64_t>(kTasks) &&
      crash_plan.stats().buckets_crashed == 1 &&
      crash_plan.stats().servers_crashed == 1 &&
      crash_service.store().live_servers() == 1 &&
      crash_service.store().objects_lost() == 0;
  std::printf("  completed: %llu, degraded: %llu, shed: %llu (of %d); "
              "leases expired: %llu, re-executed: %llu, zombies fenced: "
              "%llu; objects lost: %llu\n\n",
              static_cast<unsigned long long>(crash_completed),
              static_cast<unsigned long long>(crash_degraded),
              static_cast<unsigned long long>(crash_shed), kTasks,
              static_cast<unsigned long long>(
                  crash_service.leases_expired()),
              static_cast<unsigned long long>(
                  crash_service.tasks_reexecuted()),
              static_cast<unsigned long long>(
                  crash_service.zombies_fenced()),
              static_cast<unsigned long long>(
                  crash_service.store().objects_lost()));
  shape_check("ungraceful bucket+server crash conserves every task and "
              "every committed object (replicas=2)",
              crash_conserved);

  obs_cli.add_metric("makespan_p0_s", sweep[0].makespan_s);
  obs_cli.add_metric("makespan_p5_s", p5.makespan_s);
  obs_cli.add_metric("makespan_p20_s", p20.makespan_s);
  obs_cli.add_metric("slowdown_p5", p5.makespan_s / base);
  obs_cli.add_metric("retries_p20", static_cast<double>(p20.retries));
  obs_cli.add_metric("degraded_wipeout",
                     static_cast<double>(wipeout.degraded));
  obs_cli.add_metric("crash_recovery_conserved_ok",
                     crash_conserved ? 1.0 : 0.0);
  obs_cli.add_metric("crash_makespan_s", crash_makespan_s);
  obs_cli.add_metric("crash_objects_lost",
                     static_cast<double>(crash_service.store().objects_lost()));
  obs_cli.finish();
  return 0;
}
