// Ablation: backpressure and admission control under staging overload.
//
// A single producer publishes fixed-size blocks and submits one in-transit
// task per block at a swept inter-arrival gap, against a byte-budgeted
// task queue (hard wall) and a credit-gated Dart put path. Three claims:
//
//   1. Bounded queue: at every producer rate — including flat-out, far
//      past bucket capacity — real queued bytes never exceed the budget;
//      overflow work is diverted loudly to the in-situ fallback and the
//      conservation invariant (completed + degraded + shed == submitted)
//      holds at every rate.
//   2. Bounded slowdown under capacity loss: killing all but one bucket
//      mid-run under sustained load keeps end-to-end makespan within 2x
//      of the no-fault baseline — backpressure converts the capacity
//      shortfall into inline degraded work instead of unbounded queueing.
//   3. Zero overhead when off: the same workload with overload control
//      disabled (no control passed: Dart keeps its own idle ledger, which
//      the service reads through it) is gated against
//      bench/baselines/BENCH_ablate_overload.json by tools/bench_diff,
//      alongside the existing BENCH_fig5_scheduler baseline, whose Dart
//      likewise keeps an idle ledger of its own.
//   4. Cheap flight recorder: an A/B leg over obs::enable_events() shows
//      the always-on event ring stays within a blessed makespan bound of
//      the recorder-off run (gated as the boolean recorder_overhead_ok).
//
// Recipes that drive the same machinery through hia_campaign are in
// EXPERIMENTS.md ("Overload drills").
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/events.hpp"
#include "runtime/fault.hpp"
#include "runtime/overload.hpp"
#include "staging/scheduler.hpp"
#include "util/table.hpp"

#include "bench_common.hpp"

namespace {

constexpr int kTasks = 32;
constexpr int kBuckets = 4;
constexpr auto kTaskDuration = std::chrono::milliseconds(8);
constexpr int64_t kPayloadDoubles = 8192;  // 64 KiB per published block
constexpr size_t kPayloadBytes =
    static_cast<size_t>(kPayloadDoubles) * sizeof(double);
constexpr size_t kQueueBudget = 4 * kPayloadBytes;  // 4 tasks deep
// Cap on *real* queued bytes the scheduler may ever hold. The hard wall
// checks before enqueueing, so this is exact, not statistical.
const char* kOverloadSpec = "queue-bytes=262144,credits=8,admit-wait=0.002";

struct Point {
  double gap_s = 0.0;
  double makespan_s = 0.0;
  uint64_t completed = 0;
  uint64_t degraded = 0;
  uint64_t shed = 0;
  uint64_t diversions = 0;
  uint64_t overdrafts = 0;
  double admission_wait_s = 0.0;
  size_t peak_queue_bytes = 0;
  size_t records = 0;
};

Point run_point(double gap_s, bool overload_on,
                const std::string& fault_spec) {
  using namespace hia;
  Point point;
  point.gap_s = gap_s;

  // Plan and control must outlive Dart and the service (Dart holds
  // unowned pointers to both; the buckets read them through it until
  // joined).
  std::unique_ptr<FaultPlan> plan;
  if (!fault_spec.empty()) {
    plan = std::make_unique<FaultPlan>(FaultPlan::parse_spec(fault_spec));
  }
  std::unique_ptr<OverloadControl> control;
  if (overload_on) {
    control = std::make_unique<OverloadControl>(
        OverloadConfig::parse_spec(kOverloadSpec));
  }

  NetworkModel net;
  Dart::Options dopts;
  dopts.faults = plan.get();
  dopts.overload = control.get();
  Dart dart(net, dopts);
  StagingService service(dart, {1, kBuckets});
  service.register_handler("work", [&](TaskContext& ctx) {
    // Pull the input so the region is consumed and its credit returns.
    for (const DataDescriptor& d : ctx.task().inputs) ctx.pull_doubles(d);
    std::this_thread::sleep_for(kTaskDuration);
  });

  const int producer = dart.register_node("producer");
  const std::vector<double> payload(kPayloadDoubles, 1.0);
  const auto gap =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::duration<double>(gap_s));
  for (int t = 0; t < kTasks; ++t) {
    service.publish(producer, "x", t, Box3{{0, 0, 0}, {kPayloadDoubles, 1, 1}},
                    payload);
    service.submit_for("work", t, {"x"});
    if (gap.count() > 0) std::this_thread::sleep_for(gap);
  }
  service.drain();

  for (const TaskRecord& r : service.records()) {
    point.makespan_s = std::max(point.makespan_s, r.complete_time);
    switch (r.outcome) {
      case TaskOutcome::kCompleted: ++point.completed; break;
      case TaskOutcome::kDegraded: ++point.degraded; break;
      case TaskOutcome::kShed: ++point.shed; break;
      case TaskOutcome::kDeferred: break;  // runner-only route
    }
  }
  point.records = service.records().size();
  point.diversions = service.overload_diversions();
  if (control != nullptr) {
    const OverloadControl::Stats stats = control->stats();
    point.overdrafts = stats.admission_overdrafts;
    point.admission_wait_s = stats.admission_wait_s;
    point.peak_queue_bytes = stats.peak_queue_bytes;
  }
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  // Writes straight to the bench_diff-gated filename (like fig5).
  hia::bench::ObsCli obs_cli = hia::bench::ObsCli::parse(
      argc, argv, "ablate_overload", "BENCH_ablate_overload.json");
  using namespace hia;
  using namespace hia::bench;

  const double task_s = std::chrono::duration<double>(kTaskDuration).count();
  std::printf("\n==== producer-rate sweep (%d tasks of %.0f ms on %d "
              "buckets, %zu KiB inputs, queue budget %zu KiB, 8 credits) "
              "====\n\n",
              kTasks, task_s * 1e3, kBuckets, kPayloadBytes / 1024,
              kQueueBudget / 1024);

  // Bucket capacity is one task per (8 ms / 4 buckets) = 2 ms; gaps below
  // that overdrive the pool and must hit the hard wall, gaps above it
  // should divert nothing.
  Table table({"gap (ms)", "makespan (s)", "completed", "degraded",
               "diversions", "overdrafts", "adm wait (s)", "peak queue"});
  std::vector<Point> sweep;
  for (const double gap_ms : {0.0, 2.0, 4.0, 8.0}) {
    sweep.push_back(run_point(gap_ms * 1e-3, true, ""));
  }
  for (const Point& p : sweep) {
    table.add_row({fmt_fixed(p.gap_s * 1e3, 0), fmt_fixed(p.makespan_s, 3),
                   std::to_string(p.completed), std::to_string(p.degraded),
                   std::to_string(p.diversions), std::to_string(p.overdrafts),
                   fmt_fixed(p.admission_wait_s, 4),
                   fmt_bytes(static_cast<double>(p.peak_queue_bytes))});
  }
  std::printf("%s\n", table.render().c_str());

  bool conserved = true;
  bool bounded = true;
  for (const Point& p : sweep) {
    conserved = conserved && p.records == static_cast<size_t>(kTasks) &&
                p.completed + p.degraded + p.shed ==
                    static_cast<uint64_t>(kTasks);
    // No phantom-byte fault here, so the peak is entirely real queue
    // bytes and the hard wall guarantees it never exceeds the budget.
    bounded = bounded && p.peak_queue_bytes <= kQueueBudget;
  }
  shape_check("queued bytes stay within budget at every producer rate "
              "(hard wall diverts overflow before enqueueing)",
              bounded);
  shape_check("no task lost silently at any rate "
              "(completed + degraded + shed == submitted)",
              conserved);
  shape_check("flat-out producer is throttled, not wedged: overflow work "
              "diverts to the fallback and everything still finishes",
              sweep.front().diversions > 0 &&
                  sweep.front().completed + sweep.front().degraded ==
                      static_cast<uint64_t>(kTasks));

  // ---- Scenario: capacity loss under sustained load ----
  const double kGap = 4e-3;  // under capacity with 4 buckets, over with 1
  std::printf("\n==== capacity loss (%d of %d buckets killed at step %d "
              "under sustained %.0f ms load) ====\n\n",
              kBuckets - 1, kBuckets, kTasks / 4, kGap * 1e3);
  std::string kill_spec = "seed=9";
  for (int b = 1; b < kBuckets; ++b) {
    kill_spec += ",kill-bucket=" + std::to_string(b) + "@" +
                 std::to_string(kTasks / 4);
  }
  const Point base = run_point(kGap, true, "");
  const Point kill = run_point(kGap, true, kill_spec);
  const double slowdown = kill.makespan_s / base.makespan_s;
  std::printf("  no-fault makespan %.3f s -> kill makespan %.3f s "
              "(%.2fx), %llu diverted to in-situ, peak queue %zu B\n\n",
              base.makespan_s, kill.makespan_s, slowdown,
              static_cast<unsigned long long>(kill.degraded),
              kill.peak_queue_bytes);
  shape_check("losing 3 of 4 buckets keeps slowdown <= 2x the no-fault "
              "baseline (backpressure degrades inline instead of queueing)",
              slowdown <= 2.0);
  shape_check("queue stays within budget during the capacity loss",
              kill.peak_queue_bytes <= kQueueBudget);
  shape_check("capacity-loss run loses no task",
              kill.records == static_cast<size_t>(kTasks) &&
                  kill.completed + kill.degraded + kill.shed ==
                      static_cast<uint64_t>(kTasks));

  // ---- Zero-overhead-when-off reference point ----
  const Point off = run_point(kGap, false, "");
  std::printf("==== overload control off (same workload, null control) "
              "====\n\n  makespan %.3f s (on: %.3f s)\n\n",
              off.makespan_s, base.makespan_s);
  shape_check("overload-off run completes everything on the buckets",
              off.records == static_cast<size_t>(kTasks) &&
                  off.completed == static_cast<uint64_t>(kTasks));

  // ---- Flight-recorder overhead (events on vs events off) ----
  // Same workload as the reference point, A/B over obs::enable_events().
  // The workload is sleep-dominated, so the recorder's per-event cost (a
  // relaxed load plus an uncontended ring write) must vanish in the
  // makespan; gate it as a boolean bound, not a near-zero delta — on the
  // 1-core CI box a single preemption dwarfs any real recorder cost.
  obs::reset_events();
  obs::enable_events();
  const Point rec_on = run_point(kGap, true, "");
  const size_t recorded = obs::events_snapshot().size();
  obs::disable_events();
  const Point rec_off = run_point(kGap, true, "");
  obs::enable_events();
  const double rec_ratio = rec_on.makespan_s / rec_off.makespan_s;
  std::printf("==== flight-recorder overhead (same workload, recorder "
              "on/off) ====\n\n  recorder on %.3f s (%zu records) -> "
              "recorder off %.3f s (%.2fx)\n\n",
              rec_on.makespan_s, recorded, rec_off.makespan_s, rec_ratio);
  const bool recorder_ok = recorded > 0 && rec_ratio <= 1.5;
  shape_check("flight recorder records the run yet keeps makespan within "
              "1.5x of the recorder-off A/B leg",
              recorder_ok);

  // ---- Makespan attribution (exact phase partition per task) ----
  // A fresh recorded run (fresh service => fresh task ids and virtual
  // clock), attributed from the in-memory stream: every task's admit +
  // queue + backoff + transfer + compute + drain must equal its
  // turnaround exactly, and the extracted critical path must fit inside
  // the makespan. Gated as a boolean in the blessed baseline.
  obs::reset_events();
  obs::enable_events();
  const Point attrib_point = run_point(kGap, true, "");
  const obs::Attribution attrib = obs::attribute_events(
      obs::events_snapshot(), obs::dropped_event_records());
  const obs::CriticalPath cpath = obs::extract_critical_path(attrib);
  const bool attrib_ok =
      attrib.ok && attrib.conserved &&
      attrib.tasks.size() == static_cast<size_t>(kTasks) && cpath.ok &&
      cpath.length_s <= attrib.makespan_s * (1.0 + 1e-6) &&
      cpath.length_s + 1e-9 >= cpath.longest_task_chain_s;
  std::printf("==== makespan attribution (recorded run, %zu tasks) ====\n\n"
              "  makespan %.3f s, critical path %.3f s, longest task chain "
              "%.3f s%s%s\n\n",
              attrib.tasks.size(), attrib.makespan_s, cpath.length_s,
              cpath.longest_task_chain_s,
              attrib.error.empty() ? "" : "; ",
              attrib.error.c_str());
  (void)attrib_point;
  shape_check("per-task phase partitions sum exactly to turnaround and "
              "the critical path fits inside the makespan",
              attrib_ok);

  obs_cli.add_metric("makespan_off_s", off.makespan_s);
  obs_cli.add_metric("makespan_on_s", base.makespan_s);
  obs_cli.add_metric("makespan_kill_s", kill.makespan_s);
  obs_cli.add_metric("slowdown_kill", slowdown);
  obs_cli.add_metric("degraded_kill", static_cast<double>(kill.degraded));
  obs_cli.add_metric("diversions_flatout",
                     static_cast<double>(sweep.front().diversions));
  obs_cli.add_metric("peak_queue_frac",
                     static_cast<double>(base.peak_queue_bytes) /
                         static_cast<double>(kQueueBudget));
  obs_cli.add_metric("recorder_overhead_ok", recorder_ok ? 1.0 : 0.0);
  obs_cli.add_metric("attribution_conserved_ok", attrib_ok ? 1.0 : 0.0);
  obs_cli.finish();
  return 0;
}
