// Overload control for the staging path: budgets, watermarks, credits,
// and the steering policy that consumes them.
//
// The paper's hybrid configuration only wins while the staging area keeps
// up; when it cannot (a shrunken bucket pool, a bursty producer), an
// unbounded task queue converts the shortfall into unbounded memory growth
// and unbounded task latency. This module makes the shortfall *visible and
// bounded* instead:
//
//   * OverloadControl owns the byte/depth budgets and tracks usage of the
//     staging queue and object store, classifying pressure through a
//     low/high-watermark hysteresis (Nominal -> Elevated -> Saturated).
//   * Credit-based admission gates the Dart put path (ElasticBroker-style
//     end-to-end flow control): a producer holds one credit per published
//     region and may block briefly when all credits are out, so the
//     simulation *feels* staging pressure at the publish call instead of
//     blind-firing RDMA. An overdraft escape hatch (admit_max_wait_s)
//     guarantees liveness: producers are slowed, never deadlocked.
//   * A PressureSignal snapshot (StagingService::pressure()) feeds
//     steer_decide(), the per-task policy choosing in-transit, in-situ
//     fallback, defer-one-step, or loud shed.
//
// Everything here is optional: a null OverloadControl pointer (the default
// throughout) costs exactly one branch on each hot path, preserving the
// zero-overhead-when-off contract gated by tools/bench_diff.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace hia {

/// Watermark-classified staging pressure. Transitions use hysteresis: the
/// state only returns to kNominal once utilization falls below the *low*
/// watermark, so a queue oscillating around the high watermark does not
/// flap the steering policy.
enum class PressureState {
  kNominal = 0,    // utilization < low watermark (or was never above high)
  kElevated = 1,   // utilization in [low, high) on the way up
  kSaturated = 2,  // utilization reached high; holds until it drops below low
};

const char* to_string(PressureState state);

/// Snapshot of staging pressure, consumed by the steering policy. All byte
/// figures include fault-injected phantom bytes (the `overload` fault
/// site), so injected overload is indistinguishable from real overload
/// downstream — exactly the point.
struct PressureSignal {
  PressureState state = PressureState::kNominal;
  size_t queue_bytes = 0;  // staged task-input bytes waiting in the queue
  size_t queue_depth = 0;  // tasks waiting in the queue
  size_t store_bytes = 0;  // published bytes resident in the object store
  int credits_free = -1;   // admission credits available (-1 = credits off)
  int live_buckets = -1;   // filled in by StagingService::pressure()
};

/// Parsed `--overload` spec. A budget of 0 means that dimension is
/// unbounded; credits == 0 means the admission gate is off.
struct OverloadConfig {
  size_t queue_bytes_budget = 0;  // hard cap on queued task-input bytes
  size_t queue_depth_budget = 0;  // hard cap on queued task count
  size_t store_bytes_budget = 0;  // pressure-only budget for the object store
  double low_watermark = 0.5;     // fraction of budget: back to Nominal below
  double high_watermark = 0.9;    // fraction of budget: Saturated at/above
  int credits = 0;                // outstanding-put admission credits
  /// Longest a producer blocks at the admission gate before overdrafting
  /// (admitted anyway, counted loudly). Keeps producers live by
  /// construction: admission slows the simulation, it never wedges it.
  double admit_max_wait_s = 0.05;
  /// Defer-one-step budget per task: how many step boundaries a saturated
  /// task may be pushed across before its deadline forces execution.
  int max_defers = 1;

  /// Parses a `--overload` spec: comma-separated directives
  ///   queue-bytes=N     task-queue byte budget
  ///   queue-depth=N     task-queue depth budget
  ///   store-bytes=N     object-store byte budget (pressure only)
  ///   low=F high=F      watermark fractions, 0 < low < high <= 1
  ///   credits=N         admission credits (N outstanding puts)
  ///   admit-wait=S      max seconds a put blocks before overdrafting
  ///   defer-max=N       defer-one-step budget per task (default 1)
  /// Every N is a whole count (k/m/g suffixes allowed, parse_count); F and
  /// S are finite numbers in [0, 1e6] (parse_seconds).
  /// Throws hia::Error on a malformed spec or a value outside its field.
  /// An empty spec parses to a disabled config (enabled() == false).
  static OverloadConfig parse_spec(const std::string& spec);

  /// True when any budget or the credit gate is set.
  [[nodiscard]] bool enabled() const {
    return queue_bytes_budget > 0 || queue_depth_budget > 0 ||
           store_bytes_budget > 0 || credits > 0;
  }
};

/// The shared overload ledger: one instance per pipeline, consulted by
/// Dart (admission), ObjectStore (store bytes), StagingService (queue
/// accounting + hard wall), and HybridRunner (steering). Thread-safe; its
/// internal mutex is always innermost — holders of the staging or Dart
/// locks may call in, never the reverse.
class OverloadControl {
 public:
  explicit OverloadControl(OverloadConfig config);

  // ---- Admission (Dart put path) ----

  /// Acquires one admission credit, blocking up to admit_max_wait_s when
  /// all credits are out; past the deadline the put is admitted anyway and
  /// counted as an overdraft. When credits are off this does nothing.
  ///
  /// `tenant` charges the admission (and any overdraft or gate wait) to
  /// that tenant's ledger. A tenant with a credit cap (set_tenant_credit_cap)
  /// also waits while it already holds cap credits, even when the global
  /// pool has slack — a hog producer cannot hoard the whole pool. The
  /// overdraft escape hatch still applies per wait, so a capped tenant is
  /// slowed, never wedged.
  void admit(size_t bytes, int tenant = 0);

  /// Returns the credit held by a released region to the global pool and
  /// the owning tenant's ledger.
  void release_credit(int tenant = 0);

  /// Drains the admission wait accumulated by admit() calls on the calling
  /// thread since the previous drain. Publish blocks before its consuming
  /// task exists, so the scheduler drains this at submit and charges the
  /// wait to that task (the kCreditGrant attribution event).
  static double take_thread_admission_wait();

  /// Caps how many admission credits `tenant` may hold at once
  /// (0 = uncapped). Effective only when the global credit gate is on.
  void set_tenant_credit_cap(int tenant, int credits);

  // ---- Accounting hooks ----

  void on_store_put(size_t bytes);
  void on_store_take(size_t bytes);
  void on_queue_add(size_t bytes);
  void on_queue_remove(size_t bytes);

  /// Would enqueueing `add_bytes` more breach a hard queue budget? The
  /// staging service consults this *before* queueing and diverts the task
  /// to degrade/shed instead, so queued bytes/depth never exceed budget.
  [[nodiscard]] bool queue_would_overflow(size_t add_bytes) const;

  // ---- Fault hooks (scripted `overload` / `credit-starve` sites) ----

  /// Adds phantom bytes to the queue accounting (a rogue producer / an
  /// accounting leak): raises pressure without real work to drain it.
  void inject_phantom_bytes(size_t bytes);

  /// Permanently confiscates `credits` admission credits (a crashed
  /// producer that never released its regions). At least one effective
  /// credit always remains, so admission stays live.
  void starve_credits(int credits);

  // ---- Introspection ----

  [[nodiscard]] PressureSignal pressure() const;
  [[nodiscard]] PressureState state() const;

  struct Stats {
    uint64_t admissions = 0;            // credits granted (incl. overdrafts)
    uint64_t admission_overdrafts = 0;  // waits that hit admit_max_wait_s
    double admission_wait_s = 0.0;      // producer seconds blocked at the gate
    size_t peak_queue_bytes = 0;        // high-water mark incl. phantom bytes
    size_t phantom_bytes = 0;           // fault-injected queue bytes
    int credits_outstanding = 0;        // currently held credits
    int credits_starved = 0;            // confiscated by the fault plan
  };
  [[nodiscard]] Stats stats() const;

  /// Per-tenant slice of the admission ledger (all zeros for a tenant the
  /// gate never saw).
  struct TenantStats {
    uint64_t admissions = 0;
    uint64_t overdrafts = 0;        // deadline hits charged to this tenant
    double wait_s = 0.0;            // this tenant's seconds at the gate
    uint64_t cap_waits = 0;         // waits caused by the tenant's own cap
    int credits_outstanding = 0;    // credits the tenant holds right now
    int credit_cap = 0;             // configured cap (0 = uncapped)
  };
  [[nodiscard]] TenantStats tenant_stats(int tenant) const;

  [[nodiscard]] const OverloadConfig& config() const { return config_; }

 private:
  /// Recomputes utilization and walks the hysteresis machine. Requires
  /// mutex_ held.
  void update_state_locked();
  [[nodiscard]] PressureSignal signal_locked() const;
  [[nodiscard]] int effective_credits_locked() const;

  const OverloadConfig config_;

  mutable std::mutex mutex_;
  std::condition_variable credit_cv_;
  size_t queue_bytes_ = 0;    // real queued task-input bytes
  size_t queue_depth_ = 0;
  size_t store_bytes_ = 0;
  size_t phantom_bytes_ = 0;  // fault-injected share of queue pressure
  int credits_in_use_ = 0;
  int credits_starved_ = 0;
  PressureState state_ = PressureState::kNominal;

  uint64_t admissions_ = 0;
  uint64_t overdrafts_ = 0;
  double wait_s_total_ = 0.0;
  size_t peak_queue_bytes_ = 0;

  struct TenantLedger {
    uint64_t admissions = 0;
    uint64_t overdrafts = 0;
    double wait_s = 0.0;
    uint64_t cap_waits = 0;
    int credits_in_use = 0;
    int credit_cap = 0;  // 0 = uncapped
  };
  std::map<int, TenantLedger> tenants_;  // guarded by mutex_
};

// ---- Steering ----

/// Per-task routing policy the runner applies at every submit point.
enum class SteerPolicy {
  kInTransit,  // always queue in-transit (the default; PR-4 behavior)
  kAdaptive,   // consult pressure + deadline: defer, then in-situ fallback
  kInSitu,     // always run on the in-situ fallback executor
  kShed,       // like adaptive, but past-deadline saturated work is shed
};

/// Parses a `--steer` policy name ("in-transit", "adaptive", "in-situ",
/// "shed"; "" = in-transit). Throws hia::Error on an unknown name.
SteerPolicy parse_steer_policy(const std::string& name);
const char* to_string(SteerPolicy policy);

/// What the policy chose for one task.
enum class SteerDecision {
  kInTransit,  // queue on the staging buckets
  kInSitu,     // run now on the in-situ fallback executor (degraded)
  kDefer,      // park one step and re-decide at the next step boundary
  kShed,       // drop loudly (counted, recorded)
};

const char* to_string(SteerDecision decision);

/// The steering table. `defers_used` is how many step boundaries this task
/// already crossed; once it reaches `max_defers` the task is past its
/// deadline (deadline = submit step + max_defers steps) and must execute.
/// Deferring also requires a live bucket — pressure that can never drain
/// (zero live buckets) routes straight to the fallback (or shed).
SteerDecision steer_decide(SteerPolicy policy, const PressureSignal& pressure,
                           int defers_used, int max_defers);

}  // namespace hia
