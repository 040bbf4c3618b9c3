// Fault injection for the virtual cluster (SIM-SITU-style failure
// modeling + ElasticBroker-style graceful degradation).
//
// A FaultPlan is a seeded, deterministic description of everything that can
// go wrong on the hybrid pipeline's staging path:
//   * frame faults on the DART wire (drop, extra delay, corruption — the
//     Gemini uGNI transient-error analogues),
//   * staging-task failures (bucket timeout / staging-node OOM analogue),
//   * a scripted timeline ("bucket B dies at step N") and slowdowns.
//
// Determinism: every probabilistic decision is a *pure function* of
// (seed, site, logical key) — a counter-based draw, not a shared-stream
// draw — so the same plan asked about the same logical entity (a region's
// owner name and put ordinal, task id, attempt number) always answers the
// same way regardless of thread interleaving. See docs/FAILURE_MODEL.md for the
// exact guarantee.
//
// The plan is immutable after construction except for its injection
// counters (atomics); all methods are thread-safe. Faults off is a plan
// too: no_faults() injects and scripts nothing, and its RetryPolicy allows
// one task attempt before degrading. Each staging deployment holds one
// plan and lends it to its Dart; the staging service reads it through that
// Dart. Dart stamps and checks frame CRCs only while
// frame_faults_enabled() (the zero-overhead-when-off contract gated by
// tools/bench_diff against bench/baselines/).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace hia {

/// Injection sites, used as the domain-separation tag of every draw.
enum class FaultSite : uint32_t {
  kFrameDrop = 1,
  kFrameDelay = 2,
  kFrameCorrupt = 3,
  kFrameCorruptByte = 4,  // which byte of the frame gets flipped
  kTaskFail = 5,
  // Tag 6 is retired: the tags keep their values, so seeded draws hold.
  kBackoff = 7,  // jitter draws of the retry backoff schedule
};

/// One step-triggered directive. The staging service fires it once, at the
/// first submission whose step is >= `step` (diverted or not).
struct ScriptedEvent {
  enum class Kind {
    /// Bucket `target` retires gracefully: it finishes its current task.
    kKillBucket,
    /// Bucket `target` dies ungracefully, mid-compute with no drain (an
    /// idle target dies as it starts its next attempt). Its in-flight task
    /// is stranded until the scheduler's lease expires, then re-queued;
    /// the crashed bucket's late completion is fenced (see
    /// docs/FAILURE_MODEL.md).
    kCrashBucket,
    /// Object-store server `target` dies ungracefully, with every
    /// descriptor it holds. Committed objects survive only via replication
    /// (`--replicas R`): lookups skip the dead shard, fall back to live
    /// replicas, and read-repair missing copies.
    kCrashServer,
    /// `amount` phantom bytes enter the staging queue accounting: a rogue
    /// producer whose pressure has no real work to drain.
    kOverload,
    /// `amount` admission credits are confiscated: a crashed producer that
    /// never released its regions.
    kCreditStarve,
    /// Tenant `target` floods the queue with `amount` phantom bytes. The
    /// burst is charged to its own ledger, so its queue caps absorb the
    /// damage first while the global pressure signal still rises.
    kTenantHog,
  };
  Kind kind = Kind::kKillBucket;
  long step = 0;
  int target = -1;      // bucket, server or tenant; unused otherwise
  uint64_t amount = 0;  // bytes, or credits for kCreditStarve
};

/// How the staging layer reacts to injected task failures.
struct RetryPolicy {
  int max_task_attempts = 4;     // K: attempts before degrade/shed
  int max_frame_attempts = 8;    // DART retransmits per pull before giving up
  double backoff_base_s = 1e-3;  // first retry delay
  double backoff_cap_s = 50e-3;  // decorrelated-jitter ceiling
  /// Failed-attempt cost: the bucket is considered stuck for this long
  /// before the timeout fires (0 = timeouts are detected instantly).
  double task_timeout_s = 0.0;
  /// After K attempts: true = run the analysis via the in-situ fallback
  /// executor (work conserved, tagged degraded); false = shed the task
  /// (explicitly counted, never silent).
  bool degrade_to_insitu = true;
};

/// Parsed `--faults` spec. All probabilities are per-decision in [0, 1].
struct FaultPlanConfig {
  uint64_t seed = 1;

  // Frame faults on the DART wire (keyed by owner name + the owner's put
  // ordinal + attempt).
  double frame_drop_prob = 0.0;
  double frame_corrupt_prob = 0.0;
  double frame_delay_prob = 0.0;
  double frame_delay_s = 1e-3;  // extra modeled seconds when delayed

  // Staging-task failures (keyed by task id + attempt).
  double task_fail_prob = 0.0;

  /// Scripted: bucket `bucket` computes `factor`x slower for the whole run.
  struct BucketSlow {
    int bucket = -1;
    double factor = 1.0;
  };
  std::vector<BucketSlow> bucket_slowdowns;

  /// The step-triggered directives, in spec order until the FaultPlan
  /// constructor sorts them stably by step (see ScriptedEvent).
  std::vector<ScriptedEvent> scripted;

  RetryPolicy retry;
};

/// Faults off: nothing injected or scripted, and a failed task attempt (a
/// thrown handler) is the task's only bucket attempt before it degrades.
FaultPlanConfig no_faults();

/// Injection-side tally (what the plan did to the run). The reaction-side
/// tally (retries, backoff, degradations) lives in the staging records.
struct FaultStats {
  uint64_t frames_dropped = 0;
  uint64_t frames_corrupted = 0;
  uint64_t frames_delayed = 0;
  double injected_delay_s = 0.0;  // sum of frame delays injected
  uint64_t tasks_failed = 0;      // injected task-attempt failures
  uint64_t buckets_killed = 0;
  uint64_t overload_bytes_injected = 0;  // scripted phantom queue bytes
  uint64_t credits_starved = 0;          // scripted confiscated credits
  uint64_t tenant_hog_bytes = 0;         // tenant-attributed phantom bytes
  uint64_t buckets_crashed = 0;          // ungraceful bucket deaths fired
  uint64_t servers_crashed = 0;          // ungraceful store-server deaths
};

class FaultPlan {
 public:
  /// Parses a `--faults` spec: comma-separated directives
  ///   drop=P              drop each DART frame with probability P
  ///   corrupt=P           flip one frame byte with probability P (CRC catches)
  ///   delay=P[:S]         add S modeled seconds with probability P
  ///   task-fail=P[:T]     staging task attempt times out with probability P,
  ///                       occupying its bucket for T seconds (default 0)
  ///   kill-bucket=B@N     bucket B dies once step N is submitted
  ///   crash-bucket=B@N    bucket B dies *ungracefully* at step N: no drain,
  ///                       its in-flight task is reclaimed by lease expiry
  ///                       and re-executed; the late original is fenced.
  ///                       An idle B crashes as it starts its next attempt
  ///   crash-server=S@N    object-store server S dies ungracefully at step
  ///                       N, taking its descriptor shard with it; survives
  ///                       only via --replicas (see object_store)
  ///   slow-bucket=B:F     bucket B computes Fx slower
  ///   overload=B@N        inject B phantom queue bytes once step N is
  ///                       submitted (needs overload control active)
  ///   credit-starve=C@N   confiscate C admission credits at step N
  ///   tenant-hog=T:B@N    tenant T floods the queue with B phantom bytes
  ///                       at step N, charged to T's own ledger (needs
  ///                       overload control active)
  ///   attempts=K          task attempts before degrade/shed (default 4)
  ///   backoff=BASE:CAP    retry backoff bounds in seconds
  ///   shed                after K attempts drop the task (counted) instead
  ///                       of degrading it to the in-situ fallback
  /// Bucket, server, step, byte, credit, tenant and attempt counts and the
  /// seed are whole numbers, k/m/g suffixes allowed (parse_count). Seconds
  /// and the slowdown factor are finite numbers up to 1e6 (parse_seconds).
  /// Throws hia::Error on a malformed spec or a value outside its field.
  static FaultPlanConfig parse_spec(const std::string& spec);

  /// Sorts the scripted timeline stably by step.
  explicit FaultPlan(FaultPlanConfig config);

  /// Uniform [0, 1) draw that is a pure function of (seed, site, key).
  [[nodiscard]] double roll(FaultSite site, uint64_t key) const;

  // ---- Frame faults (DART wire) ----

  /// True when any frame-level fault can fire (Dart only pays for CRC
  /// stamping/checking when this is set).
  [[nodiscard]] bool frame_faults_enabled() const {
    return config_.frame_drop_prob > 0.0 || config_.frame_corrupt_prob > 0.0 ||
           config_.frame_delay_prob > 0.0;
  }

  struct FrameFault {
    bool drop = false;
    bool corrupt = false;
    size_t corrupt_byte = 0;  // index into the frame (modulo its size)
    double delay_s = 0.0;     // extra modeled seconds
  };
  /// Decision for transfer attempt `attempt` of the `put`-th region (from
  /// 0) published by the node named `owner`; updates the injection stats
  /// for whatever fires. Not keyed on handle or node ids, which follow the
  /// order in which threads happen to register and put, so a seeded run
  /// injects the same faults every time; nor on the bytes, so regions with
  /// equal contents draw independently.
  FrameFault frame_fault(std::string_view owner, uint64_t put,
                         int attempt) const;

  // ---- Staging-task faults ----

  /// Does attempt `attempt` (1-based) of task `task_id` time out?
  bool task_fails(uint64_t task_id, int attempt) const;

  /// Decorrelated-jitter backoff before retry `attempt` (1-based count of
  /// failures so far): sleep(n) = min(cap, uniform(base, 3 * sleep(n-1))),
  /// deterministic per (task_id, attempt). Always in [base, cap].
  [[nodiscard]] double backoff_seconds(uint64_t task_id, int attempt) const;

  // ---- Scripted events ----

  /// True when the timeline holds an event of `kind`.
  [[nodiscard]] bool scripts(ScriptedEvent::Kind kind) const;

  /// Tallies a scripted event the staging service fired (once per event).
  void count_scripted(const ScriptedEvent& event) const;

  /// Compute-slowdown factor for `bucket` (1.0 = full speed).
  [[nodiscard]] double bucket_slow_factor(int bucket) const;

  [[nodiscard]] const RetryPolicy& retry() const { return config_.retry; }
  [[nodiscard]] const FaultPlanConfig& config() const { return config_; }
  [[nodiscard]] FaultStats stats() const;

 private:
  FaultPlanConfig config_;

  mutable std::atomic<uint64_t> frames_dropped_{0};
  mutable std::atomic<uint64_t> frames_corrupted_{0};
  mutable std::atomic<uint64_t> frames_delayed_{0};
  mutable std::atomic<uint64_t> injected_delay_ns_{0};
  mutable std::atomic<uint64_t> tasks_failed_{0};
  mutable std::atomic<uint64_t> buckets_killed_{0};
  mutable std::atomic<uint64_t> buckets_crashed_{0};
  mutable std::atomic<uint64_t> servers_crashed_{0};
  mutable std::atomic<uint64_t> overload_bytes_injected_{0};
  mutable std::atomic<uint64_t> credits_starved_{0};
  mutable std::atomic<uint64_t> tenant_hog_bytes_{0};
};

}  // namespace hia
