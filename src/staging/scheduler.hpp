// The scheduling and coordination layer (paper §IV, Fig. 5).
//
// Secondary resources host a set of staging "buckets" (dedicated cores, one
// thread each here). Scheduling is triggered by two events:
//   * data-ready  — in-situ ranks publish RDMA blocks and submit an
//                   in-transit task descriptor into the task queue;
//   * bucket-ready — an idle bucket announces availability and is appended
//                   to the free-bucket list.
// The matcher assigns tasks to buckets first-come first-served; the bucket
// then *pulls* its input data directly from in-situ memory via Dart::get
// (asynchronous pull-based scheduling). Successive timesteps of the same
// analysis land on different buckets, pipelining the analyses and
// decoupling analysis latency from the simulation rate (temporal
// multiplexing).
//
// Resilience: a failed attempt (an injected timeout or a thrown handler)
// backs off with decorrelated jitter and is requeued, preferring a
// different bucket; after K attempts the task either degrades to the
// in-situ fallback executor or is shed with an explicit counter. Faults
// off is the same machinery under the off plan (no_faults()), whose K is 1.
// The service owns neither its fault plan nor its overload ledger: it
// reads both through its Dart (Dart::faults(), Dart::overload()), so the
// wire, the queue and the store always share one of each. Scripted
// bucket kills retire buckets gracefully (they finish their current task);
// when no live bucket remains, new work degrades immediately. Every
// submitted task ends in exactly one TaskRecord — see docs/FAILURE_MODEL.md
// for the full state machine.
//
// Crash tolerance: an ungraceful crash kills a bucket mid-attempt with no
// drain. Each bucket holds its in-flight attempt under a lease renewed on
// the heartbeat tick of the staging task clock; a crashed owner stops
// renewing, so its lease expires and the heartbeat takes the attempt back
// into the ordinary backoff + bucket-avoidance retry machinery (idempotent
// re-execution). A crashed bucket never delivers: when its unkillable
// thread returns, the attempt is *fenced* and touches no ledger — records,
// outstanding_, fair-share service, handle releases and terminal events
// belong to the re-execution exactly once, keeping
// completed+degraded+deferred+shed == submitted.
//
// Multi-tenancy (weighted fair share once set_tenant_policy is called) is
// part of the matcher's policy, staging/policy.hpp, which the replay
// planner shares. The bucket pool is elastic:
// add_bucket()/retire_bucket() grow and shrink capacity at runtime (retire
// reuses the graceful kill drain — the victim finishes its current task).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "runtime/fault.hpp"
#include "runtime/overload.hpp"
#include "staging/descriptor.hpp"
#include "staging/object_store.hpp"
#include "staging/policy.hpp"
#include "transport/dart.hpp"
#include "util/stopwatch.hpp"

namespace hia {

class StagingService;

/// How submit routes a task (what the steering policy decided).
enum class SubmitRoute {
  kQueue,     // normal in-transit path through the bucket queue
  kFallback,  // run immediately on the in-situ fallback executor (degraded)
  kShed,      // drop loudly: inputs released, terminal kShed record written
};

/// Execution context handed to an in-transit handler running on a bucket.
class TaskContext {
 public:
  [[nodiscard]] const InTransitTask& task() const { return task_; }
  [[nodiscard]] int bucket() const { return bucket_; }
  [[nodiscard]] Dart& dart() { return dart_; }

  /// Pulls one input block from in-situ memory (one-sided RDMA get) and
  /// transparently decodes codec-published blocks; movement time/bytes and
  /// decode seconds are accumulated into this task's record.
  std::vector<double> pull_doubles(const DataDescriptor& desc);

  /// Stores an opaque result blob retrievable via
  /// StagingService::take_result(task_id).
  void set_result(std::vector<std::byte> result) {
    result_ = std::move(result);
  }

 private:
  friend class StagingService;
  TaskContext(StagingService& service, Dart& dart, const InTransitTask& task,
              int bucket, int dart_node)
      : service_(service),
        dart_(dart),
        task_(task),
        bucket_(bucket),
        dart_node_(dart_node) {}

  StagingService& service_;
  Dart& dart_;
  const InTransitTask& task_;
  int bucket_;
  int dart_node_;  // the bucket's Dart registration
  double movement_seconds_ = 0.0;
  size_t movement_bytes_ = 0;      // wire bytes
  size_t movement_raw_bytes_ = 0;  // logical bytes before encoding
  double decode_seconds_ = 0.0;
  // Wall (task-clock-domain) time spent inside pulls, distinct from the
  // *modeled* wire seconds above: the attribution partition needs the
  // transfer share of real bucket occupancy (kTaskXfer).
  double transfer_wall_seconds_ = 0.0;
  std::optional<std::vector<std::byte>> result_;
};

/// The staging area: object store + task queue + bucket pool.
class StagingService {
 public:
  struct Options {
    int num_servers = 2;   // DataSpaces metadata servers
    int num_buckets = 4;   // in-transit cores
    /// Object-store replication factor (clamped to [1, num_servers]).
    /// With R > 1 committed objects survive R-1 crash-server losses.
    int replicas = 1;
  };

  using Handler = std::function<void(TaskContext&)>;

  /// `dart` must outlive the service. Its faults() plan drives task
  /// failures, retries and the scripted timeline; its overload() ledger
  /// keeps the queue and store accounting, and submit() diverts work past
  /// its hard queue budget to degrade_or_shed.
  StagingService(Dart& dart, Options options);
  ~StagingService();

  StagingService(const StagingService&) = delete;
  StagingService& operator=(const StagingService&) = delete;

  /// Registers the in-transit stage of an analysis.
  void register_handler(const std::string& analysis, Handler handler);

  [[nodiscard]] ObjectStore& store() { return store_; }

  /// In-situ side: publish a block through Dart and insert its descriptor
  /// into the shared space. Returns the descriptor. When `codec` is given
  /// the block travels encoded: the descriptor's handle carries the wire
  /// size and every bucket pull is charged on the compressed bytes.
  /// `tenant` owns the block: the Dart admission credit and the store
  /// bytes are charged to its ledgers.
  DataDescriptor publish(int src_node, const std::string& variable, long step,
                         const Box3& box, const std::vector<double>& data,
                         const Codec* codec = nullptr, int tenant = 0);

  /// Data-ready: queue an in-transit task. Returns the task id. `route`
  /// is the steering policy's verdict: the default queues in-transit;
  /// kFallback runs the task now on the in-situ fallback executor
  /// (recorded kDegraded); kShed drops it loudly (inputs released,
  /// recorded kShed). Every route counts as a submission and fires the
  /// scripted fault events due at the task's step.
  uint64_t submit(InTransitTask task, SubmitRoute route = SubmitRoute::kQueue);

  /// Convenience: build a task from every block of `variables` at `step`
  /// currently in the store (descriptors are *taken*: removed from the
  /// store and owned by the task), then submit it along `route`. `tenant`
  /// stamps the task for fair-share accounting.
  uint64_t submit_for(const std::string& analysis, long step,
                      const std::vector<std::string>& variables,
                      SubmitRoute route = SubmitRoute::kQueue, int tenant = 0);

  /// Steering chose defer: writes a terminal kDeferred record for this
  /// (analysis, step) decision. The staged inputs stay in the store; the
  /// runner resubmits them as a *new* task at the next step boundary, so
  /// `completed + degraded + deferred + shed == submitted` still holds.
  uint64_t record_deferred(const std::string& analysis, long step,
                           int tenant = 0);

  // ---- Multi-tenant fair share ----

  /// A task older than this is matched regardless of its tenant's deficit
  /// (starvation guard: weights shape throughput, never deny service).
  static constexpr double kStarvationWaitS = TaskQueue::kStarvationWaitS;

  /// Registers `tenant` with the fair-share matcher. The first call flips
  /// the matcher from global FCFS to weighted fair share for the lifetime
  /// of the service. `weight` is the tenant's share of bucket time
  /// (relative to the other weights); the caps bound how much of the queue
  /// the tenant may occupy (0 = uncapped) — overflow diverts to
  /// degrade/shed, charged to the tenant, before the global hard wall.
  void set_tenant_policy(int tenant, double weight,
                         size_t queue_bytes_cap = 0,
                         size_t queue_depth_cap = 0);

  /// Snapshot of one tenant's scheduling ledger.
  struct TenantShare {
    int tenant = 0;
    double weight = 1.0;
    double bucket_seconds = 0.0;   // settled bucket occupancy (service)
    uint64_t cap_diversions = 0;   // tasks diverted by this tenant's caps
    uint64_t hog_bytes = 0;        // scripted tenant-hog bytes charged here
    size_t queue_depth = 0;        // tasks of this tenant waiting now
    size_t queue_bytes = 0;        // their input wire bytes
    size_t outstanding = 0;        // submitted, not yet terminal
  };
  /// Every tenant the matcher has seen, ascending by tenant id.
  [[nodiscard]] std::vector<TenantShare> tenant_shares() const;

  /// True once any set_tenant_policy call flipped the matcher.
  [[nodiscard]] bool fair_share_enabled() const;

  /// Blocks until every task submitted under `tenant` has completed and
  /// every crashed bucket's thread has returned.
  void drain_tenant(int tenant);

  // ---- Elastic bucket pool ----

  /// Grows the pool by one bucket (registered with Dart, thread started);
  /// returns its index. Safe while the service is running.
  int add_bucket();

  /// Retires one live bucket gracefully: it finishes its current task,
  /// leaves the free list, and its thread exits (joined at destruction,
  /// like a scripted kill). Prefers an idle bucket. Refuses to drop the
  /// live pool to (or below) `min_live` — the floor is re-checked under
  /// the scheduler lock, so a crash that lands between the caller's
  /// pressure snapshot and this call can never push the pool under the
  /// floor. Returns the retired index, or -1 when refused.
  int retire_bucket(int min_live = 1);

  // ---- Crash recovery (leases, fencing) ----

  /// Lease duration on the staging task clock: a crashed owner's task is
  /// reclaimed within one lease of its last heartbeat renewal.
  static constexpr double kLeaseS = 0.05;

  /// Heartbeat tick: renews every live owner's lease, expires the leases
  /// of crashed owners, requeues (or degrades) the reclaimed tasks, and
  /// degrades queued work once no live bucket remains. Called from
  /// submit() and the drain loops; safe to call from any thread.
  void heartbeat();

  /// Leases that expired because their owner crashed.
  [[nodiscard]] uint64_t leases_expired() const {
    return leases_expired_.load(std::memory_order_relaxed);
  }
  /// Reclaimed tasks that re-entered the queue for re-execution.
  [[nodiscard]] uint64_t tasks_reexecuted() const {
    return tasks_reexecuted_.load(std::memory_order_relaxed);
  }
  /// Late completions from presumed-dead buckets that were fenced.
  [[nodiscard]] uint64_t zombies_fenced() const {
    return zombies_fenced_.load(std::memory_order_relaxed);
  }

  /// Pressure snapshot for steering: the overload ledger's signal with
  /// live_buckets filled in (always kNominal when overload is off).
  [[nodiscard]] PressureSignal pressure() const;

  /// Tasks diverted at submit() by the hard queue budget.
  [[nodiscard]] uint64_t overload_diversions() const;

  /// Blocks until every submitted task has completed and every crashed
  /// bucket's thread has returned (so zombies_fenced() is final).
  void drain();

  /// Timing records of completed tasks, in completion order.
  [[nodiscard]] std::vector<TaskRecord> records() const;

  /// Removes and returns the result blob a handler stored for `task_id`
  /// (empty optional if the task stored none or isn't finished).
  std::optional<std::vector<std::byte>> take_result(uint64_t task_id);

  // ---- Instrumentation (Fig. 5 scheduler bench) ----
  [[nodiscard]] size_t pending_tasks() const;
  [[nodiscard]] int free_bucket_count() const;
  /// Pool size including retired buckets (locked: the pool is elastic).
  [[nodiscard]] int num_buckets() const;
  /// Buckets not retired by a scripted kill.
  [[nodiscard]] int live_bucket_count() const;
  /// Seconds since service start (the clock used in TaskRecord fields).
  [[nodiscard]] double now() const { return clock_.seconds(); }

 private:
  friend class TaskContext;

  struct Assigned {
    InTransitTask task;
    /// The policy's view. enqueue_time is task-clock seconds, NEVER
    /// wall-epoch time: queue-wait math is assign - enqueue in one domain.
    Ticket ticket;
    // ---- Retry state ----
    int attempt = 1;             // 1-based execution attempt
    double backoff_total = 0.0;  // backoff accumulated across retries
  };

  /// One staging bucket and what it holds, guarded by mutex_ (the
  /// destructor alone joins threads without it); index buckets_ under it,
  /// since add_bucket may reallocate.
  struct Bucket {
    std::thread thread;
    int dart_node = -1;
    bool dead = false;  // retired by a scripted kill
    /// Ungracefully crashed (implies dead): its lease stops renewing, and
    /// any late completion from its thread is fenced.
    bool crashed = false;
    /// A crash fired while the bucket held no attempt: it crashes as it
    /// starts its next one, so a crash always strands an attempt.
    bool doomed = false;
    /// Matched by the matcher, not yet picked up by the bucket's thread.
    std::optional<Assigned> slot;
    /// The in-flight attempt, held under its lease until it ends or the
    /// heartbeat takes it back from a crashed owner.
    std::optional<Assigned> running;
    double lease_expires = 0.0;  // task-clock deadline of `running`
  };

  /// Per-tenant accounting beside the policy's ledger, kept for every
  /// tenant whether or not fair share is on (guarded by mutex_).
  struct TenantTally {
    uint64_t cap_diversions = 0;
    uint64_t hog_bytes = 0;
    size_t outstanding = 0;
  };

  void bucket_main(int bucket_index);
  /// Runs one attempt and writes the final record. `bucket_index` == -1
  /// means the in-situ fallback executor (degraded work). An injected
  /// timeout (bucket attempts only) or a thrown handler fails the bucket
  /// attempt, or sheds the task on the fallback.
  void run_task(int bucket_index, Assigned assigned, double assign_time,
                TaskOutcome outcome);
  /// Backs the task off and requeues it (prefers a different bucket); falls
  /// back to degrade/shed when no live bucket remains.
  void retry_task(int failed_bucket, Assigned assigned);
  /// Terminal failure: degrade to the fallback executor or shed, per the
  /// plan's RetryPolicy.
  void degrade_or_shed(Assigned assigned);
  void shed_task(Assigned assigned);
  /// Ends a failed bucket attempt: settles its `busy_s` of bucket time,
  /// then retries the task or, with the attempt budget spent, vacates the
  /// bucket and degrades or sheds it.
  void fail_attempt(int bucket_index, Assigned assigned, double busy_s);
  /// Fences a finished attempt. Returns true when its bucket crashed: the
  /// caller must drop every side effect, and the heartbeat takes the
  /// attempt back once its lease expires (if it has not already). On false
  /// the attempt is current and the bucket releases it.
  bool zombie_fenced(const Assigned& assigned, int bucket_index);
  // The *_locked helpers require mutex_.
  /// Registers a submission: id, ticket, outstanding tallies.
  Assigned admit_locked(InTransitTask task);
  /// Fires, in timeline order, every scripted event due at `step` that
  /// has not fired yet (the heartbeat drains the queue when the last live
  /// bucket goes).
  void fire_scripted_locked(long step);
  /// Takes bucket `b` out of the pool: a graceful kill, or an ungraceful
  /// crash of the attempt it holds.
  void stop_bucket_locked(int b, bool crash, long step);
  /// Terminal bookkeeping: fills `record` from `assigned`, settles the
  /// attempt with `busy_s` of bucket time, stores the record.
  void finish_locked(Assigned& assigned, TaskRecord& record, double busy_s);
  /// Queues a task: policy ticket, payload, overload ledger.
  void enqueue_locked(Assigned assigned);
  /// Takes back the payload of a ticket the policy released.
  Assigned dequeue_locked(const Ticket& ticket);
  /// Blocks until `drained` holds, ticking the heartbeat, then joins the
  /// crashed buckets' threads outside mutex_.
  void wait_drained(const std::function<bool()>& drained);

  Dart& dart_;  // also the fault plan and the overload ledger
  ObjectStore store_;
  Stopwatch clock_;
  int fallback_node_ = -1;  // Dart registration of the fallback executor
  int live_buckets_ = 0;    // guarded by mutex_

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // wakes buckets
  std::condition_variable drain_cv_;  // wakes drain()
  std::map<std::string, Handler> handlers_;
  TaskQueue queue_;                       // the policy (mutex_)
  std::map<uint64_t, Assigned> queued_;  // payloads of queue_'s tickets
  std::deque<int> free_buckets_;  // bucket-ready order (FCFS)
  std::vector<TaskRecord> records_;
  std::map<uint64_t, std::vector<std::byte>> results_;
  uint64_t next_task_id_ = 1;
  size_t outstanding_ = 0;
  uint64_t overload_diversions_ = 0;  // hard-budget diversions (mutex_)
  size_t scripted_next_ = 0;  // first unfired scripted event (mutex_)
  // ---- Crash recovery ----
  std::atomic<uint64_t> leases_expired_{0};
  std::atomic<uint64_t> tasks_reexecuted_{0};
  std::atomic<uint64_t> zombies_fenced_{0};
  std::map<int, TenantTally> tallies_;  // guarded by mutex_
  bool stopping_ = false;

  std::vector<Bucket> buckets_;
};

}  // namespace hia
