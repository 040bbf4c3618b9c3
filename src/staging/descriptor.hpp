// Shared descriptor types for the staging layer: RDMA-enabled data-block
// descriptors inserted by in-situ ranks on *data-ready* events, and the
// in-transit task descriptors queued for staging buckets.
#pragma once

#include <string>
#include <vector>

#include "sim/box.hpp"
#include "transport/dart.hpp"

namespace hia {

/// Describes one published data block: which variable/timestep/sub-domain
/// it holds and where to pull it from.
struct DataDescriptor {
  std::string variable;
  long step = 0;
  Box3 box;             // global index-space bounds of the block
  DartHandle handle;    // RDMA handle registered with Dart
  int src_node = -1;    // publishing in-situ node
  /// Owning tenant (0 = the default single-campaign tenant). Multi-tenant
  /// runs namespace `variable` with the tenant prefix as well; the id is
  /// what the byte-accounting ledgers charge.
  int tenant = 0;
};

/// An in-transit task: run `analysis` over `inputs` for timestep `step`.
struct InTransitTask {
  std::string analysis;
  long step = 0;
  std::vector<DataDescriptor> inputs;
  /// Caller-assigned id, unique per service instance once submitted.
  uint64_t task_id = 0;
  /// Owning tenant: the fair-share matcher schedules by tenant deficit and
  /// every queue/credit/diversion charge lands on this id (0 = default).
  int tenant = 0;
};

/// How a task left the staging pipeline. Every submitted task ends in
/// exactly one record with exactly one outcome — nothing is lost silently.
enum class TaskOutcome {
  kCompleted,  // ran in-transit on a staging bucket
  kDegraded,   // staging gave up after K attempts; ran on the in-situ
               // fallback executor instead (work conserved)
  kShed,       // staging gave up and the plan said shed: dropped, counted
  kDeferred,   // parked one step by the steering policy; the payload was
               // resubmitted as a *new* task, so this record is terminal
               // and conservation still partitions submissions exactly
};

inline const char* to_string(TaskOutcome outcome) {
  switch (outcome) {
    case TaskOutcome::kCompleted: return "completed";
    case TaskOutcome::kDegraded: return "degraded";
    case TaskOutcome::kShed: return "shed";
    case TaskOutcome::kDeferred: return "deferred";
  }
  return "?";
}

/// Timing record for one executed in-transit task (Fig. 5 / Fig. 6 data).
///
/// Ordering invariant: `task_id` is assigned monotonically at submit, and
/// the scheduler keeps its queue sorted by task_id — a task released from
/// retry backoff re-enters at its *arrival position*, not the queue tail,
/// so FCFS order is preserved across backoff (asserted at every queue
/// insert). Under weighted fair-share, arrival order still holds *within*
/// each tenant; cross-tenant order intentionally follows the tenants'
/// normalized service deficits instead.
struct TaskRecord {
  uint64_t task_id = 0;
  std::string analysis;
  long step = 0;
  int tenant = 0;  // owning tenant (0 = default)
  // All three timestamps are *virtual task-clock* seconds since service
  // start (StagingService::now()), never wall-epoch time — queue-wait math
  // (assign - enqueue) would silently explode if the domains ever mixed;
  // the scheduler guards this invariant with an assert on every record.
  int bucket = -1;              // -1 = the in-situ fallback executor
  double enqueue_time = 0.0;    // seconds since service start
  double assign_time = 0.0;
  double complete_time = 0.0;
  double data_movement_seconds = 0.0;  // modeled wire time for all pulls
  size_t data_movement_bytes = 0;      // wire bytes (encoded when compressed)
  size_t data_movement_raw_bytes = 0;  // logical bytes before encoding
  double decode_seconds = 0.0;         // bucket-side codec decode time
  double compute_seconds = 0.0;        // whole handler wall time, pulls
                                       // and decodes included

  // ---- Resilience ledger (all defaults when faults are off) ----
  TaskOutcome outcome = TaskOutcome::kCompleted;
  int attempts = 1;                // execution attempts including the final one
  double backoff_seconds = 0.0;    // total retry backoff the task waited
  int last_failed_bucket = -1;     // bucket of the most recent failed attempt
};

}  // namespace hia
