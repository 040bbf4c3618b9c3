// The staging scheduler's policy (paper §IV, Fig. 5) as a pure task queue:
// data-ready tasks wait here and each bucket-ready bucket asks pick() for
// its next one. No threads, no locks, no clock of its own — every decision
// takes `now` — so StagingService runs it under its mutex on the task
// clock and planner::replay runs the same object on virtual time.
//
// The queue is sorted by task id (monotonic at submit), so a backoff-
// released retry re-enters at its arrival position and FCFS order
// survives backoff. A retry avoids the bucket it last failed on whenever
// another live bucket exists.
//
// Multi-tenancy (active only once set_tenant is called): the pick switches
// from global FCFS to weighted fair share. Each tenant accrues *normalized
// service* — settled bucket-seconds plus a provisional charge for its
// in-flight tasks, divided by its weight — and the pick serves the
// eligible tenant with the least (ties to the lowest tenant id; within a
// tenant, arrival order). The provisional charge, the tenant's smoothed
// per-attempt bucket time, keeps a burst of picks at one instant from all
// landing on one tenant. A starvation guard overrides the pick for any
// task that has waited longer than kStarvationWaitS, so a zero-weight
// mistake still cannot wedge a tenant. Per-tenant queue caps divert a
// hog's overflow to degrade/shed *before* the global hard wall, so one
// tenant's burst cannot consume the shared queue budget.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

namespace hia {

/// The policy-visible state of one task attempt.
struct Ticket {
  uint64_t id = 0;  // arrival order
  int tenant = 0;
  size_t bytes = 0;  // input wire bytes
  double enqueue_time = 0.0;  // first enqueue (the starvation guard's base)
  double not_before = 0.0;    // backoff release
  int last_bucket = -1;       // bucket of the last failed attempt
  double charge_s = 0.0;      // provisional charge while in flight
};

class TaskQueue {
 public:
  /// A task older than this is picked regardless of its tenant's deficit
  /// (starvation guard: weights shape throughput, never deny service).
  static constexpr double kStarvationWaitS = 0.5;

  /// One tenant's scheduling ledger.
  struct Tenant {
    double weight = 1.0;
    size_t queue_bytes_cap = 0;  // 0 = uncapped
    size_t queue_depth_cap = 0;  // 0 = uncapped
    double service_s = 0.0;      // settled bucket occupancy
    double inflight_s = 0.0;     // provisional charges outstanding
    double ewma_task_s = 0.0;    // smoothed per-attempt bucket seconds
    size_t queue_bytes = 0;
    size_t queue_depth = 0;
  };

  enum class Divert { kNone, kTenantCap, kQueueWall };

  /// The global hard wall: true when `bytes` more on a queue holding
  /// `depth` tickets would breach the shared budget. Empty = no wall.
  using Wall = std::function<bool(size_t depth, size_t bytes)>;

  explicit TaskQueue(Wall wall = {}) : wall_(std::move(wall)) {}

  /// Sets `tenant`'s weight (> 0) and queue caps (0 = uncapped). The first
  /// call flips the pick from FCFS to weighted fair share for good.
  void set_tenant(int tenant, double weight, size_t queue_bytes_cap = 0,
                  size_t queue_depth_cap = 0);
  [[nodiscard]] bool fair_share() const { return fair_share_; }
  /// Every tenant the queue has seen, ascending by id.
  [[nodiscard]] const std::map<int, Tenant>& tenants() const {
    return tenants_;
  }

  /// Whether `tenant`'s `bytes`-byte ticket must be diverted instead of
  /// queued: the tenant's own caps first, then the global wall.
  [[nodiscard]] Divert would_divert(int tenant, size_t bytes) const;

  void push(const Ticket& ticket);

  /// Removes and returns the ticket `free_bucket` runs next, or nothing
  /// when none is eligible at `now`. Under fair share the ticket carries
  /// the provisional charge held against its tenant until settle().
  std::optional<Ticket> pick(int free_bucket, int live_buckets, double now);

  /// Drops the attempt's provisional charge and adds `busy_s` of real
  /// bucket occupancy to its tenant's service and EWMA. Idempotent on a
  /// settled ticket when `busy_s` is 0.
  void settle(Ticket& ticket, double busy_s);

  /// Earliest backoff release still in the future (-1 = none pending).
  [[nodiscard]] double next_release(double now) const;

  /// Removes and returns every queued ticket, in arrival order.
  std::vector<Ticket> take_all();

  [[nodiscard]] size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }

 private:
  void account_remove(const Ticket& ticket);

  Wall wall_;
  std::deque<Ticket> queue_;  // sorted by id
  std::map<int, Tenant> tenants_;
  bool fair_share_ = false;
};

}  // namespace hia
