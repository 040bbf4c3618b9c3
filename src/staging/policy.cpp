#include "staging/policy.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hia {

void TaskQueue::set_tenant(int tenant, double weight, size_t queue_bytes_cap,
                           size_t queue_depth_cap) {
  HIA_REQUIRE(weight > 0.0, "tenant weight must be > 0");
  fair_share_ = true;
  Tenant& t = tenants_[tenant];
  t.weight = weight;
  t.queue_bytes_cap = queue_bytes_cap;
  t.queue_depth_cap = queue_depth_cap;
}

TaskQueue::Divert TaskQueue::would_divert(int tenant, size_t bytes) const {
  if (auto it = tenants_.find(tenant); it != tenants_.end()) {
    const Tenant& t = it->second;
    if ((t.queue_bytes_cap > 0 && t.queue_bytes + bytes > t.queue_bytes_cap) ||
        (t.queue_depth_cap > 0 && t.queue_depth >= t.queue_depth_cap)) {
      return Divert::kTenantCap;
    }
  }
  if (wall_ && wall_(queue_.size(), bytes)) return Divert::kQueueWall;
  return Divert::kNone;
}

void TaskQueue::push(const Ticket& ticket) {
  auto pos = std::lower_bound(
      queue_.begin(), queue_.end(), ticket,
      [](const Ticket& a, const Ticket& b) { return a.id < b.id; });
  HIA_ASSERT(pos == queue_.end() || pos->id != ticket.id);
  queue_.insert(pos, ticket);
  if (fair_share_) {
    Tenant& t = tenants_[ticket.tenant];
    t.queue_bytes += ticket.bytes;
    ++t.queue_depth;
  }
}

void TaskQueue::account_remove(const Ticket& ticket) {
  // A ticket queued before fair share came on was never added.
  if (!fair_share_) return;
  Tenant& t = tenants_[ticket.tenant];
  t.queue_bytes -= std::min(t.queue_bytes, ticket.bytes);
  if (t.queue_depth > 0) --t.queue_depth;
}

std::optional<Ticket> TaskQueue::pick(int free_bucket, int live_buckets,
                                      double now) {
  auto eligible = [&](const Ticket& t) {
    return t.not_before <= now &&
           (t.last_bucket != free_bucket || live_buckets <= 1);
  };
  // Sorted by id, so the first eligible ticket is the oldest — both
  // globally and within each tenant.
  const auto oldest = std::find_if(queue_.begin(), queue_.end(), eligible);
  if (oldest == queue_.end()) return std::nullopt;
  auto best = oldest;
  if (fair_share_ && now - oldest->enqueue_time <= kStarvationWaitS) {
    auto normalized = [this](int tenant) {
      const Tenant& t = tenants_[tenant];
      return (t.service_s + t.inflight_s) / t.weight;
    };
    double best_norm = normalized(best->tenant);
    for (auto it = std::next(oldest); it != queue_.end(); ++it) {
      if (!eligible(*it)) continue;
      const double norm = normalized(it->tenant);
      if (norm < best_norm ||
          (norm == best_norm && it->tenant < best->tenant)) {
        best = it;
        best_norm = norm;
      }
    }
  }
  Ticket picked = *best;
  queue_.erase(best);
  account_remove(picked);
  if (fair_share_) {
    Tenant& t = tenants_[picked.tenant];
    // 1 ms stands in until the tenant's first attempt settles.
    picked.charge_s = t.ewma_task_s > 0.0 ? t.ewma_task_s : 1e-3;
    t.inflight_s += picked.charge_s;
  }
  return picked;
}

void TaskQueue::settle(Ticket& ticket, double busy_s) {
  if (!fair_share_) return;
  Tenant& t = tenants_[ticket.tenant];
  t.inflight_s -= std::min(t.inflight_s, ticket.charge_s);
  ticket.charge_s = 0.0;
  if (busy_s > 0.0) {
    t.service_s += busy_s;
    t.ewma_task_s =
        t.ewma_task_s <= 0.0 ? busy_s : 0.8 * t.ewma_task_s + 0.2 * busy_s;
  }
}

double TaskQueue::next_release(double now) const {
  double next = -1.0;
  for (const Ticket& t : queue_) {
    if (t.not_before > now && (next < 0.0 || t.not_before < next)) {
      next = t.not_before;
    }
  }
  return next;
}

std::vector<Ticket> TaskQueue::take_all() {
  std::vector<Ticket> out(queue_.begin(), queue_.end());
  queue_.clear();
  for (const Ticket& t : out) account_remove(t);
  return out;
}

}  // namespace hia
