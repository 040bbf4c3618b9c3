// Virtual-time unit tests of the staging policy (staging/policy.hpp): the
// queue is pure and clock-injected, so every case drives `now` by hand —
// no threads, no sleeps. Covers arrival order across backoff, last-bucket
// avoidance, the provisional charge, tie-breaking, the starvation guard,
// and the tenant-cap-before-wall divert order.
#include <gtest/gtest.h>

#include <optional>

#include "staging/policy.hpp"
#include "util/error.hpp"

namespace hia {
namespace {

Ticket ticket(uint64_t id, int tenant = 0, double enqueue_time = 0.0) {
  return {.id = id, .tenant = tenant, .bytes = 64,
          .enqueue_time = enqueue_time};
}

uint64_t pick_id(TaskQueue& q, double now, int bucket = 0, int live = 1) {
  const std::optional<Ticket> t = q.pick(bucket, live, now);
  return t ? t->id : 0;
}

TEST(PolicyTest, FcfsOrderSurvivesABackoffReinsert) {
  TaskQueue q;
  for (uint64_t id = 1; id <= 3; ++id) q.push(ticket(id));
  Ticket failed = *q.pick(0, 2, 0.0);
  ASSERT_EQ(failed.id, 1u);
  // The attempt failed on bucket 0 and backs off until t=0.1.
  failed.last_bucket = 0;
  failed.not_before = 0.1;
  q.push(failed);
  EXPECT_DOUBLE_EQ(q.next_release(0.0), 0.1);
  EXPECT_EQ(pick_id(q, 0.05, 1, 2), 2u);  // task 1 still backing off
  // At the release instant the ticket is pickable and no longer pending:
  // a matcher that reads one `now` for both never sleeps past it.
  EXPECT_DOUBLE_EQ(q.next_release(0.1), -1.0);
  // Released: task 1 re-enters at its arrival position, ahead of task 3.
  EXPECT_DOUBLE_EQ(q.next_release(0.2), -1.0);
  EXPECT_EQ(pick_id(q, 0.2, 1, 2), 1u);
  EXPECT_EQ(pick_id(q, 0.2, 1, 2), 3u);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(q.pick(0, 2, 0.2).has_value());
}

TEST(PolicyTest, LastBucketAvoidanceNeedsAnotherLiveBucket) {
  TaskQueue q;
  Ticket t = ticket(7);
  t.last_bucket = 0;
  q.push(t);
  // Bucket 0 failed this task; with a second live bucket it waits for it.
  EXPECT_FALSE(q.pick(0, 2, 0.0).has_value());
  EXPECT_EQ(pick_id(q, 0.0, 1, 2), 7u);
  // With bucket 0 the only live one, avoiding it would strand the task.
  q.push(t);
  EXPECT_EQ(pick_id(q, 0.0, 0, 1), 7u);
}

TEST(PolicyTest, ProvisionalChargeSpreadsASameInstantBurst) {
  TaskQueue q;
  q.set_tenant(1, 1.0);
  q.set_tenant(2, 1.0);
  q.push(ticket(1, 1));
  q.push(ticket(2, 1));
  q.push(ticket(3, 2));
  q.push(ticket(4, 2));
  // Two buckets free at one instant: nothing has settled yet, so only the
  // provisional charge on tenant 1's first pick sends the second to 2.
  Ticket a = *q.pick(0, 2, 0.0);
  Ticket b = *q.pick(1, 2, 0.0);
  EXPECT_EQ(a.tenant, 1);
  EXPECT_EQ(b.tenant, 2);
  EXPECT_GT(a.charge_s, 0.0);
  EXPECT_GT(q.tenants().at(1).inflight_s, 0.0);
  // Settling replaces the charge with real occupancy and seeds the EWMA
  // that sizes the tenant's next charge.
  q.settle(a, 0.25);
  EXPECT_EQ(a.charge_s, 0.0);
  EXPECT_DOUBLE_EQ(q.tenants().at(1).inflight_s, 0.0);
  EXPECT_DOUBLE_EQ(q.tenants().at(1).service_s, 0.25);
  EXPECT_DOUBLE_EQ(q.tenants().at(1).ewma_task_s, 0.25);
  q.settle(b, 0.25);
  Ticket c = *q.pick(0, 2, 0.0);
  EXPECT_DOUBLE_EQ(c.charge_s, 0.25);
  // Settling twice is harmless: the charge is already gone.
  q.settle(a, 0.0);
  EXPECT_DOUBLE_EQ(q.tenants().at(1).service_s, 0.25);
}

TEST(PolicyTest, TiesGoToTheLowestTenant) {
  TaskQueue q;
  q.set_tenant(3, 1.0);
  q.set_tenant(2, 1.0);
  q.push(ticket(1, 3));  // older, but of the higher tenant id
  q.push(ticket(2, 2));
  EXPECT_EQ(pick_id(q, 0.0), 2u);
  EXPECT_EQ(pick_id(q, 0.0), 1u);
}

TEST(PolicyTest, StarvationGuardFiresAfterTheWait) {
  TaskQueue q;
  q.set_tenant(1, 1.0);
  q.set_tenant(2, 1e-4);
  // Tenant 2 already holds far more normalized service than tenant 1.
  q.push(ticket(1, 2));
  Ticket served = *q.pick(0, 1, 0.0);
  q.settle(served, 1.0);
  q.push(ticket(2, 2, 0.0));
  q.push(ticket(3, 1, 0.0));
  q.push(ticket(4, 1, 0.0));
  // Within the wait, fair share serves tenant 1 ...
  EXPECT_EQ(pick_id(q, TaskQueue::kStarvationWaitS), 3u);
  // ... past it, the oldest task goes first whatever its tenant's deficit.
  EXPECT_EQ(pick_id(q, TaskQueue::kStarvationWaitS + 1e-3), 2u);
  EXPECT_EQ(pick_id(q, TaskQueue::kStarvationWaitS + 1e-3), 4u);
}

TEST(PolicyTest, TenantCapsDivertBeforeTheGlobalWall) {
  // A wall that admits two queued tickets.
  TaskQueue q([](size_t depth, size_t) { return depth >= 2; });
  using D = TaskQueue::Divert;
  q.set_tenant(1, 1.0, /*queue_bytes_cap=*/0, /*queue_depth_cap=*/1);
  q.set_tenant(2, 1.0, /*queue_bytes_cap=*/100);
  EXPECT_EQ(q.would_divert(1, 64), D::kNone);
  q.push(ticket(1, 1));
  EXPECT_EQ(q.would_divert(1, 64), D::kTenantCap);  // depth cap reached
  EXPECT_EQ(q.would_divert(2, 101), D::kTenantCap);  // over its byte cap
  EXPECT_EQ(q.would_divert(2, 64), D::kNone);
  q.push(ticket(2, 2));
  // Both tenants at or past a cap: the cap answers before the full wall.
  EXPECT_EQ(q.would_divert(1, 64), D::kTenantCap);
  EXPECT_EQ(q.would_divert(2, 64), D::kTenantCap);
  EXPECT_EQ(q.would_divert(3, 1), D::kQueueWall);
  EXPECT_EQ(q.tenants().at(2).queue_bytes, 64u);
  // Draining the queue releases every tenant's share.
  EXPECT_EQ(q.take_all().size(), 2u);
  EXPECT_EQ(q.tenants().at(1).queue_depth, 0u);
  EXPECT_EQ(q.would_divert(1, 64), D::kNone);
}

TEST(PolicyTest, RejectsNonPositiveWeights) {
  TaskQueue q;
  EXPECT_THROW(q.set_tenant(1, 0.0), Error);
  EXPECT_FALSE(q.fair_share());
}

}  // namespace
}  // namespace hia
