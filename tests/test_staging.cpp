// Tests for the staging layer: the sharded object store and the FCFS
// pull-based bucket scheduler (data-ready / bucket-ready protocol,
// temporal multiplexing, failure isolation).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "obs/attrib.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "staging/object_store.hpp"
#include "staging/scheduler.hpp"

namespace hia {
namespace {

DataDescriptor make_desc(const std::string& var, long step, int64_t x0) {
  DataDescriptor d;
  d.variable = var;
  d.step = step;
  d.box = Box3{{x0, 0, 0}, {x0 + 4, 4, 4}};
  d.src_node = 0;
  return d;
}

TEST(ObjectStore, TakeRemoves) {
  ObjectStore store(2);
  store.put(make_desc("T", 1, 0));
  store.put(make_desc("T", 1, 4));
  store.put(make_desc("T", 2, 0));  // other step
  store.put(make_desc("P", 1, 0));  // other variable
  EXPECT_EQ(store.query_all("T", 1).size(), 2u);
  EXPECT_EQ(store.size(), 4u);
  const auto taken = store.take("T", 1);
  EXPECT_EQ(taken.size(), 2u);
  EXPECT_TRUE(store.query_all("T", 1).empty());
  EXPECT_TRUE(store.take("T", 1).empty());
}

TEST(ObjectStore, RpcsShardAcrossServers) {
  ObjectStore store(8);
  // Many distinct (var, step) keys spread load over servers by hashing.
  for (int v = 0; v < 40; ++v) {
    for (long s = 0; s < 5; ++s) {
      store.put(make_desc("var" + std::to_string(v), s, 0));
    }
  }
  const auto rpcs = store.rpc_counts();
  ASSERT_EQ(rpcs.size(), 8u);
  uint64_t total = 0, served = 0;
  for (const auto c : rpcs) {
    total += c;
    if (c > 0) ++served;
  }
  EXPECT_EQ(total, 200u);
  EXPECT_GE(served, 6u);  // nearly all servers participate
}

class StagingTest : public ::testing::Test {
 protected:
  NetworkModel net_;
  Dart dart_{net_};
};

TEST_F(StagingTest, ExecutesSubmittedTask) {
  StagingService service(dart_, {2, 2});
  std::atomic<int> ran{0};
  service.register_handler("count", [&](TaskContext& ctx) {
    ran.fetch_add(1);
    EXPECT_EQ(ctx.task().analysis, "count");
    EXPECT_EQ(ctx.task().step, 7);
  });
  service.submit(InTransitTask{"count", 7, {}, 0});
  service.drain();
  EXPECT_EQ(ran.load(), 1);
  const auto records = service.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].analysis, "count");
  EXPECT_GE(records[0].assign_time, records[0].enqueue_time);
  EXPECT_GE(records[0].complete_time, records[0].assign_time);
}

TEST_F(StagingTest, PublishPullRoundTrip) {
  StagingService service(dart_, {2, 2});
  const int sim = dart_.register_node("sim-0");

  std::vector<double> payload{3.0, 1.0, 4.0, 1.0, 5.0};
  service.publish(sim, "T", 3, Box3{{0, 0, 0}, {5, 1, 1}}, payload);

  std::vector<double> pulled;
  std::mutex m;
  service.register_handler("grab", [&](TaskContext& ctx) {
    ASSERT_EQ(ctx.task().inputs.size(), 1u);
    auto data = ctx.pull_doubles(ctx.task().inputs[0]);
    std::lock_guard lock(m);
    pulled = std::move(data);
  });
  service.submit_for("grab", 3, {"T"});
  service.drain();
  EXPECT_EQ(pulled, payload);

  // Input regions are released after the task completes.
  EXPECT_EQ(dart_.num_published(), 0u);
  const auto records = service.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].data_movement_bytes, payload.size() * sizeof(double));
  EXPECT_GT(records[0].data_movement_seconds, 0.0);
}

TEST_F(StagingTest, ResultBlobRetrievable) {
  StagingService service(dart_, {1, 1});
  service.register_handler("emit", [](TaskContext& ctx) {
    ctx.set_result({std::byte{1}, std::byte{2}});
  });
  const uint64_t id = service.submit(InTransitTask{"emit", 0, {}, 0});
  service.drain();
  const auto result = service.take_result(id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 2u);
  EXPECT_FALSE(service.take_result(id).has_value());  // consumed
}

TEST_F(StagingTest, TemporalMultiplexingSpreadsBuckets) {
  // Slow tasks for successive steps must land on different buckets so the
  // pipeline decouples analysis latency from the submission rate.
  StagingService service(dart_, {1, 4});
  service.register_handler("slow", [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  for (long step = 0; step < 4; ++step) {
    service.submit(InTransitTask{"slow", step, {}, 0});
  }
  service.drain();
  const auto records = service.records();
  ASSERT_EQ(records.size(), 4u);
  std::set<int> buckets;
  for (const auto& r : records) buckets.insert(r.bucket);
  EXPECT_EQ(buckets.size(), 4u);  // each step on its own bucket

  // With pipelining, total wall time is far below 4 x 50 ms.
  double latest = 0.0;
  for (const auto& r : records) latest = std::max(latest, r.complete_time);
  double earliest_assign = 1e9;
  for (const auto& r : records) {
    earliest_assign = std::min(earliest_assign, r.assign_time);
  }
  EXPECT_LT(latest - earliest_assign, 0.15);
}

TEST_F(StagingTest, FcfsOrderOnSingleBucket) {
  StagingService service(dart_, {1, 1});
  std::vector<long> order;
  std::mutex m;
  service.register_handler("seq", [&](TaskContext& ctx) {
    std::lock_guard lock(m);
    order.push_back(ctx.task().step);
  });
  for (long step = 0; step < 6; ++step) {
    service.submit(InTransitTask{"seq", step, {}, 0});
  }
  service.drain();
  ASSERT_EQ(order.size(), 6u);
  for (long step = 0; step < 6; ++step) EXPECT_EQ(order[static_cast<size_t>(step)], step);
}

TEST_F(StagingTest, HandlerFailureDoesNotWedgeService) {
  StagingService service(dart_, {1, 2});
  std::atomic<int> succeeded{0};
  service.register_handler("flaky", [&](TaskContext& ctx) {
    if (ctx.task().step % 2 == 0) throw Error("injected failure");
    succeeded.fetch_add(1);
  });
  const int sim = dart_.register_node("sim-0");
  for (long step = 0; step < 6; ++step) {
    // Give failing tasks an input to verify regions are still released.
    service.publish(sim, "x", step, Box3{{0, 0, 0}, {1, 1, 1}}, {1.0});
    service.submit_for("flaky", step, {"x"});
  }
  service.drain();
  EXPECT_EQ(succeeded.load(), 3);
  EXPECT_EQ(service.records().size(), 6u);
  EXPECT_EQ(dart_.num_published(), 0u);  // released even on failure
}

/// Runs one tenant-1 task of `analysis` (one published input) through a
/// faults-off, one-bucket service and returns its record, checking that
/// the recorded lifecycle conserves the task and attributes it exactly.
TaskRecord run_one_recorded(Dart& dart, const StagingService::Handler& handler,
                            std::optional<std::vector<std::byte>>* result) {
  obs::reset_events();
  obs::enable_events();
  StagingService service(dart, {1, 1});
  service.register_handler("work", handler);
  const int sim = dart.register_node("sim-0");
  const DataDescriptor in = service.publish(
      sim, "x", 0, Box3{{0, 0, 0}, {1, 1, 1}}, {1.0}, nullptr, 1);
  InTransitTask task;
  task.analysis = "work";
  task.inputs = {in};
  task.tenant = 1;
  const uint64_t id = service.submit(task);
  service.drain();
  *result = service.take_result(id);
  EXPECT_EQ(dart.num_published(), 0u);  // the input was released once

  const obs::EventsValidation v =
      obs::validate_events(obs::events_snapshot(), 0);
  EXPECT_TRUE(v.ok) << v.error;
  if (v.tenants.size() == 1) {
    const auto& t = v.tenants[0];
    EXPECT_EQ(t.submitted, 1u);
    EXPECT_EQ(t.completed + t.degraded + t.deferred + t.shed, t.submitted);
  } else {
    ADD_FAILURE() << "expected one tenant, got " << v.tenants.size();
  }
  const obs::Attribution a = obs::attribute_events(obs::events_snapshot(), 0);
  EXPECT_TRUE(a.conserved) << a.error;
  EXPECT_EQ(a.tasks.size(), 1u);
  obs::reset_events();

  const auto records = service.records();
  EXPECT_EQ(records.size(), 1u);
  return records.empty() ? TaskRecord{} : records[0];
}

TEST_F(StagingTest, HandlerThatAlwaysThrowsIsShedWithFaultsOff) {
  // The bucket attempt throws (one attempt: faults are off), the task
  // degrades to the fallback executor, which throws too: nothing is left
  // to run it, so it is shed, never counted a completion.
  const int64_t dropped_before = obs::counter("staging_tasks_dropped").value();
  std::optional<std::vector<std::byte>> result;
  const TaskRecord r = run_one_recorded(
      dart_,
      [](TaskContext& ctx) {
        (void)ctx.pull(ctx.task().inputs.at(0));
        throw Error("analysis failed");
      },
      &result);
  EXPECT_EQ(r.outcome, TaskOutcome::kShed);
  EXPECT_FALSE(result.has_value());
  EXPECT_EQ(obs::counter("staging_tasks_dropped").value() - dropped_before, 1);
}

TEST_F(StagingTest, HandlerThatThrowsOnlyOnABucketDegrades) {
  std::optional<std::vector<std::byte>> result;
  const TaskRecord r = run_one_recorded(
      dart_,
      [](TaskContext& ctx) {
        (void)ctx.pull(ctx.task().inputs.at(0));
        if (ctx.bucket() >= 0) throw Error("bucket-side failure");
        ctx.set_result({std::byte{7}});
      },
      &result);
  EXPECT_EQ(r.outcome, TaskOutcome::kDegraded);
  EXPECT_EQ(r.bucket, -1);
  EXPECT_EQ(r.last_failed_bucket, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(*result, std::vector<std::byte>{std::byte{7}});
}

// The scheduler tallies every tenant, policy or not, so drain_tenant waits
// for an in-flight task even when no tenant policy was ever set.
TEST_F(StagingTest, DrainTenantWaitsWithoutTenantPolicy) {
  StagingService service(dart_, {1, 1});
  service.register_handler("slow", [](TaskContext&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  service.submit(InTransitTask{"slow", 0, {}, 0});
  service.drain_tenant(0);
  EXPECT_EQ(service.records().size(), 1u);
}

TEST_F(StagingTest, SubmitForUnknownAnalysisThrows) {
  StagingService service(dart_, {1, 1});
  EXPECT_THROW(service.submit(InTransitTask{"nope", 0, {}, 0}), Error);
}

TEST_F(StagingTest, ManyTasksAllComplete) {
  StagingService service(dart_, {2, 3});
  std::atomic<int> done{0};
  service.register_handler("tick", [&](TaskContext&) { done.fetch_add(1); });
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    service.submit(InTransitTask{"tick", i, {}, 0});
  }
  service.drain();
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(service.records().size(), static_cast<size_t>(kTasks));
  EXPECT_EQ(service.pending_tasks(), 0u);
}

TEST_F(StagingTest, FreeBucketInstrumentation) {
  StagingService service(dart_, {1, 3});
  // Give the buckets a moment to announce themselves.
  for (int i = 0; i < 100 && service.free_bucket_count() < 3; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service.free_bucket_count(), 3);
  EXPECT_EQ(service.num_buckets(), 3);
}

}  // namespace
}  // namespace hia
