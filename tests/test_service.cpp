// Tests for the multi-tenant campaign service: registry/namespacing, the
// weighted fair-share matcher (shares track weights under backlog,
// starvation guard, arrival order across retries), per-tenant isolation
// (queue caps divert the hog on its own budget; a hog cannot blow up the
// small tenants' tail latency), scripted tenant-hog attribution, the
// elastic bucket pool, and the CampaignService end-to-end driver.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "runtime/fault.hpp"
#include "runtime/overload.hpp"
#include "service/bucket_pool.hpp"
#include "service/campaign_service.hpp"
#include "service/tenant.hpp"
#include "staging/scheduler.hpp"
#include "util/error.hpp"

namespace hia {
namespace {

// ---------------------------------------------------------------- registry

TEST(TenantRegistry, IdsNamesWeightsAndPrefixes) {
  TenantRegistry reg;
  EXPECT_EQ(reg.add("alpha", 4.0), 1);
  EXPECT_EQ(reg.add("beta", 1.0), 2);
  EXPECT_EQ(reg.count(), 2);
  EXPECT_EQ(reg.name(1), "alpha");
  EXPECT_EQ(reg.name(0), "default");
  EXPECT_DOUBLE_EQ(reg.weight(1), 4.0);
  EXPECT_DOUBLE_EQ(reg.total_weight(), 5.0);
  EXPECT_EQ(TenantRegistry::ns_prefix(0), "");
  EXPECT_EQ(TenantRegistry::ns_prefix(3), "t3/");
  EXPECT_EQ(TenantRegistry::namespaced(2, "T"), "t2/T");
  EXPECT_THROW(reg.add("zero", 0.0), Error);
  EXPECT_THROW(static_cast<void>(reg.name(7)), Error);
}

// ----------------------------------------------------------- fair share

class ServiceTest : public ::testing::Test {
 protected:
  NetworkModel net_;
  Dart dart_{net_};

  // Submits `count` sleep-for-`ms` tasks for `tenant` under its own
  // analysis name (handlers must be registered per name).
  static void submit_n(StagingService& service, int tenant, int count,
                       const std::string& analysis) {
    for (int i = 0; i < count; ++i) {
      InTransitTask task;
      task.analysis = analysis;
      task.step = i;
      task.tenant = tenant;
      service.submit(std::move(task));
    }
  }

  static void register_sleeper(StagingService& service,
                               const std::string& analysis, int ms) {
    service.register_handler(analysis, [ms](TaskContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    });
  }
};

TEST_F(ServiceTest, SharesTrackWeightsUnderBacklog) {
  StagingService service(dart_, {1, 2});
  // Weights 4:1:1; offered work proportional to the weights so every
  // tenant stays backlogged until the end — the regime where fair share
  // is defined.
  service.set_tenant_policy(1, 4.0);
  service.set_tenant_policy(2, 1.0);
  service.set_tenant_policy(3, 1.0);
  EXPECT_TRUE(service.fair_share_enabled());
  for (int t = 1; t <= 3; ++t) {
    register_sleeper(service, "work-t" + std::to_string(t), 1);
  }
  submit_n(service, 1, 80, "work-t1");
  submit_n(service, 2, 20, "work-t2");
  submit_n(service, 3, 20, "work-t3");
  service.drain();

  const auto shares = service.tenant_shares();
  ASSERT_EQ(shares.size(), 3u);
  double total = 0.0;
  for (const auto& s : shares) total += s.bucket_seconds;
  ASSERT_GT(total, 0.0);
  const std::map<int, double> target{{1, 4.0 / 6.0}, {2, 1.0 / 6.0},
                                     {3, 1.0 / 6.0}};
  for (const auto& s : shares) {
    const double observed = s.bucket_seconds / total;
    EXPECT_NEAR(observed, target.at(s.tenant), 0.15)
        << "tenant " << s.tenant << " share off target";
    EXPECT_EQ(s.outstanding, 0u);
  }

  // Conservation, per tenant, exact.
  TenantRegistry reg;
  reg.add("a", 4.0);
  reg.add("b", 1.0);
  reg.add("c", 1.0);
  const auto records = service.records();
  const OverloadControl idle(OverloadConfig{});  // admission off
  for (int t = 1; t <= 3; ++t) {
    const TenantRunRow row = reg.row(t, service, idle, records);
    EXPECT_EQ(row.completed + row.degraded + row.deferred + row.shed,
              row.submitted)
        << "tenant " << t;
    EXPECT_EQ(row.submitted, t == 1 ? 80u : 20u);
  }
}

TEST_F(ServiceTest, StarvationGuardServesTinyWeightTenant) {
  StagingService service(dart_, {1, 1});
  service.set_tenant_policy(1, 1.0);
  service.set_tenant_policy(2, 1e-4);  // would starve on deficit alone
  register_sleeper(service, "heavy", 2);
  register_sleeper(service, "tiny", 2);
  // Tiny arrives FIRST, then the heavy backlog (~0.8 s on one bucket).
  // After its first task settles, the tiny tenant's normalized service
  // exceeds anything the heavy tenant can accrue in this run, so the
  // deficit matcher alone would serve its remaining tasks dead last; only
  // the starvation guard (kStarvationWaitS) gets them served mid-run.
  submit_n(service, 2, 3, "tiny");
  submit_n(service, 1, 400, "heavy");
  service.drain();
  double tiny_worst = 0.0;
  double heavy_worst = 0.0;
  for (const TaskRecord& rec : service.records()) {
    const double turnaround = rec.complete_time - rec.enqueue_time;
    if (rec.tenant == 2) {
      tiny_worst = std::max(tiny_worst, turnaround);
    } else {
      heavy_worst = std::max(heavy_worst, turnaround);
    }
  }
  EXPECT_LT(tiny_worst, StagingService::kStarvationWaitS + 0.2);
  EXPECT_GT(heavy_worst, tiny_worst);
}

// The adversarial drill: one hog against eight small tenants. The solo
// run (no hog) bounds the small tenants' p99; with the hog present and
// capped, fair share must keep the small tenants within 2x of that bound,
// and every tenant's conservation must stay exact.
TEST_F(ServiceTest, HogCannotBlowUpSmallTenantTailLatency) {
  constexpr int kSmalls = 8;
  constexpr int kTasksPerSmall = 25;
  constexpr int kBuckets = 4;

  auto run_drill = [&](bool with_hog) {
    NetworkModel net;
    Dart dart(net);
    StagingService service(dart, {1, kBuckets});
    for (int t = 1; t <= kSmalls; ++t) {
      service.set_tenant_policy(t, 1.0);
      register_sleeper(service, "small-t" + std::to_string(t), 1);
    }
    const int hog = kSmalls + 1;
    std::thread hog_thread;
    if (with_hog) {
      // Depth cap 16: the hog's flood diverts on its own budget (degraded
      // on the hog's submitting thread) before touching the shared queue.
      service.set_tenant_policy(hog, 1.0, 0, 16);
      register_sleeper(service, "hog", 1);
      hog_thread = std::thread([&] { submit_n(service, hog, 400, "hog"); });
    }
    for (int t = 1; t <= kSmalls; ++t) {
      submit_n(service, t, kTasksPerSmall, "small-t" + std::to_string(t));
    }
    if (hog_thread.joinable()) hog_thread.join();
    service.drain();

    const auto records = service.records();
    TenantRegistry reg;
    for (int t = 1; t <= kSmalls + (with_hog ? 1 : 0); ++t) {
      reg.add("t" + std::to_string(t), 1.0);
    }
    double small_p99 = 0.0;
    const OverloadControl idle(OverloadConfig{});  // admission off
    for (int t = 1; t <= kSmalls; ++t) {
      const TenantRunRow row = reg.row(t, service, idle, records);
      EXPECT_EQ(row.completed + row.degraded + row.deferred + row.shed,
                row.submitted)
          << "tenant " << t;
      EXPECT_EQ(row.submitted, static_cast<uint64_t>(kTasksPerSmall));
      small_p99 = std::max(small_p99, row.p99_turnaround_s);
    }
    if (with_hog) {
      const TenantRunRow row = reg.row(hog, service, idle, records);
      EXPECT_EQ(row.completed + row.degraded + row.deferred + row.shed,
                row.submitted)
          << "hog";
      EXPECT_EQ(row.submitted, 400u);
      EXPECT_GT(row.cap_diversions, 0u) << "cap never bit the hog";
      EXPECT_EQ(row.cap_diversions, row.degraded + row.shed);
    }
    return small_p99;
  };

  const double solo_p99 = run_drill(false);
  const double contended_p99 = run_drill(true);
  ASSERT_GT(solo_p99, 0.0);
  // 2x the solo bound plus a small absolute epsilon for scheduler noise.
  EXPECT_LE(contended_p99, 2.0 * solo_p99 + 0.020)
      << "hog pushed small-tenant p99 beyond the isolation bound";
}

// ------------------------------------------------------- arrival order

TEST_F(ServiceTest, RetriedTasksReenterAtArrivalOrder) {
  // One bucket, aggressive injected failures: retried tasks re-enter the
  // queue while younger tasks are waiting. The scheduler asserts the
  // sorted-by-task-id invariant on every insert (HIA_ASSERT aborts the
  // process on violation), so this test failing loudly IS the check; the
  // expectations below pin conservation and that retries actually ran.
  FaultPlanConfig plan_cfg =
      FaultPlan::parse_spec("task-fail=0.4,attempts=4,backoff=0.001:0.004");
  plan_cfg.seed = 42;
  FaultPlan plan(plan_cfg);
  Dart dart(net_, {.faults = &plan});
  StagingService service(dart, {1, 1});
  service.set_tenant_policy(1, 1.0);
  register_sleeper(service, "flaky", 1);
  submit_n(service, 1, 30, "flaky");
  service.drain();

  const auto records = service.records();
  ASSERT_EQ(records.size(), 30u);
  int retries = 0;
  for (const TaskRecord& rec : records) retries += rec.attempts - 1;
  EXPECT_GT(retries, 0) << "fault plan injected no failures";
  // Completion order may interleave, but assignment must respect arrival
  // order for tasks that never failed: among first-attempt completions,
  // assign times are monotone in task id (FCFS within the tenant).
  std::vector<const TaskRecord*> clean;
  for (const TaskRecord& rec : records) {
    if (rec.attempts == 1 && rec.outcome == TaskOutcome::kCompleted) {
      clean.push_back(&rec);
    }
  }
  std::sort(clean.begin(), clean.end(),
            [](const TaskRecord* a, const TaskRecord* b) {
              return a->task_id < b->task_id;
            });
  for (size_t i = 1; i < clean.size(); ++i) {
    EXPECT_LE(clean[i - 1]->assign_time, clean[i]->assign_time + 1e-9)
        << "arrival order violated between tasks " << clean[i - 1]->task_id
        << " and " << clean[i]->task_id;
  }
}

// ------------------------------------------------------ tenant-hog fault

TEST_F(ServiceTest, ScriptedTenantHogChargesTheNamedTenant) {
  FaultPlanConfig plan_cfg = FaultPlan::parse_spec("tenant-hog=2:100000@0");
  FaultPlan plan(plan_cfg);
  OverloadControl ctrl(OverloadConfig::parse_spec("queue-bytes=1m"));
  Dart dart(net_, {.faults = &plan, .overload = &ctrl});
  StagingService service(dart, {1, 2});
  service.set_tenant_policy(1, 1.0);
  service.set_tenant_policy(2, 1.0);
  register_sleeper(service, "work", 0);
  submit_n(service, 1, 1, "work");  // step 0 submit fires the scripted hog
  service.drain();

  EXPECT_EQ(plan.stats().tenant_hog_bytes, 100000u);
  EXPECT_EQ(ctrl.stats().phantom_bytes, 100000u);
  bool found = false;
  for (const auto& share : service.tenant_shares()) {
    if (share.tenant == 2) {
      found = true;
      EXPECT_EQ(share.hog_bytes, 100000u);
    } else {
      EXPECT_EQ(share.hog_bytes, 0u);
    }
  }
  EXPECT_TRUE(found) << "hog tenant missing from the share ledger";
}

TEST(FaultSpec, TenantHogParseAndReject) {
  const FaultPlanConfig cfg = FaultPlan::parse_spec("tenant-hog=3:65536@5");
  ASSERT_EQ(cfg.scripted.size(), 1u);
  EXPECT_EQ(cfg.scripted[0].kind, ScriptedEvent::Kind::kTenantHog);
  EXPECT_EQ(cfg.scripted[0].target, 3);
  EXPECT_EQ(cfg.scripted[0].amount, 65536u);
  EXPECT_EQ(cfg.scripted[0].step, 5);
  EXPECT_THROW(FaultPlan::parse_spec("tenant-hog=3"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("tenant-hog=-1:65536@5"), Error);
  EXPECT_THROW(FaultPlan::parse_spec("tenant-hog=3:0@5"), Error);
}

// ----------------------------------------------------------- elastic pool

TEST_F(ServiceTest, ElasticPoolGrowsUnderSaturationAndShrinksWhenIdle) {
  OverloadControl ctrl(
      OverloadConfig::parse_spec("queue-depth=8,low=0.3,high=0.8"));
  Dart dart(net_, {.overload = &ctrl});
  StagingService service(dart, {1, 1});
  service.set_tenant_policy(1, 1.0);
  register_sleeper(service, "work", 2);
  ElasticBucketPool pool(service, {1, 3, 0.0});

  submit_n(service, 1, 40, "work");  // depth 40 >> budget 8: saturated
  while (service.pending_tasks() > 0) {
    pool.step();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.drain();
  EXPECT_EQ(pool.stats().grows, 2u);  // 1 -> 3, one bucket per step
  EXPECT_EQ(service.live_bucket_count(), 3);

  // Queue empty and every bucket idle: the pool gives cores back down to
  // the floor, one per step, and then holds. Poll with a deadline — a
  // just-finished bucket may take a moment to re-register as free, and
  // shrink waits for the whole fleet to be idle.
  for (int i = 0; i < 2000 && pool.stats().shrinks < 2; ++i) {
    pool.step();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(pool.stats().shrinks, 2u);
  EXPECT_EQ(service.live_bucket_count(), 1);

  // The shrunken pool still serves new work (retire never strands tasks).
  submit_n(service, 1, 4, "work");
  service.drain();
  EXPECT_EQ(service.records().size(), 44u);
}

TEST_F(ServiceTest, RetireRefusesLastLiveBucket) {
  StagingService service(dart_, {1, 1});
  EXPECT_EQ(service.retire_bucket(), -1);
  EXPECT_EQ(service.live_bucket_count(), 1);
  const int added = service.add_bucket();
  EXPECT_GE(added, 1);
  EXPECT_EQ(service.live_bucket_count(), 2);
  EXPECT_GE(service.retire_bucket(), 0);
  EXPECT_EQ(service.live_bucket_count(), 1);
}

// ------------------------------------------------------- campaign service

TEST(CampaignServiceTest, TwoTenantCampaignsEndToEnd) {
  CampaignService::Options sopts;
  sopts.staging_servers = 1;
  sopts.staging_buckets = 2;
  sopts.overload = "credits=16";
  CampaignService service(sopts);

  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {1, 1, 1};
  cfg.staging_servers = 1;
  cfg.staging_buckets = 2;
  cfg.steps = 3;

  for (int t = 0; t < 2; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = t == 0 ? "combustion" : "monitoring";
    spec.weight = t == 0 ? 2.0 : 1.0;
    spec.credit_cap = 8;
    spec.config = cfg;
    spec.setup = [](HybridRunner& runner) {
      runner.add_analysis(std::make_shared<HybridStatistics>());
    };
    EXPECT_EQ(service.add_tenant(std::move(spec)), t + 1);
  }

  const CampaignService::ServiceReport report = service.run();
  ASSERT_EQ(report.tenants.size(), 2u);
  ASSERT_EQ(report.rows.size(), 2u);
  EXPECT_EQ(report.tenants[0].name, "combustion");
  for (const CampaignService::TenantReport& tr : report.tenants) {
    // Each tenant ran a full 3-step campaign and got its own records back,
    // with the namespace prefix stripped.
    EXPECT_EQ(tr.report.in_transit.size(), 3u);
    for (const TaskRecord& rec : tr.report.in_transit) {
      EXPECT_EQ(rec.tenant, tr.tenant);
      EXPECT_EQ(rec.analysis.find("t" + std::to_string(tr.tenant) + "/"),
                std::string::npos);
    }
  }
  for (const TenantRunRow& row : report.rows) {
    EXPECT_EQ(row.completed + row.degraded + row.deferred + row.shed,
              row.submitted);
    EXPECT_EQ(row.submitted, 3u);
    EXPECT_GT(row.store_peak_bytes, 0u);
    EXPECT_DOUBLE_EQ(row.share_target, row.tenant == 1 ? 2.0 / 3.0
                                                       : 1.0 / 3.0);
  }
  // Reaction-side totals roll up across tenants.
  EXPECT_EQ(report.resilience.tasks_completed +
                report.resilience.tasks_degraded +
                report.resilience.tasks_shed + report.resilience.tasks_deferred,
            6u);
  const std::string table = format_tenant_table(report.rows);
  EXPECT_NE(table.find("combustion"), std::string::npos);
  EXPECT_NE(table.find("monitoring"), std::string::npos);
}

TEST(CampaignServiceTest, ShareErrorCountsOnlyTenantsThatHeldABucket) {
  TenantRunRow busy;
  busy.bucket_seconds = 2.0;
  busy.share_observed = 1.0;
  busy.share_target = 0.75;
  TenantRunRow idle;  // no in-transit work: no share to err
  idle.share_target = 0.25;
  EXPECT_EQ(max_share_error({busy, idle}), 0.25);
  EXPECT_EQ(max_share_error({idle}), std::nullopt);
  EXPECT_EQ(max_share_error({}), std::nullopt);
}

// Three tenants share a staging layer that loses a bucket *and* an
// object-store server mid-campaign, ungracefully. The drill asserts the
// crash-recovery contract end to end: per-tenant conservation stays exact
// (leases reclaim seized work, epoch fences drop zombie completions), and
// with replicas=2 no committed object loses its last copy. Runs under the
// TSan leg, so the lease/fence paths get a data-race audit too.
TEST(CampaignServiceTest, ThreeTenantCrashDrillConservesExactly) {
  CampaignService::Options sopts;
  sopts.staging_servers = 2;
  sopts.staging_buckets = 2;
  sopts.staging_replicas = 2;
  sopts.faults = "crash-bucket=0@1,crash-server=0@2,attempts=3,"
                 "backoff=0.0001:0.001";
  CampaignService service(sopts);

  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {1, 1, 1};
  cfg.staging_servers = 2;
  cfg.staging_buckets = 2;
  cfg.steps = 4;

  const char* names[] = {"combustion", "monitoring", "audit"};
  const double weights[] = {4.0, 2.0, 1.0};
  for (int t = 0; t < 3; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = names[t];
    spec.weight = weights[t];
    spec.config = cfg;
    spec.setup = [](HybridRunner& runner) {
      runner.add_analysis(std::make_shared<HybridStatistics>());
    };
    EXPECT_EQ(service.add_tenant(std::move(spec)), t + 1);
  }

  const CampaignService::ServiceReport report = service.run();
  ASSERT_EQ(report.rows.size(), 3u);
  uint64_t submitted_total = 0;
  for (const TenantRunRow& row : report.rows) {
    // Exactly-once terminal accounting survives the crashes, per tenant.
    EXPECT_EQ(row.completed + row.degraded + row.deferred + row.shed,
              row.submitted)
        << "tenant " << row.tenant;
    EXPECT_EQ(row.submitted, 4u);
    submitted_total += row.submitted;
  }

  // Both scripted crashes fired, and the roll-up partition matches the
  // total offered work exactly — nothing double-counted by a zombie, and
  // nothing stranded by a dead lease.
  EXPECT_EQ(report.resilience.buckets_crashed, 1u);
  EXPECT_EQ(report.resilience.servers_crashed, 1u);
  EXPECT_EQ(report.resilience.tasks_completed +
                report.resilience.tasks_degraded +
                report.resilience.tasks_shed +
                report.resilience.tasks_deferred,
            submitted_total);
  // With replicas=2 on 2 servers, every committed object had a second
  // copy: the server death must not lose anything.
  EXPECT_EQ(report.resilience.objects_lost, 0u);
  EXPECT_TRUE(report.resilience.any());
}

// The owning runner and a one-tenant service run a campaign over the same
// deployment code, so every staged statistic must come out the same.
TEST(CampaignServiceTest, OneTenantServiceMatchesOwningRunner) {
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {2, 1, 1};
  cfg.staging_servers = 1;
  cfg.staging_buckets = 2;
  cfg.steps = 3;
  auto add_stats = [](HybridRunner& runner) {
    runner.add_analysis(std::make_shared<HybridStatistics>());
  };
  // Per-step stats-hybrid models, decoded from each task's result blob.
  auto models_by_step = [](const RunReport& report, StagingService& staging) {
    std::map<long, std::vector<DescriptiveModel>> out;
    for (const TaskRecord& rec : report.in_transit) {
      const auto blob = staging.take_result(rec.task_id);
      if (blob.has_value()) out[rec.step] = deserialize_models(*blob);
    }
    return out;
  };
  auto conserved = [](const ResilienceSummary& r, uint64_t submitted) {
    return r.tasks_completed + r.tasks_degraded + r.tasks_deferred +
               r.tasks_shed ==
           submitted;
  };

  HybridRunner runner(cfg);
  add_stats(runner);
  const RunReport owned = runner.run();
  const auto owned_models = models_by_step(owned, runner.staging());

  CampaignService::Options sopts;
  sopts.staging_servers = cfg.staging_servers;
  sopts.staging_buckets = cfg.staging_buckets;
  CampaignService service(sopts);
  CampaignService::TenantSpec spec;
  spec.name = "solo";
  spec.config = cfg;
  spec.setup = add_stats;
  service.add_tenant(std::move(spec));
  const CampaignService::ServiceReport served = service.run();
  ASSERT_EQ(served.tenants.size(), 1u);
  const RunReport& tenant = served.tenants[0].report;
  const auto served_models = models_by_step(tenant, service.staging());

  EXPECT_EQ(tenant.in_transit.size(), owned.in_transit.size());
  ASSERT_EQ(owned_models.size(), static_cast<size_t>(cfg.steps));
  ASSERT_EQ(served_models.size(), owned_models.size());
  for (const auto& [step, models] : owned_models) {
    const std::vector<DescriptiveModel>& other = served_models.at(step);
    ASSERT_EQ(other.size(), models.size()) << "step " << step;
    for (size_t v = 0; v < models.size(); ++v) {
      const DescriptiveModel& a = models[v];
      const DescriptiveModel& b = other[v];
      EXPECT_EQ(a.count, b.count) << "step " << step << " variable " << v;
      const double pairs[][2] = {{a.mean, b.mean},
                                 {a.min, b.min},
                                 {a.max, b.max},
                                 {a.variance, b.variance},
                                 {a.skewness, b.skewness},
                                 {a.kurtosis_excess, b.kurtosis_excess}};
      for (const auto& [x, y] : pairs) {
        EXPECT_NEAR(x, y, 1e-12 * std::max(1.0, std::fabs(x)))
            << "step " << step << " variable " << v;
      }
    }
  }

  // Exact conservation on both paths, against the same offered work.
  EXPECT_TRUE(conserved(owned.resilience, owned.in_transit.size()));
  EXPECT_TRUE(conserved(served.resilience, tenant.in_transit.size()));
  ASSERT_EQ(served.rows.size(), 1u);
  const TenantRunRow& row = served.rows[0];
  EXPECT_EQ(row.submitted, owned.in_transit.size());
  EXPECT_EQ(row.completed + row.degraded + row.deferred + row.shed,
            row.submitted);
}

TEST(CampaignServiceTest, RejectsTenantOwnedFaultSpecs) {
  CampaignService::Options sopts;
  sopts.staging_servers = 1;
  sopts.staging_buckets = 1;
  CampaignService service(sopts);
  CampaignService::TenantSpec spec;
  spec.name = "bad";
  spec.config.faults = "drop=0.5";
  EXPECT_THROW(service.add_tenant(std::move(spec)), Error);
  CampaignService::TenantSpec cap;
  cap.name = "needs-overload";
  cap.credit_cap = 4;  // no service overload spec to hang the cap on
  EXPECT_THROW(service.add_tenant(std::move(cap)), Error);
}

// An elastic pool acts on the pressure signal, which an idle ledger never
// raises: without an overload spec the pool could only shrink.
TEST(CampaignServiceTest, RejectsElasticPoolWithoutOverload) {
  CampaignService::Options sopts;
  sopts.staging_servers = 1;
  sopts.staging_buckets = 1;
  sopts.pool_max = 4;
  EXPECT_THROW(CampaignService{sopts}, Error);
  sopts.overload = "queue-depth=8";
  CampaignService service(sopts);
  EXPECT_EQ(service.staging().live_bucket_count(), 1);
}

// The operator console reads the shared queue and the store from the
// overload ledger, which counts them whether or not overload control is
// on: with no overload spec the shared figures still equal the tenants'.
TEST(CampaignServiceTest, StatusCountsTheSharedQueueWithoutOverload) {
  CampaignService::Options sopts;
  sopts.staging_servers = 1;
  sopts.staging_buckets = 1;
  CampaignService service(sopts);
  for (int t = 0; t < 2; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(t + 1);
    service.add_tenant(std::move(spec));
  }
  StagingService& staging = service.staging();
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  staging.register_handler("hold", [released](TaskContext&) {
    released.wait();
  });
  const int producer = service.dart().register_node("producer");
  const std::vector<double> block(64, 1.0);
  auto publish = [&](int tenant, const std::string& var, long step) {
    staging.publish(producer, TenantRegistry::namespaced(tenant, var), step,
                    Box3{{0, 0, 0}, {64, 1, 1}}, block, nullptr, tenant);
  };
  auto submit = [&](int tenant, long step) {
    publish(tenant, "x", step);
    staging.submit_for("hold", step, {TenantRegistry::namespaced(tenant, "x")},
                       SubmitRoute::kQueue, tenant);
  };

  // Tenant 1's first task holds the only bucket; three more wait behind it.
  submit(1, 0);
  for (int i = 0; i < 2000 && staging.pending_tasks() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(staging.free_bucket_count(), 0);
  submit(1, 1);
  submit(1, 2);
  submit(2, 0);
  publish(2, "resident", 0);  // stays in the store

  const CampaignService::Status st = service.poll_status();
  size_t depth = 0, bytes = 0;
  for (const CampaignService::TenantStatus& t : st.tenants) {
    depth += t.queue_depth;
    bytes += t.queue_bytes;
  }
  EXPECT_EQ(st.pressure, PressureState::kNominal);
  EXPECT_EQ(depth, 3u);
  EXPECT_EQ(st.queue_depth, depth);
  EXPECT_EQ(st.queue_bytes, bytes);
  EXPECT_GT(st.queue_bytes, 0u);
  EXPECT_GT(st.store_bytes, 0u);
  EXPECT_EQ(st.credits_free, -1);

  release.set_value();
  staging.drain();
  EXPECT_EQ(service.poll_status().queue_depth, 0u);
}

}  // namespace
}  // namespace hia
