#include "service/campaign_service.hpp"

#include <atomic>
#include <chrono>
#include <exception>
#include <thread>
#include <utility>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace hia {

namespace {

/// The deployment fields of a service's options, as the RunConfig that
/// StagingDeployment is built from.
RunConfig deployment_config(const CampaignService::Options& options) {
  HIA_REQUIRE(options.staging_buckets >= 1, "service needs >= 1 bucket");
  RunConfig config;
  config.staging_servers = options.staging_servers;
  config.staging_buckets = options.staging_buckets;
  config.staging_replicas = options.staging_replicas;
  config.network = options.network;
  config.faults = options.faults;
  config.overload = options.overload;
  return config;
}

}  // namespace

CampaignService::CampaignService(Options options)
    : options_(std::move(options)),
      deployment_(deployment_config(options_)) {
  if (options_.pool_max > 0) {
    HIA_REQUIRE(deployment_.overload().config().enabled(),
                "pool_max needs a service overload spec (the elastic pool "
                "acts on its pressure signal)");
    ElasticBucketPool::Options popts;
    popts.min_buckets = options_.pool_min >= 1 ? options_.pool_min : 1;
    popts.max_buckets = options_.pool_max;
    HIA_REQUIRE(popts.max_buckets >= options_.staging_buckets,
                "pool_max below the initial bucket count");
    pool_ = std::make_unique<ElasticBucketPool>(staging(), popts);
  }
}

int CampaignService::add_tenant(TenantSpec spec) {
  HIA_REQUIRE(!ran_, "cannot add tenants after run()");
  HIA_REQUIRE(spec.config.faults.empty() && spec.config.overload.empty(),
              "tenant '" + spec.name +
                  "': faults/overload belong to the service, not the tenant");
  const int id = registry_.add(spec.name, spec.weight);
  staging().set_tenant_policy(id, spec.weight, spec.queue_bytes_cap,
                              spec.queue_depth_cap);
  if (spec.credit_cap > 0) {
    OverloadControl& overload = deployment_.overload();
    HIA_REQUIRE(overload.config().enabled(),
                "tenant '" + spec.name +
                    "': credit_cap needs a service overload spec");
    overload.set_tenant_credit_cap(id, spec.credit_cap);
  }
  specs_.push_back(std::move(spec));
  return id;
}

CampaignService::Status CampaignService::poll_status() {
  Status st;
  const PressureSignal sig = staging().pressure();
  st.pressure = sig.state;
  st.queue_depth = sig.queue_depth;
  st.queue_bytes = sig.queue_bytes;
  st.store_bytes = sig.store_bytes;
  st.credits_free = sig.credits_free;
  st.live_buckets = sig.live_buckets;
  st.virtual_time_s = staging().now();
  if (pool_ != nullptr) st.pool = pool_->stats();

  const std::vector<StagingService::TenantShare> shares =
      staging().tenant_shares();
  double settled_bucket_s = 0.0;
  for (const StagingService::TenantShare& s : shares) {
    settled_bucket_s += s.bucket_seconds;
  }
  const double total_weight = registry_.total_weight();

  std::lock_guard<std::mutex> status_lock(status_mutex_);
  for (int id = 1; id <= registry_.count(); ++id) {
    TenantStatus ts;
    ts.tenant = id;
    ts.name = registry_.name(id);
    ts.weight = registry_.weight(id);
    ts.target_share = total_weight > 0.0 ? ts.weight / total_weight : 0.0;
    for (const StagingService::TenantShare& s : shares) {
      if (s.tenant != id) continue;
      ts.observed_share =
          settled_bucket_s > 0.0 ? s.bucket_seconds / settled_bucket_s : 0.0;
      ts.queue_depth = s.queue_depth;
      ts.queue_bytes = s.queue_bytes;
      ts.outstanding = s.outstanding;
      break;
    }
    const OverloadControl::TenantStats os =
        deployment_.overload().tenant_stats(id);
    ts.credits_outstanding = os.credits_outstanding;
    ts.credit_cap = os.credit_cap;
    obs::Labels labels;
    labels.tenant = id;
    ts.completed = obs::counter("staging_tasks_completed", labels).value();
    ts.degraded = obs::counter("staging_tasks_degraded", labels).value();
    ts.shed = obs::counter("staging_tasks_dropped", labels).value();
    ts.deferred = obs::counter("staging_tasks_deferred", labels).value();

    ts.slo_target_s = specs_[static_cast<size_t>(id - 1)].slo_target_s;
    const obs::HistogramSnapshot turnaround =
        obs::histogram("staging_turnaround_s", labels).snapshot();
    ts.p99_turnaround_s = turnaround.quantile(0.99);
    ts.slo_samples = turnaround.count;
    const int target_bucket = obs::histogram_bucket_index(ts.slo_target_s);
    for (int b = target_bucket + 1;
         b < static_cast<int>(turnaround.buckets.size()); ++b) {
      ts.slo_over += turnaround.buckets[static_cast<size_t>(b)];
    }
    std::pair<uint64_t, uint64_t>& prev = slo_prev_[id];
    const uint64_t new_samples =
        ts.slo_samples >= prev.first ? ts.slo_samples - prev.first : 0;
    const uint64_t new_over =
        ts.slo_over >= prev.second ? ts.slo_over - prev.second : 0;
    ts.slo_burn = new_samples > 0
                      ? static_cast<double>(new_over) /
                            static_cast<double>(new_samples)
                      : 0.0;
    prev = {ts.slo_samples, ts.slo_over};
    st.tenants.push_back(std::move(ts));
  }
  return st;
}

CampaignService::ServiceReport CampaignService::run() {
  HIA_REQUIRE(!ran_, "run() may be called once");
  HIA_REQUIRE(!specs_.empty(), "no tenants registered");
  ran_ = true;

  const int n = registry_.count();
  HIA_LOG_INFO("service", "starting %d tenant campaigns on %d buckets", n,
               staging().live_bucket_count());

  std::vector<RunReport> reports(static_cast<size_t>(n));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(n));
  std::atomic<int> running{n};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(n));
  for (int id = 1; id <= n; ++id) {
    threads.emplace_back([this, id, &reports, &errors, &running] {
      const size_t i = static_cast<size_t>(id - 1);
      try {
        const TenantSpec& spec = specs_[i];
        HybridRunner runner(spec.config, deployment_, id,
                            TenantRegistry::ns_prefix(id));
        if (spec.setup) spec.setup(runner);
        reports[i] = runner.run();
      } catch (...) {
        errors[i] = std::current_exception();
      }
      running.fetch_sub(1, std::memory_order_release);
    });
  }

  // Supervision loop: while tenants run, drive the elastic pool policy.
  while (running.load(std::memory_order_acquire) > 0) {
    if (pool_ != nullptr) pool_->step();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }

  ServiceReport out;
  const std::vector<TaskRecord> all_records = staging().records();
  for (int id = 1; id <= n; ++id) {
    const size_t i = static_cast<size_t>(id - 1);
    out.tenants.push_back(
        TenantReport{id, registry_.name(id), std::move(reports[i])});
    out.rows.push_back(
        registry_.row(id, staging(), deployment_.overload(), all_records));
  }
  if (pool_ != nullptr) out.pool = pool_->stats();
  out.final_buckets = staging().live_bucket_count();

  // The tenants' reaction-side slices sum; the deployment then sets its
  // shared facts (admission totals included) over them.
  for (const TenantReport& tr : out.tenants) {
    out.resilience += tr.report.resilience;
  }
  deployment_.add_ledger(out.resilience);

  HIA_LOG_INFO("service",
               "campaigns done: %d tenants, %zu records, pool %llu grows / "
               "%llu shrinks, %d buckets at drain",
               n, all_records.size(),
               static_cast<unsigned long long>(out.pool.grows),
               static_cast<unsigned long long>(out.pool.shrinks),
               out.final_buckets);
  return out;
}

}  // namespace hia
