// CampaignService — the multi-tenant campaign driver (the service layer
// over the paper's staging framework).
//
// One StagingDeployment — Dart transport, DataSpaces object store, bucket
// pool, overload ledger — multiplexes N concurrent analysis campaigns
// ("tenants"); N may be 1. Each tenant runs a full HybridRunner campaign
// (simulation + in-situ stages + in-transit submissions) on its own
// thread, borrowing the deployment:
//
//   * isolation  — per-tenant namespaces in the object store, per-tenant
//     credit ledgers at the admission gate, per-tenant queue caps at the
//     scheduler (a hog diverts on its own budget before touching the
//     shared one);
//   * fairness   — the scheduler's weighted fair-share matcher divides
//     bucket time by the tenants' weights, with starvation protection;
//   * elasticity — an ElasticBucketPool grows the bucket census under
//     sustained saturation and retires idle buckets when pressure clears.
//
// The service owns the deployment, and with it the fault plan (including
// scripted `tenant-hog` bursts) and the overload control; tenant configs
// must leave both empty.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/framework.hpp"
#include "service/bucket_pool.hpp"
#include "service/tenant.hpp"

namespace hia {

class CampaignService {
 public:
  struct Options {
    int staging_servers = 2;
    int staging_buckets = 4;  // initial pool size
    /// Object-store replication factor (clamped to [1, staging_servers]).
    /// With R > 1 committed objects survive R-1 crash-server losses.
    int staging_replicas = 1;
    NetworkParams network{};
    /// Service-wide fault plan (FaultPlan::parse_spec grammar, including
    /// `tenant-hog=T:B@N`). Empty = faults off.
    std::string faults;
    uint64_t fault_seed = 0;
    /// Service-wide overload spec (OverloadConfig::parse_spec grammar).
    /// Empty = overload off: an idle ledger, so no admission gate and a
    /// pressure state that stays Nominal (queue and store still counted).
    std::string overload;
    /// Elastic pool bounds; both 0 = fixed pool of staging_buckets.
    /// pool_max > 0 needs an overload spec: the pool acts on its pressure.
    int pool_min = 0;
    int pool_max = 0;
    double pool_cooldown_s = 0.25;
  };

  struct TenantSpec {
    std::string name;
    double weight = 1.0;
    /// Scheduler queue caps (0 = uncapped).
    size_t queue_bytes_cap = 0;
    size_t queue_depth_cap = 0;
    /// Admission credits the tenant may hold at once (0 = uncapped;
    /// effective only when the service overload spec sets credits).
    int credit_cap = 0;
    /// Turnaround SLO target for the operator console: poll_status()
    /// reports the fraction of completed tasks whose turnaround exceeded
    /// this, per polling interval ("SLO burn").
    double slo_target_s = 0.05;
    /// The tenant's campaign: sim size, steps, codec, steering policy.
    /// `faults` and `overload` must be empty — the service owns those.
    RunConfig config;
    /// Called with the tenant's runner before run(): add_analysis here.
    std::function<void(HybridRunner&)> setup;
  };

  explicit CampaignService(Options options);

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  /// Registers a tenant campaign; returns its tenant id (1-based).
  /// Must be called before run().
  int add_tenant(TenantSpec spec);

  struct TenantReport {
    int tenant = 0;
    std::string name;
    RunReport report;  // the tenant's own records, prefix-stripped
  };

  struct ServiceReport {
    std::vector<TenantReport> tenants;   // in tenant-id order
    std::vector<TenantRunRow> rows;      // ready for format_tenant_table
    ElasticBucketPool::Stats pool;
    int final_buckets = 0;               // live buckets at drain
    /// The whole service's ledger: the tenants' reaction sides summed,
    /// plus the deployment's global injection side (scripted faults,
    /// phantom bytes, hog bursts, crash recovery, retransmits).
    ResilienceSummary resilience;
  };

  /// Runs every registered tenant campaign concurrently to completion and
  /// returns the combined report. May be called once.
  ServiceReport run();

  // ---- Live operator console ----

  /// One tenant's row in a status snapshot. Counts come from the labeled
  /// telemetry registries (obs/), share and queue figures from the
  /// scheduler's fair-share ledger, credits from the admission gate.
  struct TenantStatus {
    int tenant = 0;
    std::string name;
    double weight = 1.0;
    double target_share = 0.0;    // weight / total weight
    double observed_share = 0.0;  // settled bucket-seconds share so far
    size_t queue_depth = 0;       // this tenant's tasks waiting now
    size_t queue_bytes = 0;
    size_t outstanding = 0;       // submitted, not yet terminal
    int credits_outstanding = 0;  // admission credits held right now
    int credit_cap = 0;           // configured cap (0 = uncapped)
    int64_t completed = 0;        // terminal-state counts so far
    int64_t degraded = 0;
    int64_t shed = 0;
    int64_t deferred = 0;
    double p99_turnaround_s = 0.0;  // rolling p99 from the labeled histogram
    double slo_target_s = 0.0;      // the tenant's configured target
    /// Fraction of turnaround samples recorded since the previous
    /// poll_status() call that exceeded slo_target_s (0 when no new
    /// samples arrived). Bucketed: a sample counts as over-target only
    /// when it landed strictly above the bucket covering the target, so
    /// the burn rate is a slight under-estimate (<= one bucket width,
    /// ~9% relative).
    double slo_burn = 0.0;
    uint64_t slo_samples = 0;  // cumulative turnaround samples
    uint64_t slo_over = 0;     // cumulative samples over target
  };

  /// Service-wide status snapshot for operator consoles (hia_top, the
  /// --status-interval digest). Lock-cheap: a handful of short internal
  /// locks, no allocation proportional to task count. Safe to call
  /// concurrently with run() from any thread, and before/after it.
  struct Status {
    PressureState pressure = PressureState::kNominal;
    size_t queue_depth = 0;  // shared staging queue, all tenants
    size_t queue_bytes = 0;
    size_t store_bytes = 0;
    int credits_free = -1;  // -1 = admission gate off
    int live_buckets = 0;
    double virtual_time_s = 0.0;  // staging task-clock seconds
    ElasticBucketPool::Stats pool;  // zeros when the pool is fixed
    std::vector<TenantStatus> tenants;  // in tenant-id order
  };
  [[nodiscard]] Status poll_status();

  [[nodiscard]] StagingService& staging() { return deployment_.staging(); }
  [[nodiscard]] Dart& dart() { return deployment_.dart(); }
  [[nodiscard]] TenantRegistry& tenants() { return registry_; }

 private:
  Options options_;
  StagingDeployment deployment_;
  std::unique_ptr<ElasticBucketPool> pool_;
  TenantRegistry registry_;
  std::vector<TenantSpec> specs_;  // index = tenant id - 1
  bool ran_ = false;

  /// SLO-burn delta state: per tenant, the (samples, over-target) totals
  /// seen at the previous poll_status() call. Guarded by status_mutex_ so
  /// concurrent pollers each get a consistent (if interleaved) delta.
  std::mutex status_mutex_;
  std::map<int, std::pair<uint64_t, uint64_t>> slo_prev_;
};

}  // namespace hia
