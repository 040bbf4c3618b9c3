#include "service/tenant.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace hia {

int TenantRegistry::add(const std::string& name, double weight) {
  HIA_REQUIRE(weight > 0.0, "tenant weight must be > 0: " + name);
  names_.push_back(name);
  weights_.push_back(weight);
  return static_cast<int>(names_.size());
}

const std::string& TenantRegistry::name(int tenant) const {
  static const std::string kDefault = "default";
  if (tenant == 0) return kDefault;
  HIA_REQUIRE(tenant >= 1 && tenant <= count(),
              "unknown tenant id " + std::to_string(tenant));
  return names_[static_cast<size_t>(tenant - 1)];
}

double TenantRegistry::weight(int tenant) const {
  if (tenant == 0) return 1.0;
  HIA_REQUIRE(tenant >= 1 && tenant <= count(),
              "unknown tenant id " + std::to_string(tenant));
  return weights_[static_cast<size_t>(tenant - 1)];
}

double TenantRegistry::total_weight() const {
  double total = 0.0;
  for (const double w : weights_) total += w;
  return total;
}

std::vector<int> TenantRegistry::ids() const {
  std::vector<int> out;
  out.reserve(static_cast<size_t>(count()));
  for (int t = 1; t <= count(); ++t) out.push_back(t);
  return out;
}

std::string TenantRegistry::ns_prefix(int tenant) {
  return tenant == 0 ? std::string{} : "t" + std::to_string(tenant) + "/";
}

std::string TenantRegistry::namespaced(int tenant, const std::string& key) {
  return ns_prefix(tenant) + key;
}

TenantRunRow TenantRegistry::row(
    int tenant, StagingService& staging, const OverloadControl& overload,
    const std::vector<TaskRecord>& records) const {
  TenantRunRow r;
  r.tenant = tenant;
  r.name = name(tenant);
  r.weight = weight(tenant);

  std::vector<double> turnarounds;
  for (const TaskRecord& rec : records) {
    if (rec.tenant != tenant) continue;
    ++r.submitted;
    switch (rec.outcome) {
      case TaskOutcome::kCompleted: ++r.completed; break;
      case TaskOutcome::kDegraded: ++r.degraded; break;
      case TaskOutcome::kDeferred: ++r.deferred; break;
      case TaskOutcome::kShed: ++r.shed; break;
    }
    if (rec.outcome == TaskOutcome::kCompleted ||
        rec.outcome == TaskOutcome::kDegraded) {
      turnarounds.push_back(rec.complete_time - rec.enqueue_time);
    }
  }
  if (!turnarounds.empty()) {
    std::sort(turnarounds.begin(), turnarounds.end());
    const size_t idx = std::min(
        turnarounds.size() - 1,
        static_cast<size_t>(0.99 * static_cast<double>(turnarounds.size())));
    r.p99_turnaround_s = turnarounds[idx];
  }

  double total_bucket_s = 0.0;
  for (const StagingService::TenantShare& share : staging.tenant_shares()) {
    total_bucket_s += share.bucket_seconds;
    if (share.tenant != tenant) continue;
    r.bucket_seconds = share.bucket_seconds;
    r.cap_diversions = share.cap_diversions;
    r.hog_bytes = share.hog_bytes;
  }
  if (total_bucket_s > 0.0) r.share_observed = r.bucket_seconds / total_bucket_s;
  const double total_w = total_weight();
  if (tenant >= 1 && total_w > 0.0) r.share_target = r.weight / total_w;

  const OverloadControl::TenantStats stats = overload.tenant_stats(tenant);
  r.admission_overdrafts = stats.overdrafts;
  r.admission_wait_s = stats.wait_s;
  r.store_peak_bytes = staging.store().tenant_peak_bytes(tenant);
  return r;
}

}  // namespace hia
