// TenantRegistry — identity and namespacing for multi-tenant campaigns.
//
// The staging layers (ObjectStore, OverloadControl, StagingService) account
// per tenant by *integer id* so they never depend on the service layer;
// this registry is the service-side source of truth mapping those ids to
// human names, weights, and the key-namespace prefix that keeps two
// tenants' variables (and handlers) from colliding inside the shared
// object store. Tenant 0 is the implicit default single-campaign tenant
// with an empty prefix, which is what keeps every pre-existing single-run
// path byte-identical.
#pragma once

#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "runtime/overload.hpp"
#include "staging/scheduler.hpp"

namespace hia {

class TenantRegistry {
 public:
  /// Registers a tenant; ids are dense starting at 1 (0 is reserved for
  /// the default tenant). `weight` is its fair-share weight (> 0).
  int add(const std::string& name, double weight);

  /// Registered tenants (excluding the implicit default).
  [[nodiscard]] int count() const { return static_cast<int>(names_.size()); }
  [[nodiscard]] const std::string& name(int tenant) const;
  [[nodiscard]] double weight(int tenant) const;
  [[nodiscard]] double total_weight() const;
  /// All registered ids, ascending (1..count).
  [[nodiscard]] std::vector<int> ids() const;

  /// The key-namespace prefix for a tenant: "" for the default tenant,
  /// "t<i>/" otherwise. Every variable a tenant publishes and every
  /// handler it registers lives under this prefix in the shared service.
  [[nodiscard]] static std::string ns_prefix(int tenant);
  /// `ns_prefix(tenant) + key`.
  [[nodiscard]] static std::string namespaced(int tenant,
                                              const std::string& key);

  /// Assembles one tenant's report row from the shared ledgers and its own
  /// (prefix-stripped) task records: conservation counts and p99 from the
  /// records, share/caps/hog from the staging scheduler, gate stats from
  /// the overload ledger (zeros while it is idle), store residency from
  /// the object store.
  [[nodiscard]] TenantRunRow row(int tenant, StagingService& staging,
                                 const OverloadControl& overload,
                                 const std::vector<TaskRecord>& records) const;

 private:
  std::vector<std::string> names_;   // index = id - 1
  std::vector<double> weights_;
};

}  // namespace hia
