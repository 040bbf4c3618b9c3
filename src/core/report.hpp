// Paper-style report formatting: renders a RunReport as the rows of
// Table II and the Fig. 6 timing breakdown, and renders machine/grid
// configurations as Table I.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "io/ost_model.hpp"
#include "runtime/topology.hpp"
#include "sim/grid.hpp"

namespace hia {

/// Table II: per-analysis in-situ time, data movement time/size, and
/// in-transit time (averaged per invocation over the run).
std::string format_table2(const RunReport& report,
                          const std::vector<std::string>& analyses);

/// Fig. 6: timing breakdown relative to the simulation time per step.
std::string format_fig6(const RunReport& report,
                        const std::vector<std::string>& analyses);

/// Resilience block: the tasks-submitted total, then one row per
/// kLedgerFields entry whose console group is open (see LedgerGroup).
/// Callers normally print it only when the ledger's any() is
/// true — on a fault-free run every row is zero.
std::string format_resilience(const ResilienceSummary& r);

/// Multi-tenant service block: one row per tenant with its conservation
/// counts, observed vs. target bucket-time share, p99 turnaround, and
/// isolation ledger (cap diversions, gate waits, hog bytes).
std::string format_tenant_table(const std::vector<TenantRunRow>& rows);

/// The largest |observed - target| bucket-time share over the tenants that
/// held a bucket at all; none when no tenant did (a run without in-transit
/// work has no share to err).
std::optional<double> max_share_error(const std::vector<TenantRunRow>& rows);

/// One Table I column: core allocation, data size, simulation time, and
/// modeled I/O read/write time through the OST model.
struct Table1Column {
  MachineConfig machine;
  GlobalGrid grid;
  double sim_step_seconds = 0.0;  // measured
  OstModel ost{};
};
std::string format_table1(const std::vector<Table1Column>& columns);

}  // namespace hia
