#include "core/report.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "sim/species.hpp"
#include "util/table.hpp"

namespace hia {

std::string format_table2(const RunReport& report,
                          const std::vector<std::string>& analyses) {
  // "data movement size" is the logical (pre-codec) volume, as the paper
  // reports it; "wire size" is what actually crossed the modeled network
  // after the staging codec, and "ratio" is logical/wire.
  Table table({"analysis", "in-situ time (s)", "data movement time (s)",
               "data movement size", "wire size", "ratio", "codec time (s)",
               "in-transit time (s)"});
  for (const std::string& a : analyses) {
    const double in_situ = report.mean_in_situ_seconds(a);
    const double move_s = report.mean_movement_seconds(a);
    const double wire_b = report.mean_movement_bytes(a);
    const double raw_b = report.mean_movement_raw_bytes(a);
    const double decode_s = report.mean_decode_seconds(a);
    const double transit = report.mean_in_transit_seconds(a);
    const bool hybrid = wire_b > 0.0;
    table.add_row({a, fmt_fixed(in_situ, 4),
                   hybrid ? fmt_fixed(move_s, 4) : "-",
                   hybrid ? fmt_bytes(raw_b) : "-",
                   hybrid ? fmt_bytes(wire_b) : "-",
                   hybrid ? fmt_fixed(report.compression_ratio(a), 2) + "x"
                          : "-",
                   hybrid && decode_s > 0.0 ? fmt_fixed(decode_s, 4) : "-",
                   hybrid ? fmt_fixed(transit, 4) : "-"});
  }
  return table.render();
}

std::string format_fig6(const RunReport& report,
                        const std::vector<std::string>& analyses) {
  const double sim = report.mean_sim_step_seconds();
  Table table({"component", "seconds/step", "% of simulation"});
  table.add_row({"simulation", fmt_fixed(sim, 4), "100.00%"});
  for (const std::string& a : analyses) {
    const double in_situ = report.mean_in_situ_seconds(a);
    table.add_row(
        {a + " (in-situ)", fmt_fixed(in_situ, 4), fmt_percent(in_situ, sim)});
    const double move = report.mean_movement_seconds(a);
    if (move > 0.0) {
      table.add_row({a + " (data movement)", fmt_fixed(move, 4),
                     fmt_percent(move, sim)});
    }
    const double decode = report.mean_decode_seconds(a);
    if (decode > 0.0) {
      table.add_row({a + " (codec decode, async)", fmt_fixed(decode, 4),
                     fmt_percent(decode, sim)});
    }
    const double transit = report.mean_in_transit_seconds(a);
    if (move > 0.0 && transit > 0.0) {
      table.add_row({a + " (in-transit, async)", fmt_fixed(transit, 4),
                     fmt_percent(transit, sim)});
    }
  }
  return table.render();
}

std::string format_resilience(const ResilienceSummary& r) {
  auto bit = [](LedgerGroup g) { return 1u << static_cast<unsigned>(g); };
  unsigned open = bit(LedgerGroup::kTasks) | bit(LedgerGroup::kFrames);
  for (const LedgerField& f : kLedgerFields) {
    if (f.trigger && f.value(r) != 0.0) open |= bit(f.group);
  }
  // The hog row is a line of the steering group: never shown without it.
  if ((open & bit(LedgerGroup::kSteer)) == 0) open &= ~bit(LedgerGroup::kHog);
  Table table({"resilience metric", "value"});
  table.add_row({"tasks submitted",
                 std::to_string(r.tasks_completed + r.tasks_degraded +
                                r.tasks_deferred + r.tasks_shed)});
  for (const LedgerField& f : kLedgerFields) {
    if ((open & bit(f.group)) == 0) continue;
    switch (f.unit) {
      case LedgerUnit::kCount:
        table.add_row({f.label, std::to_string(r.*f.count)});
        break;
      case LedgerUnit::kSeconds:
        table.add_row({f.label, fmt_fixed(r.*f.seconds, 4)});
        break;
      case LedgerUnit::kBytes:
        table.add_row({f.label, fmt_bytes(f.value(r))});
        break;
    }
  }
  return table.render();
}

std::string format_tenant_table(const std::vector<TenantRunRow>& rows) {
  Table table({"tenant", "weight", "submitted", "completed", "degraded",
               "deferred", "shed", "bucket time (s)", "share", "target",
               "p99 turnaround (s)", "cap diversions", "hog bytes"});
  for (const TenantRunRow& r : rows) {
    const uint64_t accounted = r.completed + r.degraded + r.deferred + r.shed;
    std::string submitted = std::to_string(r.submitted);
    if (accounted != r.submitted) {
      // Conservation broke — make it impossible to miss in the output.
      submitted += " (!=" + std::to_string(accounted) + ")";
    }
    table.add_row({r.name.empty() ? std::to_string(r.tenant) : r.name,
                   fmt_fixed(r.weight, 1), submitted,
                   std::to_string(r.completed), std::to_string(r.degraded),
                   std::to_string(r.deferred), std::to_string(r.shed),
                   fmt_fixed(r.bucket_seconds, 3),
                   fmt_fixed(r.share_observed * 100.0, 1) + "%",
                   fmt_fixed(r.share_target * 100.0, 1) + "%",
                   fmt_fixed(r.p99_turnaround_s, 4),
                   std::to_string(r.cap_diversions),
                   std::to_string(r.hog_bytes)});
  }
  return table.render();
}

std::optional<double> max_share_error(const std::vector<TenantRunRow>& rows) {
  std::optional<double> worst;
  for (const TenantRunRow& row : rows) {
    if (row.bucket_seconds <= 0.0) continue;
    worst = std::max(worst.value_or(0.0),
                     std::abs(row.share_observed - row.share_target));
  }
  return worst;
}

std::string format_table1(const std::vector<Table1Column>& columns) {
  // Render as the paper does: one column per configuration, one row per
  // metric.
  std::vector<std::string> header{"metric"};
  for (const Table1Column& c : columns) {
    header.push_back(std::to_string(c.machine.total_cores()) + " cores");
  }
  Table t(header);

  auto row = [&](const std::string& label,
                 const std::function<std::string(const Table1Column&)>& fn) {
    std::vector<std::string> cells{label};
    for (const Table1Column& c : columns) cells.push_back(fn(c));
    t.add_row(std::move(cells));
  };

  row("No. of simulation/in-situ cores", [](const Table1Column& c) {
    return std::to_string(c.machine.sim_ranks[0]) + "x" +
           std::to_string(c.machine.sim_ranks[1]) + "x" +
           std::to_string(c.machine.sim_ranks[2]) + " = " +
           std::to_string(c.machine.simulation_cores());
  });
  row("No. of DataSpaces-service cores", [](const Table1Column& c) {
    return std::to_string(c.machine.dataspaces_servers);
  });
  row("No. of in-transit cores", [](const Table1Column& c) {
    return std::to_string(c.machine.staging_buckets);
  });
  row("Volume size", [](const Table1Column& c) {
    return std::to_string(c.grid.dims[0]) + "x" +
           std::to_string(c.grid.dims[1]) + "x" +
           std::to_string(c.grid.dims[2]);
  });
  row("No. of variables",
      [](const Table1Column&) { return std::to_string(kNumVariables); });
  row("Data size", [](const Table1Column& c) {
    return fmt_bytes(static_cast<double>(c.grid.num_points()) *
                     kNumVariables * sizeof(double));
  });
  row("Simulation time (sec.)", [](const Table1Column& c) {
    return fmt_fixed(c.sim_step_seconds, 3);
  });
  row("I/O read time (sec., modeled)", [](const Table1Column& c) {
    const size_t bytes = static_cast<size_t>(c.grid.num_points()) *
                         kNumVariables * sizeof(double);
    return fmt_fixed(c.ost.read_seconds(bytes, c.machine.simulation_cores()),
                     3);
  });
  row("I/O write time (sec., modeled)", [](const Table1Column& c) {
    const size_t bytes = static_cast<size_t>(c.grid.num_points()) *
                         kNumVariables * sizeof(double);
    return fmt_fixed(c.ost.write_seconds(bytes, c.machine.simulation_cores()),
                     3);
  });
  return t.render();
}

}  // namespace hia
