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
  const uint64_t total = r.tasks_completed + r.tasks_degraded +
                         r.tasks_deferred + r.tasks_shed;
  Table table({"resilience metric", "value"});
  auto count_row = [&](const std::string& label, uint64_t v) {
    table.add_row({label, std::to_string(v)});
  };
  count_row("tasks submitted", total);
  count_row("  completed on buckets", r.tasks_completed);
  count_row("  degraded to in-situ fallback", r.tasks_degraded);
  count_row("  deferred one step (resubmitted)", r.tasks_deferred);
  count_row("  shed (dropped, counted)", r.tasks_shed);
  count_row("task retries", r.task_retries);
  table.add_row({"retry backoff total (s)", fmt_fixed(r.backoff_seconds, 4)});
  count_row("injected task timeouts", r.tasks_failed);
  count_row("buckets killed", r.buckets_killed);
  if (r.buckets_crashed || r.servers_crashed || r.leases_expired ||
      r.tasks_reexecuted || r.zombies_fenced || r.replicas_repaired ||
      r.objects_lost) {
    count_row("buckets crashed (ungraceful)", r.buckets_crashed);
    count_row("servers crashed (ungraceful)", r.servers_crashed);
    count_row("leases expired (reclaimed)", r.leases_expired);
    count_row("tasks re-executed", r.tasks_reexecuted);
    count_row("zombie completions fenced", r.zombies_fenced);
    count_row("replica copies read-repaired", r.replicas_repaired);
    count_row("objects lost (last copy died)", r.objects_lost);
  }
  count_row("frame retransmits", r.frame_retransmits);
  count_row("  frames dropped (injected)", r.frames_dropped);
  count_row("  frames corrupted (injected)", r.frames_corrupted);
  count_row("  CRC failures caught", r.crc_failures);
  table.add_row({"recovered payload", fmt_bytes(
      static_cast<double>(r.recovered_bytes))});
  count_row("frames delayed (injected)", r.frames_delayed);
  table.add_row({"injected frame delay (s)", fmt_fixed(r.injected_delay_s,
                                                       4)});
  // Shown once steering or the overload gate acted: an in-transit verdict
  // alone is every run's default route.
  if (r.steer_in_situ || r.steer_deferred || r.steer_shed ||
      r.overload_diversions || r.admission_overdrafts ||
      r.overload_bytes_injected || r.credits_starved) {
    count_row("steer: in-transit", r.steer_in_transit);
    count_row("steer: in-situ fallback", r.steer_in_situ);
    count_row("steer: deferred", r.steer_deferred);
    count_row("steer: shed", r.steer_shed);
    count_row("queue-budget diversions", r.overload_diversions);
    count_row("admission overdrafts", r.admission_overdrafts);
    table.add_row({"admission wait total (s)",
                   fmt_fixed(r.admission_wait_s, 4)});
    table.add_row({"peak queue bytes",
                   fmt_bytes(static_cast<double>(r.peak_queue_bytes))});
    table.add_row({"injected phantom bytes",
                   fmt_bytes(static_cast<double>(r.overload_bytes_injected))});
    count_row("credits starved (injected)", r.credits_starved);
    if (r.tenant_hog_bytes > 0) {
      table.add_row({"tenant-hog bytes (injected)",
                     fmt_bytes(static_cast<double>(r.tenant_hog_bytes))});
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
