// Ablation: the in-situ <-> in-transit spectrum (§V: "Our framework covers
// the entire spectrum, from pure in-situ to pure in-transit analysis").
// Runs descriptive statistics three ways — fully in-situ, hybrid (learn
// in-situ, derive in-transit), and pure in-transit (raw data shipped) —
// and reports the trade: synchronous cost on the simulation vs. data moved.
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  hia::bench::ObsCli obs_cli =
      hia::bench::ObsCli::parse(argc, argv, "ablate_spectrum");
  using namespace hia;
  using namespace hia::bench;

  RunConfig cfg = laptop_config(3);
  HybridRunner runner(cfg);
  auto insitu = std::make_shared<InSituStatistics>(
      std::vector<Variable>{Variable::kTemperature});
  auto hybrid = std::make_shared<HybridStatistics>(
      std::vector<Variable>{Variable::kTemperature});
  auto intransit = std::make_shared<Statistics>(
      Placement::kInTransit, std::vector<Variable>{Variable::kTemperature});
  runner.add_analysis(insitu);
  runner.add_analysis(hybrid);
  runner.add_analysis(intransit);
  const RunReport report = runner.run();

  print_header("spectrum: in-situ vs hybrid vs pure in-transit statistics");
  Table table({"deployment", "in-situ time (s)", "data moved",
               "in-transit time (s)", "where the work runs"});
  auto row = [&](const char* label, const char* name, const char* where) {
    const double moved = report.mean_movement_bytes(name);
    table.add_row({label, fmt_fixed(report.mean_in_situ_seconds(name), 4),
                   moved > 0 ? fmt_bytes(moved) : "-",
                   moved > 0
                       ? fmt_fixed(report.mean_in_transit_seconds(name), 4)
                       : "-",
                   where});
  };
  row("pure in-situ", "stats-insitu", "primary resources + all-to-all");
  row("hybrid", "stats-hybrid", "learn on primary, derive on staging");
  row("pure in-transit", "stats-intransit", "staging (raw blocks shipped)");
  std::printf("%s\n", table.render().c_str());

  const double hybrid_moved = report.mean_movement_bytes("stats-hybrid");
  const double raw_moved = report.mean_movement_bytes("stats-intransit");
  const double var_bytes =
      static_cast<double>(cfg.sim.grid.num_points()) * sizeof(double);

  shape_check("pure in-transit ships the raw variable",
              raw_moved > 0.99 * var_bytes);
  shape_check("hybrid reduces movement by orders of magnitude",
              raw_moved > 100.0 * hybrid_moved);
  shape_check(
      "pure in-transit minimizes in-situ time (just a publish)",
      report.mean_in_situ_seconds("stats-intransit") <
          report.mean_in_situ_seconds("stats-insitu") * 1.5);
  shape_check(
      "all three deployments agree on the science (models identical)",
      [&] {
        const auto a = insitu->latest_models();
        const auto b = hybrid->latest_models();
        const auto c = intransit->latest_models();
        if (a.size() != 1 || b.size() != 1 || c.size() != 1) return false;
        return a[0].count == b[0].count && b[0].count == c[0].count &&
               std::abs(a[0].mean - c[0].mean) < 1e-9 &&
               std::abs(b[0].variance - c[0].variance) < 1e-8;
      }());
  obs_cli.finish();
  return 0;
}
