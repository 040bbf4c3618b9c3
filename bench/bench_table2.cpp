// Reproduces Table II: per-analysis in-situ time, data movement time and
// size, and in-transit time for the five deployments (in-situ viz, in-situ
// stats, hybrid viz, hybrid topology, hybrid stats), all per simulation
// timestep. Absolute seconds differ from Jaguar; the reproduced *shape* is
// checked explicitly: which intermediate data is large vs. small, and
// which stage dominates each pipeline.
#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "core/viz_pipeline.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  hia::bench::ObsCli obs_cli =
      hia::bench::ObsCli::parse(argc, argv, "table2");
  using namespace hia;
  using namespace hia::bench;

  RunConfig cfg = laptop_config(3);
  cfg.faults = obs_cli.faults;
  HybridRunner runner(cfg);

  VizConfig viz;
  viz.image_size = 96;
  viz.downsample_stride = 4;  // paper uses 8 on a 1600^3-class grid
  runner.add_analysis(std::make_shared<InSituVisualization>(viz));
  runner.add_analysis(std::make_shared<InSituStatistics>());
  runner.add_analysis(std::make_shared<HybridVisualization>(viz));
  runner.add_analysis(std::make_shared<HybridTopology>(TopologyConfig{}));
  runner.add_analysis(std::make_shared<HybridStatistics>());

  const RunReport report = runner.run();

  print_header("Table II (this machine, per simulation timestep)");
  const std::vector<std::string> names{"viz-insitu", "stats-insitu",
                                       "viz-hybrid", "topo-hybrid",
                                       "stats-hybrid"};
  std::printf("%s\n", format_table2(report, names).c_str());
  if (report.resilience.any()) {
    print_header("Resilience (fault injection active)");
    std::printf("%s\n", format_resilience(report.resilience).c_str());
  }

  print_header("Table II (paper, Jaguar XK6 @ 4896 cores)");
  Table paper({"analysis", "in-situ time (s)", "data movement time (s)",
               "data movement size", "in-transit time (s)"});
  for (const auto& row : kPaperTable2) {
    const bool hybrid = row.movement_mb > 0.0;
    paper.add_row({row.analysis, fmt_fixed(row.in_situ_s, 2),
                   hybrid ? fmt_fixed(row.movement_s, 3) : "-",
                   hybrid ? fmt_fixed(row.movement_mb, 2) + " MB" : "-",
                   hybrid ? fmt_fixed(row.in_transit_s, 2) : "-"});
  }
  std::printf("%s\n", paper.render().c_str());

  // ---- Shape checks against the paper's qualitative results ----
  const double viz_move = report.mean_movement_bytes("viz-hybrid");
  const double topo_move = report.mean_movement_bytes("topo-hybrid");
  const double stats_move = report.mean_movement_bytes("stats-hybrid");
  const double raw = static_cast<double>(report.solution_bytes_per_step);

  // Note on scale: the paper's stats payload (13.3 MB) is below its viz
  // payload (49.2 MB) because viz movement scales with the grid while the
  // stats models scale with rank count x variables. At laptop grid sizes
  // the viz payload shrinks below the model payload, so the scale-robust
  // shape is "stats moves models, not field data":
  shape_check("hybrid stats movement is exactly the packed models "
              "(7 doubles x vars x ranks), independent of grid size",
              stats_move == 7.0 * kNumVariables * sizeof(double) *
                                report.sim_ranks);
  shape_check("hybrid stats moves far less than topology (paper: "
              "13.3 vs 87.0 MB)",
              stats_move < topo_move);
  shape_check("all intermediate data is a small fraction of the raw "
              "solution (paper: 49-87 MB of 98.5 GB)",
              viz_move < 0.25 * raw && topo_move < 0.25 * raw &&
                  stats_move < 0.01 * raw);
  shape_check(
      "hybrid viz in-situ stage (down-sample) is much cheaper than fully "
      "in-situ rendering (paper: 0.08 vs 0.73 s)",
      report.mean_in_situ_seconds("viz-hybrid") <
          0.5 * report.mean_in_situ_seconds("viz-insitu"));
  shape_check(
      "topology dominates in-transit time (paper: 119.81 s, serial combine)",
      report.mean_in_transit_seconds("topo-hybrid") >
          report.mean_in_transit_seconds("stats-hybrid"));
  shape_check(
      "hybrid stats derive stage is nearly free in-transit (paper: 0.01 s)",
      report.mean_in_transit_seconds("stats-hybrid") <
          0.1 * report.mean_sim_step_seconds());
  shape_check(
      "hybrid stats learn ~= in-situ stats learn (same in-situ work, "
      "paper: 1.69 vs 1.64 s)",
      report.mean_in_situ_seconds("stats-hybrid") <
          1.6 * report.mean_in_situ_seconds("stats-insitu"));

  std::printf("\nsimulation time per step: %.4f s (paper: %.2f s)\n",
              report.mean_sim_step_seconds(), kPaperSimStepSeconds4896);
  obs_cli.finish();
  return 0;
}
