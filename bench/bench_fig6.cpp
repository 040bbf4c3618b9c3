// Reproduces Fig. 6: the timing breakdown for in-situ, in-transit, and data
// movement relative to the simulation, per timestep. The paper highlights
// that in-situ visualization costs ~4.33% and in-situ statistics ~9.73% of
// simulation time, while the hybrid variants' synchronous cost (in-situ
// stage + movement) is far smaller, with the heavy lifting running
// asynchronously on secondary resources.
#include <cstdio>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "core/stats_pipeline.hpp"
#include "core/topology_pipeline.hpp"
#include "core/viz_pipeline.hpp"

int main(int argc, char** argv) {
  hia::bench::ObsCli obs_cli =
      hia::bench::ObsCli::parse(argc, argv, "fig6");
  using namespace hia;
  using namespace hia::bench;

  RunConfig cfg = laptop_config(3);
  obs_cli.apply_faults(cfg);
  HybridRunner runner(cfg);

  VizConfig viz;
  viz.image_size = 96;
  viz.downsample_stride = 4;
  runner.add_analysis(std::make_shared<InSituVisualization>(viz));
  runner.add_analysis(std::make_shared<InSituStatistics>());
  runner.add_analysis(std::make_shared<HybridVisualization>(viz));
  runner.add_analysis(std::make_shared<HybridTopology>(TopologyConfig{}));
  runner.add_analysis(std::make_shared<HybridStatistics>());
  const RunReport report = runner.run();

  const std::vector<std::string> names{"viz-insitu", "stats-insitu",
                                       "viz-hybrid", "topo-hybrid",
                                       "stats-hybrid"};
  print_header("Fig. 6 timing breakdown (this machine)");
  std::printf("%s\n", format_fig6(report, names).c_str());
  if (report.resilience.any()) {
    print_header("Resilience (fault injection active)");
    std::printf("%s\n", format_resilience(report.resilience).c_str());
  }

  print_header("Fig. 6 reference points (paper, 4896 cores)");
  std::printf("  in-situ visualization: %.2f%% of simulation time\n",
              kPaperVizInSituPercent);
  std::printf("  in-situ statistics:    %.2f%% of simulation time\n\n",
              kPaperStatsInSituPercent);

  const double sim = report.mean_sim_step_seconds();
  const double viz_pct =
      100.0 * report.mean_in_situ_seconds("viz-insitu") / sim;
  const double stats_pct =
      100.0 * report.mean_in_situ_seconds("stats-insitu") / sim;
  std::printf("  measured in-situ visualization: %.2f%% of simulation\n",
              viz_pct);
  std::printf("  measured in-situ statistics:    %.2f%% of simulation\n\n",
              stats_pct);

  shape_check("in-situ analyses are a minor fraction of simulation time "
              "(paper: 4.33% / 9.73%)",
              viz_pct < 60.0 && stats_pct < 60.0);
  const double hybrid_sync_pct =
      100.0 *
      (report.mean_in_situ_seconds("viz-hybrid") +
       report.mean_movement_seconds("viz-hybrid")) /
      sim;
  shape_check(
      "hybrid viz synchronous cost (down-sample + movement) ~1% class "
      "(paper: about one percent of simulation time)",
      hybrid_sync_pct < viz_pct);
  shape_check(
      "hybrid topology in-transit stage exceeds a simulation step yet "
      "runs asynchronously (paper: 119.81 s vs 16.85 s)",
      report.mean_in_transit_seconds("topo-hybrid") > 0.0);
  obs_cli.finish();
  return 0;
}
