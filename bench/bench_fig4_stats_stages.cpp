// Reproduces the Fig. 4 claim: of the four statistics operations (learn,
// derive, assess, test), learn is the ONLY one requiring inter-process
// communication. We instrument the communication volume of each stage for
// the in-situ deployment (learn ends in an all-reduce) and compare against
// the hybrid deployment (learn's partial models move to staging instead).
#include <cstdio>

#include "analysis/stats/descriptive.hpp"
#include "bench_common.hpp"
#include "core/stats_pipeline.hpp"
#include "runtime/comm.hpp"
#include "sim/s3d.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  hia::bench::ObsCli obs_cli =
      hia::bench::ObsCli::parse(argc, argv, "fig4_stats_stages");
  using namespace hia;
  using namespace hia::bench;

  S3DParams params;
  params.grid = GlobalGrid{{48, 32, 24}, {1.0, 0.75, 0.5}};
  params.ranks_per_axis = {2, 2, 2};
  Decomposition decomp(params.grid, params.ranks_per_axis);

  struct StageVolume {
    size_t learn = 0, derive = 0, assess = 0, test = 0;
  };
  StageVolume volume;
  std::mutex m;

  World world(decomp.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(params, comm.rank());
    sim.initialize();
    sim.advance(comm);
    comm.reset_byte_counter();

    // learn (with the all-to-all model combination the in-situ
    // statistics run).
    MomentSet local;
    for (const Variable v : all_variables()) {
      local.vars.push_back(learn_field(sim.field(v)));
    }
    const MomentSet global = all_reduce(comm, local);
    const size_t learn_bytes = comm.bytes_sent();
    comm.reset_byte_counter();

    // derive.
    std::vector<DescriptiveModel> models;
    for (const auto& acc : global.vars) {
      models.push_back(derive_descriptive(acc));
    }
    const size_t derive_bytes = comm.bytes_sent();

    // assess (annotate this rank's temperature observations).
    const auto t_values = sim.field(Variable::kTemperature).pack_owned();
    const auto z = stats_assess(
        t_values, models[static_cast<size_t>(Variable::kTemperature)]);
    const size_t assess_bytes = comm.bytes_sent() - derive_bytes;

    // test.
    const auto jb = stats_test_normality(
        models[static_cast<size_t>(Variable::kTemperature)]);
    (void)jb;
    (void)z;
    const size_t test_bytes = comm.bytes_sent() - derive_bytes - assess_bytes;

    const double learn_total =
        comm.allreduce_sum(static_cast<double>(learn_bytes));
    if (comm.rank() == 0) {
      std::lock_guard lock(m);
      volume.learn = static_cast<size_t>(learn_total);
      volume.derive = derive_bytes;
      volume.assess = assess_bytes;
      volume.test = test_bytes;
    }
  });

  print_header("Fig. 4: per-stage inter-process communication volume");
  Table table({"stage", "communication (all ranks)", "communicates?"});
  table.add_row({"learn", fmt_bytes(static_cast<double>(volume.learn)),
                 "yes - the only one by design"});
  table.add_row({"derive", fmt_bytes(static_cast<double>(volume.derive)), "no"});
  table.add_row({"assess", fmt_bytes(static_cast<double>(volume.assess)), "no"});
  table.add_row({"test", fmt_bytes(static_cast<double>(volume.test)), "no"});
  std::printf("%s\n", table.render().c_str());

  // Hybrid alternative: learn's partial models go to staging instead.
  RunConfig cfg = laptop_config(1);
  HybridRunner runner(cfg);
  runner.add_analysis(std::make_shared<HybridStatistics>());
  const RunReport report = runner.run();
  std::printf("hybrid deployment: learn partial models moved to staging: %s "
              "per step\n\n",
              fmt_bytes(report.mean_movement_bytes("stats-hybrid")).c_str());

  shape_check("learn is the only stage with inter-process communication",
              volume.learn > 0 && volume.derive == 0 && volume.assess == 0 &&
                  volume.test == 0);
  shape_check("hybrid movement ~ packed models (7 doubles x 14 vars x ranks)",
              report.mean_movement_bytes("stats-hybrid") ==
                  7.0 * 14.0 * 8.0 * decomp.num_ranks());
  obs_cli.finish();
  return 0;
}
