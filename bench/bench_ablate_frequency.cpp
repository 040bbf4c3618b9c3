// Ablation: analysis frequency (§V: "in practice, we usually perform
// in-situ processes less frequently (for example, every 10th time step), so
// the in-situ processing time can be two or three orders of magnitude less
// than the overall simulation time"). Sweeps the invocation frequency and
// reports the amortized in-situ overhead per simulation step.
//
// Emits BENCH_frequency.json with, per frequency, the report-derived
// amortized overhead plus tracer-derived staging stats (queue-depth
// high-water mark, per-bucket busy seconds).
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "core/report.hpp"
#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "core/stats_pipeline.hpp"
#include "util/table.hpp"

namespace {

struct SweepPoint {
  int frequency = 0;
  size_t invocations = 0;
  double amortized_s = 0.0;
  double sim_s = 0.0;
  long long queue_depth_max = 0;
  double bucket_busy_s = 0.0;  // summed across buckets
};

void write_json(const std::vector<SweepPoint>& points) {
  std::FILE* f = std::fopen("BENCH_frequency.json", "w");
  if (f == nullptr) {
    std::printf("  (could not open BENCH_frequency.json for writing)\n");
    return;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    std::fprintf(f,
                 "  {\"frequency\": %d, \"invocations\": %zu, "
                 "\"amortized_in_situ_s\": %.6f, \"sim_step_s\": %.6f, "
                 "\"queue_depth_max\": %lld, \"bucket_busy_s\": %.6f}%s\n",
                 p.frequency, p.invocations, p.amortized_s, p.sim_s,
                 p.queue_depth_max, p.bucket_busy_s,
                 i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("  wrote BENCH_frequency.json (%zu records)\n\n",
              points.size());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hia;
  using namespace hia::bench;

  obs::enable();
  ObsCli obs_cli = ObsCli::parse(argc, argv, "ablate_frequency");

  std::printf("\n==== analysis-frequency sweep (hybrid statistics) ====\n\n");
  Table table({"frequency", "invocations", "amortized in-situ s/step",
               "% of simulation"});

  std::vector<SweepPoint> points;
  double overhead_at_1 = 0.0, overhead_at_10 = 0.0;
  for (const int freq : {1, 2, 5, 10}) {
    // Fresh trace/counter state per sweep point so the tracer-derived
    // stats describe this frequency only.
    obs::reset_events();
    obs::reset_counters();
    obs::enable();

    RunConfig cfg = laptop_config(10);
    HybridRunner runner(cfg);
    auto stats = std::make_shared<HybridStatistics>();
    runner.add_analysis(stats, freq);
    const RunReport report = runner.run();

    size_t invocations = 0;
    double total_in_situ = 0.0;
    for (const auto& m : report.in_situ) {
      if (m.analysis == "stats-hybrid") {
        ++invocations;
        total_in_situ += m.max_rank_seconds;
      }
    }
    const double amortized =
        total_in_situ / static_cast<double>(report.steps);
    const double sim = report.mean_sim_step_seconds();
    if (freq == 1) overhead_at_1 = amortized;
    if (freq == 10) overhead_at_10 = amortized;
    table.add_row({std::to_string(freq), std::to_string(invocations),
                   fmt_fixed(amortized, 5), fmt_percent(amortized, sim)});

    const obs::SchedulerTraceStats trace_stats =
        obs::scheduler_trace_stats();
    SweepPoint point;
    point.frequency = freq;
    point.invocations = invocations;
    point.amortized_s = amortized;
    point.sim_s = sim;
    point.queue_depth_max = trace_stats.queue_depth_max;
    for (const auto& b : trace_stats.buckets) {
      point.bucket_busy_s += b.busy_s;
    }
    points.push_back(point);
  }
  std::printf("%s\n", table.render().c_str());
  write_json(points);

  shape_check("amortized overhead falls with invocation frequency",
              overhead_at_10 < overhead_at_1);
  shape_check("every-10th-step overhead is ~10x smaller than every-step",
              overhead_at_10 < 0.3 * overhead_at_1);
  obs_cli.finish();
  return 0;
}
