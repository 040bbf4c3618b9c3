// Shared helpers for the benchmark harness: the paper's published numbers
// (Tables I and II of Bennett et al., SC 2012) and the scaled-down run
// configurations the benches use on this machine.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/framework.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/run_summary.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace hia::bench {

// ---- Paper reference values (per simulation timestep, 4896 cores) ----

struct PaperTable2Row {
  const char* analysis;
  double in_situ_s;
  double movement_s;    // 0 = fully in-situ
  double movement_mb;
  double in_transit_s;
};

inline constexpr PaperTable2Row kPaperTable2[] = {
    {"in-situ visualization", 0.73, 0.0, 0.0, 0.0},
    {"in-situ descriptive statistics", 1.64, 0.0, 0.0, 0.0},
    {"hybrid visualization", 0.08, 0.092, 49.19, 5.06},
    {"hybrid topology", 2.72, 2.06, 87.02, 119.81},
    {"hybrid descriptive statistics", 1.69, 0.06, 13.30, 0.01},
};

inline constexpr double kPaperSimStepSeconds4896 = 16.85;
inline constexpr double kPaperIoReadSeconds = 6.56;
inline constexpr double kPaperIoWriteSeconds = 3.28;
inline constexpr double kPaperVizInSituPercent = 4.33;   // of sim time
inline constexpr double kPaperStatsInSituPercent = 9.73; // of sim time

/// A run configuration small enough for this machine yet preserving the
/// paper's structure (multi-rank decomposition, multiple staging buckets).
inline RunConfig laptop_config(long steps = 3) {
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{48, 32, 24}, {1.0, 0.75, 0.5}};
  cfg.sim.ranks_per_axis = {2, 2, 2};
  cfg.staging_servers = 2;
  cfg.staging_buckets = 4;
  cfg.steps = steps;
  return cfg;
}

inline void print_header(const std::string& title) {
  std::printf("\n==== %s ====\n\n", title.c_str());
}

/// A pass/fail shape check printed alongside the tables: does a measured
/// relationship reproduce the paper's qualitative result?
inline void shape_check(const char* description, bool ok) {
  std::printf("  [shape %s] %s\n", ok ? "OK  " : "FAIL", description);
}

// ---- Observability hooks (shared telemetry CLI for every bench) ----

/// The shared bench harness for the obs layer. Scans argv for
///   --trace <out.json>      Chrome trace (enables the tracer)
///   --summary <out.json>    RunSummary path (default BENCH_<bench>_summary.json)
///   --obs-sample-hz <hz>    background gauge sampler rate (default off)
///   --faults <spec>         fault-injection plan for benches that build a
///                           RunConfig (`cfg.faults = cli.faults`; others
///                           ignore it; its seed=N directive seeds the plan)
/// and CONSUMES those flags (compacting argv), so benches that forward
/// argc/argv to google-benchmark don't trip its unknown-flag check.
///
/// Every bench always emits a RunSummary: parse() registers a
/// `bench_uptime_s` gauge and takes an initial sample, finish() records the
/// bench's wall time into the `bench_wall_s` histogram, takes a final
/// sample, and writes the summary — so the document always carries at
/// least one histogram and one time series even for benches that never
/// touch an instrumented hot path.
struct ObsCli {
  std::string bench;  // identity stamped into the summary
  std::string trace_path;
  std::string summary_path;
  double sample_hz = 0.0;  // 0 = background sampler off
  std::string faults;      // fault-injection spec ("" = off)
  obs::RunSummary summary;
  Stopwatch wall;

  /// `default_summary` overrides the BENCH_<bench>_summary.json default
  /// (fig5 writes straight to BENCH_fig5_scheduler.json, the gated file).
  static ObsCli parse(int& argc, char** argv, const std::string& bench_name,
                      const std::string& default_summary = "") {
    ObsCli cli;
    cli.bench = bench_name;
    cli.summary.bench = bench_name;
    cli.summary_path = default_summary.empty()
                           ? "BENCH_" + bench_name + "_summary.json"
                           : default_summary;
    int out = 1;
    for (int a = 1; a < argc; ++a) {
      const bool has_value = a + 1 < argc;
      if (std::strcmp(argv[a], "--trace") == 0 && has_value) {
        cli.trace_path = argv[++a];
      } else if (std::strcmp(argv[a], "--summary") == 0 && has_value) {
        cli.summary_path = argv[++a];
      } else if (std::strcmp(argv[a], "--obs-sample-hz") == 0 && has_value) {
        cli.sample_hz = std::atof(argv[++a]);
      } else if (std::strcmp(argv[a], "--faults") == 0 && has_value) {
        cli.faults = argv[++a];
      } else {
        argv[out++] = argv[a];  // not ours: keep for the bench
      }
    }
    argc = out;
    if (!cli.trace_path.empty()) obs::enable();
    // Default gauge so every summary has a time series; first sample now,
    // last one in finish().
    const double start_us = obs::now_us();
    obs::register_gauge("bench_uptime_s", [start_us] {
      return (obs::now_us() - start_us) * 1e-6;
    });
    if (cli.sample_hz > 0.0) {
      obs::start_sampler(cli.sample_hz);
    } else {
      obs::sample_now();
    }
    return cli;
  }

  /// Bench-specific scalar for the summary's "metrics" object (what
  /// tools/bench_diff compares against bench/baselines/).
  void add_metric(const std::string& name, double value) {
    summary.metrics[name] = value;
  }

  void finish() {
    obs::stop_sampler();
    const double wall_s = wall.seconds();
    obs::histogram("bench_wall_s").record(wall_s);
    if (summary.metrics.count("wall_s") == 0) {
      summary.metrics["wall_s"] = wall_s;
    }
    obs::sample_now();
    if (!trace_path.empty() && obs::write_chrome_trace(trace_path)) {
      std::printf("trace written to %s\n", trace_path.c_str());
    }
    if (!summary_path.empty() && obs::write_run_summary(summary_path, summary)) {
      std::printf("run summary written to %s\n", summary_path.c_str());
    }
  }
};

}  // namespace hia::bench
