// RunSummary: the unified per-run telemetry artifact every bench emits
// (schema "hia-run-summary-v1"). One JSON object carrying
//   * bench-specific scalar metrics (makespan, utilization, ...); a run's
//     resilience ledger (fault and recovery facts) lives only here, one
//     key per ResilienceSummary field,
//   * every registered counter (value + high-water mark), plus the
//     recorder's loss counts trace_dropped_events and trace_oversized_names;
//     no counter repeats a ledger fact,
//   * every histogram (count/sum/min/max, p50/p90/p99, sparse buckets),
//   * every gauge time series (dual-clock samples),
//   * optional per-metric relative tolerances (baseline files only).
//
// The committed files under bench/baselines/ use the same schema; a
// baseline is just a blessed RunSummary plus a "tolerances" object.
// tools/bench_diff loads a fresh summary and a baseline, compares the
// scalar metrics with the baseline's tolerances, and exits nonzero on
// drift — the CI perf-regression gate (ci/check.sh).
//
// Schema sketch:
//   {
//     "schema": "hia-run-summary-v1",
//     "bench": "fig5_scheduler",
//     "metrics":    {"makespan_s": 0.28, ...},
//     "tolerances": {"makespan_s": 0.50, "default": 0.35},   // baselines
//     "counters":   {"staging_tasks_completed": {"value": 12, "max": 12},
//                    "trace_dropped_events": {"value": 0, "max": 0},
//                    "trace_oversized_names": {"value": 0, "max": 0}, ...},
//     "histograms": {"staging_queue_wait_s": {
//         "count": 12, "sum": ..., "min": ..., "max": ...,
//         "p50": ..., "p90": ..., "p99": ...,
//         "buckets": [{"le": 0.0011, "count": 3}, ...]}},    // sparse
//     "series":     {"staging_queue_depth": {
//         "samples": [[t_s, vt_s, value], ...]}},
//     "breakdowns": {"staging_turnaround_s": {          // labeled runs only
//         "tenant=1": {"count": ..., "p50": ..., "p99": ...}, ...}}
//   }
#pragma once

#include <map>
#include <string>
#include <vector>

namespace hia::obs {

/// The caller-supplied part of a summary; the registries contribute the
/// counters/histograms/series at render time.
struct RunSummary {
  std::string bench;  // bench/binary identity, e.g. "fig5_scheduler"
  std::map<std::string, double> metrics;
  /// Per-metric relative tolerances; key "default" sets the fallback.
  /// Only baseline files carry this (empty = omitted from the JSON).
  std::map<std::string, double> tolerances;
};

/// Renders `meta` plus the current counter/histogram/time-series registry
/// state as a schema-v1 JSON document.
std::string run_summary_json(const RunSummary& meta);

/// Writes run_summary_json() to `path`; returns false on I/O failure
/// (logged through util/log).
bool write_run_summary(const std::string& path, const RunSummary& meta);

// ---- Validation ----

struct SummaryValidation {
  bool ok = false;
  std::string error;  // empty when ok
  std::string bench;
  size_t metrics = 0;
  size_t counters = 0;
  size_t histograms = 0;  // histograms with count/p50/p99/buckets present
  size_t series = 0;      // series with at least one dual-clock sample
  size_t breakdowns = 0;  // per-label breakdown tables (optional section)
};

/// Parses `json` and checks the schema-v1 invariants: schema tag, metrics
/// object of numbers, histogram entries carrying count/p50/p99 and
/// well-formed sparse buckets (ascending le, counts summing to count),
/// series entries carrying [t_s, vt_s, value] triples with monotone t_s.
SummaryValidation validate_run_summary_json(const std::string& json);

// ---- Baseline comparison (tools/bench_diff) ----

struct DiffEntry {
  std::string metric;
  double baseline = 0.0;
  double fresh = 0.0;
  double rel_diff = 0.0;   // |fresh - baseline| / max(|baseline|, 1e-12)
  double tolerance = 0.0;  // the tolerance that applied
  bool ok = false;
  bool missing = false;    // metric absent from the fresh summary
};

struct DiffReport {
  bool ok = false;     // every baseline metric within tolerance
  std::string error;   // parse/schema failure (entries empty)
  std::vector<DiffEntry> entries;
};

/// Fallback tolerance when the baseline names none (35% relative — wide
/// enough for wall-clock jitter on shared CI hardware, tight enough to
/// catch a protocol regression that serializes the pipeline).
inline constexpr double kDefaultRelativeTolerance = 0.35;

/// Compares every "metrics" entry of `baseline_json` against
/// `fresh_json`, using the baseline's "tolerances" (per-metric, then
/// "default", then kDefaultRelativeTolerance). Both inputs must be
/// schema-valid RunSummary documents.
DiffReport diff_run_summaries(const std::string& fresh_json,
                              const std::string& baseline_json);

}  // namespace hia::obs
