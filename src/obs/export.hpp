// Exporter for the recorder's span view: Chrome trace-event JSON, loadable
// in Perfetto / chrome://tracing, with one "process" per virtual simulation
// rank and one per staging bucket, named via process_name metadata events.
// Counters and histograms have one rendering, the RunSummary
// (obs/run_summary.hpp).
//
// Also hosts the validator the tests and ci/check.sh use to gate exported
// traces (parses the JSON and proves every 'B' has a matching 'E'), and a
// small trace-derived statistics helper for the benches.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hia::obs {

/// Renders the recorder's span view (obs::snapshot) as a Chrome trace-event
/// JSON object.
/// Unclosed spans are closed at the snapshot horizon so the output always
/// pairs every 'B' with an 'E'; orphan 'E's from ring overflow are elided.
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; returns false on I/O failure
/// (logged through util/log).
bool write_chrome_trace(const std::string& path);

// ---- Validation ----

struct TraceValidation {
  bool ok = false;
  size_t events = 0;       // trace events parsed (metadata included)
  size_t spans = 0;        // matched B/E pairs
  std::string error;       // empty when ok
};

/// Parses `json` (full JSON grammar, no external deps) and checks the
/// Chrome trace invariants: top-level object with a traceEvents array,
/// every event has ph/pid/tid/ts, and within each (pid, tid) the B/E
/// events nest and pair exactly.
TraceValidation validate_chrome_trace_json(const std::string& json);

// ---- Trace-derived statistics (bench hooks) ----

struct TrackUtilization {
  int id = -1;           // rank or bucket index
  double busy_s = 0.0;   // summed span seconds on the track
  size_t spans = 0;
};

struct SchedulerTraceStats {
  std::vector<TrackUtilization> buckets;  // per-bucket "sched" task time
  double span_s = 0.0;       // first-B to last-E horizon of sched spans
  int64_t queue_depth_max = 0;
  int64_t busy_buckets_max = 0;
};

/// Derives bucket-utilization / queue-depth statistics from the current
/// trace snapshot and counter registry ("sched" category spans).
SchedulerTraceStats scheduler_trace_stats();

}  // namespace hia::obs
