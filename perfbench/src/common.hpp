// Types shared by the workload drivers, the repetition loop and main.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "staging/descriptor.hpp"
#include "trace.hpp"
#include "transport/dart.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;  // measuring budget: repetitions start until it ends
  bool trace = false;     // alternate untraced and traced repetitions
  std::string out_dir;    // where the span trace is written ("" = nowhere)
};

struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

inline void put(Metrics& out, const std::string& name, double value,
                const char* unit) {
  out[name] = Metric{value, unit};
}

/// What one invocation reports. End-to-end metrics come from untraced
/// repetitions only; with tracing on, the traced repetitions' end-to-end
/// values and the per-layer metrics are reported beside them.
struct RunResult {
  int reps = 0;
  int traced_reps = 0;
  uint64_t attempted = 0;  // in-transit tasks submitted
  uint64_t failed = 0;     // tasks not completed or whose output check failed,
                           // plus one per failed run-level check
  std::vector<std::string> failures;  // the first few, for humans
  Metrics e2e;
  Metrics e2e_traced;
  Metrics layers;
  std::map<std::string, uint64_t> samples;  // sample counts behind metrics
  std::string trace_file;                   // empty when not written
};

/// Collects failed output checks into a RunResult.
class CheckLog {
 public:
  explicit CheckLog(RunResult& result) : result_(result) {}
  /// A failed check on `tasks` tasks; a run-level check passes 0 and still
  /// counts as one failure.
  void fail(const std::string& what, uint64_t tasks = 1);

 private:
  RunResult& result_;
};

/// One repetition of a workload's fixed work.
struct Rep {
  bool traced = false;
  uint64_t submitted = 0;
  // End to end.
  double setup_s = 0.0;      // wall
  double setup_cpu_s = 0.0;  // process CPU over the same interval
  double makespan_s = 0.0;
  double cpu_s = 0.0;
  double tasks_per_s = 0.0;
  std::vector<double> periods;      // producer step periods after warm-up
  std::vector<double> turnarounds;  // complete - enqueue, per task
  // Per layer (traced repetitions): samples whose median is reported.
  struct Samples {
    const char* unit = "";
    std::vector<double> values;
  };
  std::map<std::string, Samples> layer;
  std::vector<Span> spans;

  void sample(const std::string& name, const char* unit, double value) {
    Samples& s = layer[name];
    s.unit = unit;
    s.values.push_back(value);
  }
};

/// Runs `rep` repeatedly until `options.seconds` is spent (at least three
/// untraced repetitions, and as many traced ones interleaved when tracing),
/// then reduces the repetitions to metrics and writes the last traced
/// repetition's spans to `options.out_dir`.
RunResult run_reps(const Options& options,
                   const std::function<Rep(bool traced, CheckLog&)>& rep);

/// Self time of every span, by span name: its duration minus what its
/// children on the same thread cover.
std::map<std::string, std::vector<double>> self_times(std::vector<Span> spans);

/// Samples the staging, transport and flight-recorder ledgers of a traced
/// repetition into `rep` (rep.makespan_s must be set). Returns each task's
/// wall seconds inside pulls, from the recorder's kTaskXfer records.
std::map<uint64_t, double> ledger_samples(
    const std::vector<hia::TaskRecord>& records, const hia::DartCounters& dart,
    int buckets, Rep& rep);

/// Process CPU seconds (user + system) so far.
double process_cpu_s();
/// Peak resident set of the process, in MiB.
double peak_rss_mb();

RunResult run_campaign(const Options& options);
RunResult run_flood(const Options& options);

/// Runs the benchmark's self-tests; prints failures to stderr and returns
/// how many failed.
int run_self_tests();

}  // namespace perfbench
