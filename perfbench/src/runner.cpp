// The repetition loop and the reduction of repetitions to metrics, shared
// by every workload.
#include <sys/resource.h>

#include <algorithm>

#include "common.hpp"
#include "obs/events.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

constexpr size_t kMaxFailuresKept = 20;
constexpr size_t kMaxSpansWritten = 50000;

std::vector<double> each(const std::vector<Rep>& reps, bool traced,
                         double Rep::*field) {
  std::vector<double> out;
  for (const Rep& r : reps) {
    if (r.traced == traced) out.push_back(r.*field);
  }
  return out;
}

std::vector<double> pooled(const std::vector<Rep>& reps, bool traced,
                           std::vector<double> Rep::*field) {
  std::vector<double> out;
  for (const Rep& r : reps) {
    if (r.traced == traced) {
      out.insert(out.end(), (r.*field).begin(), (r.*field).end());
    }
  }
  return out;
}

/// End-to-end metrics over the traced or the untraced repetitions. Every
/// timing is a median across repetitions, or across the pooled samples
/// when a repetition yields many.
Metrics end_to_end(const std::vector<Rep>& reps, bool traced, double rss_mb,
                   std::map<std::string, uint64_t>* samples) {
  const std::vector<double> periods = pooled(reps, traced, &Rep::periods);
  const std::vector<double> turn = pooled(reps, traced, &Rep::turnarounds);
  Metrics m;
  // Set-up is gated as CPU seconds: on a shared host its wall time moved
  // with the host's load (steal), its CPU time did not.
  put(m, "setup_s", median(each(reps, traced, &Rep::setup_cpu_s)), "s");
  put(m, "setup_wall_s", median(each(reps, traced, &Rep::setup_s)), "s");
  put(m, "step_s", median(periods), "s");
  put(m, "makespan_s", median(each(reps, traced, &Rep::makespan_s)), "s");
  put(m, "tasks_per_s", median(each(reps, traced, &Rep::tasks_per_s)), "1/s");
  put(m, "cpu_s", median(each(reps, traced, &Rep::cpu_s)), "s");
  put(m, "peak_rss_mb", rss_mb, "MiB");
  // Result turnaround is reported beside the gated metrics: below a few
  // milliseconds it measures thread wake-up, not the pipeline.
  put(m, "staging.turnaround_p50_s", percentile(turn, 500), "s");
  put(m, "staging.turnaround_p90_s", percentile(turn, 900), "s");
  // The highest percentile with ten samples beyond it.
  const int tail = tail_permille(turn.size());
  put(m, "staging.turnaround_tail_s", percentile(turn, tail == 0 ? 500 : tail),
      "s");
  if (samples != nullptr) {
    (*samples)["reps"] = each(reps, traced, &Rep::setup_s).size();
    (*samples)["step_s"] = periods.size();
    (*samples)["turnaround"] = turn.size();
    (*samples)["turnaround_tail_permille"] = static_cast<uint64_t>(tail);
  }
  return m;
}

}  // namespace

void CheckLog::fail(const std::string& what, uint64_t tasks) {
  result_.failed += std::max<uint64_t>(tasks, 1);
  if (result_.failures.size() < kMaxFailuresKept) {
    result_.failures.push_back(what);
  }
}

RunResult run_reps(const Options& options,
                   const std::function<Rep(bool traced, CheckLog&)>& rep) {
  RunResult result;
  CheckLog log(result);
  std::vector<Rep> reps;
  std::vector<Span> last_spans;
  const int min_reps = options.trace ? 6 : 3;
  const double deadline = now_s() + options.seconds;
  double longest = 0.0;
  // Peak RSS by the end of the first repetition: fixed work, whatever the
  // number of repetitions that follow (each one leaves the per-thread
  // flight-recorder rings of its exited threads behind).
  double rss_mb = 0.0;
  for (int i = 0; i < min_reps || now_s() + longest <= deadline; ++i) {
    const bool traced = options.trace && i % 2 == 1;
    const double t0 = now_s();
    Rep r = rep(traced, log);
    if (i == 0) rss_mb = peak_rss_mb();
    longest = std::max(longest, now_s() - t0);
    result.attempted += r.submitted;
    if (traced) {
      ++result.traced_reps;
      last_spans = std::move(r.spans);
      r.spans.clear();
    }
    reps.push_back(std::move(r));
  }
  result.reps = static_cast<int>(reps.size());
  result.e2e = end_to_end(reps, false, rss_mb, &result.samples);
  if (!options.trace) return result;

  result.e2e_traced = end_to_end(reps, true, rss_mb, nullptr);
  std::map<std::string, Rep::Samples> layer;
  for (const Rep& r : reps) {
    for (const auto& [name, s] : r.layer) {
      Rep::Samples& all = layer[name];
      all.unit = s.unit;
      all.values.insert(all.values.end(), s.values.begin(), s.values.end());
    }
  }
  for (const auto& [name, s] : layer) {
    put(result.layers, name, median(s.values), s.unit);
    result.samples[name] = s.values.size();
  }
  // Tracing overhead: the traced repetitions against the untraced ones.
  // Peak RSS is one number per process, so it has no split. Wall timings
  // and turnaround of the traced repetitions join the per-layer metrics.
  for (const char* wall : {"step_s", "makespan_s", "setup_wall_s"}) {
    result.layers[std::string("core.") + wall] = result.e2e_traced[wall];
  }
  for (const auto& [name, m] : result.e2e) {
    if (name.rfind("staging.", 0) == 0) {
      result.layers[name] = result.e2e_traced[name];
    } else if (name != "peak_rss_mb" && m.value != 0.0) {
      put(result.layers, "bench.trace_overhead_frac." + name,
          (result.e2e_traced[name].value - m.value) / m.value, "ratio");
    }
  }
  if (!options.out_dir.empty() && !last_spans.empty()) {
    if (last_spans.size() > kMaxSpansWritten) {
      last_spans.resize(kMaxSpansWritten);
    }
    const std::string path =
        options.out_dir + "/trace-" + options.workload + ".json";
    if (Tracer::write_chrome(path, last_spans)) result.trace_file = path;
  }
  return result;
}

std::map<std::string, std::vector<double>> self_times(std::vector<Span> spans) {
  // Per thread, in start order with enclosing spans first, a stack holds
  // the open ancestors; each span is a child of the innermost one that
  // contains it.
  std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
    if (a.thread != b.thread) return a.thread < b.thread;
    if (a.t0 != b.t0) return a.t0 < b.t0;
    return a.t1 > b.t1;
  });
  std::vector<std::vector<Interval>> children(spans.size());
  std::vector<size_t> open;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (i > 0 && spans[i].thread != spans[i - 1].thread) open.clear();
    while (!open.empty() && spans[open.back()].t1 < spans[i].t1) {
      open.pop_back();
    }
    if (!open.empty()) {
      children[open.back()].push_back({spans[i].t0, spans[i].t1});
    }
    open.push_back(i);
  }
  std::map<std::string, std::vector<double>> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name].push_back(
        self_time({spans[i].t0, spans[i].t1}, children[i]));
  }
  return out;
}

std::map<uint64_t, double> ledger_samples(
    const std::vector<hia::TaskRecord>& records, const hia::DartCounters& dart,
    int buckets, Rep& rep) {
  std::map<uint64_t, double> pull_s;
  const auto events = hia::obs::events_snapshot();
  for (const hia::obs::EventRecord& e : events) {
    if (e.kind == static_cast<int32_t>(hia::obs::EventKind::kTaskXfer)) {
      pull_s[static_cast<uint64_t>(e.a)] = static_cast<double>(e.b) * 1e-6;
    }
  }
  double busy = 0.0, retries = 0.0;
  for (const hia::TaskRecord& r : records) {
    const auto pull = pull_s.find(r.task_id);
    if (pull != pull_s.end()) rep.sample("transport.pull_s", "s", pull->second);
    rep.sample("compress.decode_s", "s", r.decode_seconds);
    rep.sample("staging.queue_wait_p50_s", "s", r.assign_time - r.enqueue_time);
    busy += r.complete_time - r.assign_time;
    retries += r.attempts - 1;
  }
  const double tasks = std::max<double>(1.0, static_cast<double>(records.size()));
  const double dropped =
      static_cast<double>(hia::obs::dropped_event_records());
  rep.sample("staging.bucket_busy_frac", "ratio",
             busy / (buckets * rep.makespan_s));
  rep.sample("staging.tasks", "count", static_cast<double>(records.size()));
  rep.sample("staging.retries", "count", retries);
  rep.sample("transport.bytes", "B", static_cast<double>(dart.bytes_moved));
  rep.sample("transport.gets", "count",
             static_cast<double>(dart.smsg_transfers + dart.bte_transfers));
  rep.sample("compress.encode_s", "s", dart.encode_seconds_total / tasks);
  rep.sample("obs.events_per_task", "count",
             (static_cast<double>(events.size()) + dropped) / tasks);
  rep.sample("obs.events_dropped", "count", dropped);
  return pull_s;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
