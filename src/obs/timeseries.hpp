// Fixed-rate gauge sampler: snapshots registered gauges into ring-buffered
// time series so a run can show *trajectories* (staging queue depth over
// the campaign, in-flight BTE bytes during a burst) instead of only the
// high-water marks the counter registry keeps.
//
// Gauges are pull-based: registration hands over a closure that is polled
// at every sampling pass. Counter-backed gauges (the common case — queue
// depth, busy buckets, in-flight bytes already live in obs::counter cells)
// register with register_counter_gauge(name), which polls the counter.
//
// Every sample carries a dual clock: wall seconds since the trace epoch
// and the model's virtual seconds from the installed virtual-clock source
// (the staging service installs its task clock; -1 when no source is
// installed). A sampling pass is serialized under one mutex and reads both
// clocks once, so within each series both clocks are monotone even when
// several threads call sample_now() concurrently.
//
// Sampling is off by default (zero perturbation of untouched runs): either
// call sample_now() at chosen instants, or start_sampler(hz) to spawn the
// background thread (--obs-sample-hz on the CLI surfaces).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace hia::obs {

struct SeriesSample {
  double t_s = 0.0;    // wall seconds since the trace epoch
  double vt_s = -1.0;  // virtual/model seconds; -1 = no source installed
  double value = 0.0;
};

struct SeriesSnapshot {
  std::string name;
  std::vector<SeriesSample> samples;  // oldest first
  uint64_t dropped = 0;               // overwritten by ring overflow
};

/// Registers a pull gauge. Re-registering an existing name replaces its
/// closure (the recorded samples are kept).
void register_gauge(const std::string& name, std::function<double()> fn);

/// Registers a gauge that polls obs::counter(name).value().
void register_counter_gauge(const std::string& name);

/// Installs the virtual-clock source attached to every sample. `owner` is
/// an identity token: clear_virtual_clock(owner) removes the source only
/// if it is still the installed one, so a short-lived StagingService can't
/// tear down a newer service's clock.
void set_virtual_clock(std::function<double()> fn, const void* owner);
void clear_virtual_clock(const void* owner);

/// Reads the installed virtual clock; -1 when no source is installed.
/// Lets emitters without their own model clock (Dart put/get events) stamp
/// records on the campaign's task timeline.
[[nodiscard]] double virtual_now();

/// One synchronous sampling pass over every registered gauge.
void sample_now();

/// Starts the background sampling thread at `hz` passes per second
/// (clamped to [0.1, 1000]). No-op if already running.
void start_sampler(double hz);
/// Stops and joins the background thread. No-op if not running.
void stop_sampler();
[[nodiscard]] bool sampler_running();

/// Ring capacity, in samples per series, for series created after the
/// call (default 4096). Existing rings keep their size.
void set_series_capacity(size_t samples);

/// Name-sorted snapshot of every registered series (RunSummary's "series"
/// table).
std::vector<SeriesSnapshot> timeseries_snapshot();

/// Drops every sample and gauge registration, stops the sampler, and
/// clears the virtual-clock source (test isolation).
void reset_timeseries();

}  // namespace hia::obs
