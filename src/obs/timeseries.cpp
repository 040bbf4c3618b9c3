#include "obs/timeseries.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"

namespace hia::obs {

namespace {

struct Series {
  explicit Series(size_t capacity) : samples(capacity) {}
  std::function<double()> fn;
  std::vector<SeriesSample> samples;  // ring storage
  size_t head = 0;                    // next write slot
  size_t count = 0;
  uint64_t dropped = 0;
};

struct SamplerState {
  // `mutex` guards the gauge map, the rings, and the clocks; one sampling
  // pass holds it end to end so dual clocks stay monotone per series.
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<Series>> series;
  std::function<double()> virtual_clock;
  const void* virtual_clock_owner = nullptr;
  std::atomic<size_t> capacity{4096};

  // Background thread.
  std::thread thread;
  std::condition_variable cv;  // waits on `mutex`
  bool running = false;
  bool stop_requested = false;
  double period_s = 1.0;
};

SamplerState& state() {
  static SamplerState* s = new SamplerState();  // leaked, see trace.cpp
  return *s;
}

/// Requires st.mutex held.
void sample_locked(SamplerState& st) {
  const double t_s = now_us() * 1e-6;
  const double vt_s = st.virtual_clock ? st.virtual_clock() : -1.0;
  for (auto& [name, series] : st.series) {
    SeriesSample sample{t_s, vt_s, series->fn ? series->fn() : 0.0};
    if (series->count == series->samples.size()) {
      ++series->dropped;  // overwrite the oldest sample
    } else {
      ++series->count;
    }
    series->samples[series->head] = sample;
    series->head = (series->head + 1) % series->samples.size();
  }
}

void sampler_main() {
  SamplerState& st = state();
  std::unique_lock lock(st.mutex);
  while (!st.stop_requested) {
    sample_locked(st);
    st.cv.wait_for(lock,
                   std::chrono::duration<double>(st.period_s),
                   [&] { return st.stop_requested; });
  }
}

}  // namespace

void register_gauge(const std::string& name, std::function<double()> fn) {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  auto it = st.series.find(name);
  if (it == st.series.end()) {
    auto series = std::make_unique<Series>(
        std::max<size_t>(st.capacity.load(std::memory_order_relaxed), 1));
    series->fn = std::move(fn);
    st.series.emplace(name, std::move(series));
  } else {
    it->second->fn = std::move(fn);
  }
}

void register_counter_gauge(const std::string& name) {
  Counter& c = counter(name);
  register_gauge(name, [&c] { return static_cast<double>(c.value()); });
}

void set_virtual_clock(std::function<double()> fn, const void* owner) {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  st.virtual_clock = std::move(fn);
  st.virtual_clock_owner = owner;
}

void clear_virtual_clock(const void* owner) {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  if (st.virtual_clock_owner != owner) return;
  st.virtual_clock = nullptr;
  st.virtual_clock_owner = nullptr;
}

double virtual_now() {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  return st.virtual_clock ? st.virtual_clock() : -1.0;
}

void sample_now() {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  sample_locked(st);
}

void start_sampler(double hz) {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  if (st.running) return;
  hz = std::clamp(hz, 0.1, 1000.0);
  st.period_s = 1.0 / hz;
  st.stop_requested = false;
  st.running = true;
  st.thread = std::thread(sampler_main);
}

void stop_sampler() {
  SamplerState& st = state();
  std::thread joinable;
  {
    std::lock_guard lock(st.mutex);
    if (!st.running) return;
    st.stop_requested = true;
    joinable = std::move(st.thread);
  }
  st.cv.notify_all();
  joinable.join();
  std::lock_guard lock(st.mutex);
  st.running = false;
  st.stop_requested = false;
}

bool sampler_running() {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  return st.running;
}

void set_series_capacity(size_t samples) {
  state().capacity.store(std::max<size_t>(samples, 1),
                         std::memory_order_relaxed);
}

namespace {

/// Requires st.mutex held.
SeriesSnapshot snapshot_one(const std::string& name, const Series& series) {
  SeriesSnapshot snap;
  snap.name = name;
  snap.dropped = series.dropped;
  const size_t cap = series.samples.size();
  const size_t start = series.count == cap ? series.head : 0;
  snap.samples.reserve(series.count);
  for (size_t i = 0; i < series.count; ++i) {
    snap.samples.push_back(series.samples[(start + i) % cap]);
  }
  return snap;
}

}  // namespace

std::vector<SeriesSnapshot> timeseries_snapshot() {
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  std::vector<SeriesSnapshot> out;
  out.reserve(st.series.size());
  for (const auto& [name, series] : st.series) {
    out.push_back(snapshot_one(name, *series));
  }
  return out;
}

void reset_timeseries() {
  stop_sampler();
  SamplerState& st = state();
  std::lock_guard lock(st.mutex);
  st.series.clear();
  st.virtual_clock = nullptr;
  st.virtual_clock_owner = nullptr;
}

}  // namespace hia::obs
