// Run-wide counter/gauge registry (the "how much" companion to the span
// tracer's "when"). Counters are always on: each update is one or two
// relaxed atomic operations, cheap enough for every hot path.
//
// Hot paths cache the lookup:
//   static hia::obs::Counter& c = hia::obs::counter("dart_wire_bytes");
//   c.add(n);
//
// Gauges use add(+1)/add(-1) (queue depth, busy buckets, in-flight bytes);
// the registry tracks the high-water mark so reports can show peaks.
// Every counter reaches the run's RunSummary (obs/run_summary.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/labels.hpp"

namespace hia::obs {

/// One named counter/gauge cell. Never destroyed once registered, so
/// references stay valid for the process lifetime.
class Counter {
 public:
  void add(int64_t delta) {
    const int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) +
                        delta;
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (now > seen &&
           !max_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  }
  void set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (v > seen &&
           !max_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  /// High-water mark since the last reset_counters().
  [[nodiscard]] int64_t max() const {
    return max_.load(std::memory_order_relaxed);
  }

 private:
  friend void reset_counters();
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Returns the counter registered under `name`, creating it on first use.
/// Names should be lowercase and '_'-separated.
Counter& counter(const std::string& name);

/// Labeled variant: the counter for `name` carrying `labels`. Each
/// distinct (name, labels) pair is its own cell; `counter(name)` is
/// exactly `counter(name, Labels{})`. Hot paths cache the reference the
/// same way as the unlabeled form.
Counter& counter(const std::string& name, const Labels& labels);

struct CounterSample {
  std::string name;
  Labels labels;  // empty() for the classic unlabeled series
  int64_t value = 0;
  int64_t max = 0;
};

/// Name-sorted snapshot of every *unlabeled* counter (the pre-label
/// surface: RunSummary's "counters" table and existing report code).
std::vector<CounterSample> counters_snapshot();

/// (name, labels)-sorted snapshot of every *labeled* counter.
std::vector<CounterSample> labeled_counters_snapshot();

/// Zeroes every registered counter and its high-water mark.
void reset_counters();

}  // namespace hia::obs
