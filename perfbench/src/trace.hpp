// The benchmark's own spans: recorded around each call the benchmark makes
// into a layer, kept in per-thread memory, and written out as a Chrome
// trace when the run ends. Spans of one task share an id. Off by default;
// a disabled tracer costs one relaxed load per span site.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the benchmark's steady clock since the process started.
double now_s();

struct Span {
  const char* name = "";  // static string: the layer metric it feeds
  uint64_t id = 0;        // task id shared by every span of one task
  double t0 = 0.0;
  double t1 = 0.0;
  uint32_t thread = 0;    // recording thread, in order of first span
};

class Tracer {
 public:
  void set_enabled(bool on) { on_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool on() const { return on_.load(std::memory_order_relaxed); }

  /// Appends one span to the calling thread's buffer (no-op when off).
  void record(const char* name, uint64_t id, double t0, double t1);

  /// Every span recorded since the last clear(), sorted by start time.
  /// Call while no other thread records.
  [[nodiscard]] std::vector<Span> collect() const;
  void clear();

  /// Writes `spans` as Chrome trace-event JSON; false on I/O failure.
  static bool write_chrome(const std::string& path,
                           const std::vector<Span>& spans);

 private:
  std::atomic<bool> on_{false};
};

/// The process-wide tracer.
Tracer& tracer();

/// Times its own scope into the tracer when tracing is on.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, uint64_t id)
      : name_(name), id_(id), t0_(tracer().on() ? now_s() : -1.0) {}
  ~ScopedSpan() {
    if (t0_ >= 0.0) tracer().record(name_, id_, t0_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_;
  uint64_t id_;
  double t0_;
};

}  // namespace perfbench
