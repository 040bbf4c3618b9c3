// Run-wide span tracer (paper Figs. 5-6 are timeline arguments; this layer
// records the timelines that justify them).
//
// Events land in per-thread ring buffers and carry both the wall clock
// (microseconds since the trace epoch) and, when the emitter knows it, the
// model's virtual clock (simulated seconds: S3D time, modeled Gemini
// transfer seconds, staging-service seconds). Each event is attributed to a
// *track* — one per virtual simulation rank and one per staging bucket —
// so the Chrome-trace export shows the hybrid pipeline the way the paper
// draws it: sim ranks on top, buckets below, transfers in between.
//
// Usage:
//   hia::obs::enable();
//   { HIA_TRACE_SPAN("sim", "step"); ... }               // RAII scope
//   hia::obs::instant("sched", "enqueue", {.step = 12});
//   hia::obs::write_chrome_trace("trace.json");          // see export.hpp
//
// Cost when disabled: one relaxed atomic load and a branch per macro hit.
// Cost when enabled: a timestamp, an uncontended per-thread mutex, and a
// struct copy into a bounded ring whose memory was reserved when the thread
// first recorded and is committed as events land; overflow drops the
// oldest events and increments a drop counter (never blocks, never
// allocates).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace hia::obs {

// ---- Tracks (Chrome-trace "processes") ----

inline constexpr int kTrackControl = 0;  // main thread, drivers, tests
/// Track for virtual simulation rank `rank` (>= 0).
int rank_track(int rank);
/// Track for staging bucket `bucket` (>= 0).
int bucket_track(int bucket);
/// True if `track` is a rank track; sets *rank when non-null.
bool is_rank_track(int track, int* rank = nullptr);
bool is_bucket_track(int track, int* bucket = nullptr);

/// Optional structured arguments attached to an event. Negative /
/// default-initialized fields mean "unset" and are omitted from the export.
struct SpanArgs {
  int rank = -1;
  int bucket = -1;
  long step = -1;
  long long bytes = -1;
  double vtime = -1.0;  // virtual/model seconds (sim clock, modeled wire s)
};

enum class Phase : char {
  kBegin = 'B',
  kEnd = 'E',
  kInstant = 'i',
  kCounter = 'C',
};

/// One recorded trace event. `name` is copied (truncated to fit, see
/// oversized_names()); `category` must be a string literal or otherwise
/// outlive the tracer.
struct Event {
  static constexpr size_t kNameCapacity = 48;

  double t_us = 0.0;  // wall microseconds since the trace epoch
  Phase phase = Phase::kInstant;
  int track = kTrackControl;
  uint32_t tid = 0;  // stable per-thread id (registration order)
  const char* category = "";
  char name[kNameCapacity] = {};
  SpanArgs args;
  double value = 0.0;  // kCounter payload
};

// ---- Global switch ----

namespace detail {
extern std::atomic<bool> g_enabled;
/// Records an 'E' even while tracing is disabled — used by armed Spans so
/// a disable() mid-scope cannot leave their 'B' unpaired.
void end_unchecked(const char* category, const char* name);
}  // namespace detail

inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void enable();
void disable();

/// Drops all recorded events and zeroes the drop/oversize accounting.
/// Rings of live threads stay registered (capacity unchanged); rings of
/// threads that have exited leave the registry and are reused by the next
/// threads that record.
void reset();

/// Sets the per-thread ring capacity, in events, for threads that have not
/// yet recorded anything. Existing rings keep their size; spare rings of
/// another size are freed when the next thread takes a ring.
void set_ring_capacity(size_t events);
size_t ring_capacity();

// ---- Track binding ----

/// Binds the calling thread's events to `track` (see rank_track /
/// bucket_track). Threads default to kTrackControl.
void set_thread_track(int track);
int thread_track();

// ---- Recording ----

void begin(const char* category, const char* name, const SpanArgs& args = {});
void end(const char* category, const char* name);
void instant(const char* category, const char* name,
             const SpanArgs& args = {});
/// Timeline counter sample (Chrome 'C' event) on the calling thread's track.
void counter_sample(const char* name, double value);

/// Wall microseconds since the trace epoch (the clock events use).
double now_us();

// ---- Accounting ----

/// Events overwritten by ring overflow since the last reset().
uint64_t dropped_events();
/// Names that did not fit Event::kNameCapacity and were truncated.
uint64_t oversized_names();
/// Events currently held across all rings.
size_t recorded_events();
/// Per-thread rings currently registered: one for each live thread that
/// has recorded, plus exited threads' rings until the next reset().
size_t ring_count();

/// Merged copy of every thread ring, sorted by wall time (ties keep
/// per-thread order). Safe to call while other threads record.
std::vector<Event> snapshot();

/// RAII span: records 'B' at construction and 'E' at destruction. If
/// tracing is disabled at construction the span is fully inert (the
/// destructor does not record even if tracing was enabled meanwhile, so
/// B/E stay paired per scope).
class Span {
 public:
  Span(const char* category, const char* name, const SpanArgs& args = {})
      : category_(category), name_(name), armed_(enabled()) {
    if (armed_) begin(category_, name_, args);
  }
  ~Span() {
    if (armed_) detail::end_unchecked(category_, name_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* category_;
  const char* name_;
  bool armed_;
};

}  // namespace hia::obs

#define HIA_OBS_CONCAT2(a, b) a##b
#define HIA_OBS_CONCAT(a, b) HIA_OBS_CONCAT2(a, b)

/// RAII trace scope. Category and name must be string literals (or outlive
/// the tracer); near-zero cost while tracing is disabled.
#define HIA_TRACE_SPAN(category, name) \
  ::hia::obs::Span HIA_OBS_CONCAT(hia_trace_span_, __LINE__)((category), (name))

/// RAII trace scope with structured args, e.g.
///   HIA_TRACE_SPAN_ARGS("dart", "get", {.bytes = n});
#define HIA_TRACE_SPAN_ARGS(category, name, ...)                      \
  ::hia::obs::Span HIA_OBS_CONCAT(hia_trace_span_, __LINE__)(         \
      (category), (name), ::hia::obs::SpanArgs __VA_ARGS__)
