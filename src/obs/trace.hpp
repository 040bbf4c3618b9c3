// Run-wide span tracer (paper Figs. 5-6 are timeline arguments; this layer
// records the timelines that justify them).
//
// Spans and marks are kSpanBegin / kSpanEnd / kMark records of the one
// flight recorder (obs/events.hpp), in the same per-thread ring as the
// lifecycle records, under its capacity, reset and ring count. Each carries
// the wall clock (microseconds since the trace epoch) and, when the emitter
// knows it, the model's virtual clock (S3D time, modeled Gemini transfer
// seconds, staging-service seconds), and belongs to a *track* — one per
// virtual simulation rank and one per staging bucket — so the Chrome trace
// shows the pipeline the way the paper draws it: sim ranks on top, buckets
// below. snapshot() is the recorder's span view: spans and marks, plus the
// lifecycle records that have a timeline name (fault verdicts, pressure
// transitions, enqueue/complete, ...) rendered as instants.
//
// Usage:
//   hia::obs::enable();
//   { HIA_TRACE_SPAN("sim", "step"); ... }               // RAII scope
//   hia::obs::instant("sim", "checkpoint", {.step = 12});
//   hia::obs::write_chrome_trace("trace.json");          // see export.hpp
//
// Cost when disabled: one relaxed atomic load and a branch per macro hit.
// Cost when enabled: a timestamp, a thread-local name-id lookup and a
// 48-byte copy into the thread's ring under its uncontended mutex; overflow
// drops the oldest record (never blocks; allocates only when a thread first
// sees a name).
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
/// The record keeps `step` as 32 bits.
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
};

/// One event of the span view, decoded from a recorder record. Names are
/// cut to kNameCapacity - 1 characters (see oversized_names()); both
/// strings live as long as the process.
struct Event {
  static constexpr size_t kNameCapacity = 48;

  double t_us = 0.0;  // wall microseconds since the trace epoch
  Phase phase = Phase::kInstant;
  int track = kTrackControl;
  uint32_t tid = 0;  // stable per-thread id (ring registration order)
  const char* category = "";
  const char* name = "";
  SpanArgs args;
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

// ---- Track binding ----

/// Binds the calling thread's events to `track` (see rank_track /
/// bucket_track). Threads default to kTrackControl.
void set_thread_track(int track);
int thread_track();

// ---- Recording ----

/// `category` must be a string literal or otherwise outlive the process;
/// `name` is copied into the recorder's name table.
void begin(const char* category, const char* name, const SpanArgs& args = {});
void end(const char* category, const char* name);
/// A kMark record: a point on the timeline with no lifecycle meaning.
/// Occurrences the flight recorder already records (obs/events.hpp) are
/// rendered as instants from those records instead.
void instant(const char* category, const char* name,
             const SpanArgs& args = {});

/// Wall microseconds since the trace epoch (the clock events use).
double now_us();

// ---- Accounting (reset by obs::reset_events) ----

/// Names that did not fit Event::kNameCapacity and were truncated.
uint64_t oversized_names();
/// Span and mark records overwritten by ring overflow. Overwritten
/// lifecycle records count in obs::dropped_event_records() instead.
uint64_t dropped_trace_records();

/// The span view of every thread ring, sorted by wall time (ties keep
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
