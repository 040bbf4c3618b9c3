#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "obs/rings.hpp"

namespace hia::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

constexpr int kRankTrackBase = 1;          // ranks are small, start at 1
constexpr int kBucketTrackBase = 1 << 20;  // far away from any rank count

using Clock = std::chrono::steady_clock;

using ThreadRings = detail::RingSet<Event>;

struct Registry {
  Clock::time_point epoch = Clock::now();
  ThreadRings rings;
  std::atomic<size_t> ring_capacity{size_t{1} << 14};  // 16384 events/thread
  std::atomic<uint64_t> oversized{0};
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during shutdown
  return *r;
}

thread_local ThreadRings::RingPtr t_ring;
thread_local int t_track = kTrackControl;

detail::Ring<Event>& thread_ring() {
  if (!t_ring) {
    Registry& reg = registry();
    reg.rings.take(t_ring,
                   reg.ring_capacity.load(std::memory_order_relaxed));
  }
  return *t_ring;
}

void record(Phase phase, const char* category, const char* name,
            const SpanArgs& args, double value) {
  Event ev;
  ev.t_us = now_us();
  ev.phase = phase;
  ev.track = t_track;
  ev.category = category;
  const size_t len = std::strlen(name);
  if (len >= Event::kNameCapacity) {
    registry().oversized.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t copy = std::min(len, Event::kNameCapacity - 1);
  std::memcpy(ev.name, name, copy);
  ev.name[copy] = '\0';
  ev.args = args;
  ev.value = value;

  detail::Ring<Event>& ring = thread_ring();
  ev.tid = ring.tid;
  ring.push(ev, nullptr);
}

}  // namespace

int rank_track(int rank) { return kRankTrackBase + rank; }
int bucket_track(int bucket) { return kBucketTrackBase + bucket; }

bool is_rank_track(int track, int* rank) {
  if (track < kRankTrackBase || track >= kBucketTrackBase) return false;
  if (rank != nullptr) *rank = track - kRankTrackBase;
  return true;
}

bool is_bucket_track(int track, int* bucket) {
  if (track < kBucketTrackBase) return false;
  if (bucket != nullptr) *bucket = track - kBucketTrackBase;
  return true;
}

void enable() {
  registry();  // pin the epoch before the first event
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void reset() {
  Registry& reg = registry();
  reg.rings.reset();
  reg.oversized.store(0, std::memory_order_relaxed);
}

void set_ring_capacity(size_t events) {
  if (events == 0) events = 1;
  registry().ring_capacity.store(events, std::memory_order_relaxed);
}

size_t ring_capacity() {
  return registry().ring_capacity.load(std::memory_order_relaxed);
}

void set_thread_track(int track) { t_track = track; }
int thread_track() { return t_track; }

void begin(const char* category, const char* name, const SpanArgs& args) {
  if (!enabled()) return;
  record(Phase::kBegin, category, name, args, 0.0);
}

void end(const char* category, const char* name) {
  if (!enabled()) return;
  record(Phase::kEnd, category, name, SpanArgs{}, 0.0);
}

namespace detail {
void end_unchecked(const char* category, const char* name) {
  record(Phase::kEnd, category, name, SpanArgs{}, 0.0);
}
}  // namespace detail

void instant(const char* category, const char* name, const SpanArgs& args) {
  if (!enabled()) return;
  record(Phase::kInstant, category, name, args, 0.0);
}

void counter_sample(const char* name, double value) {
  if (!enabled()) return;
  record(Phase::kCounter, "counter", name, SpanArgs{}, value);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   registry().epoch)
      .count();
}

uint64_t dropped_events() { return registry().rings.dropped(); }

size_t ring_count() { return registry().rings.count(); }

uint64_t oversized_names() {
  return registry().oversized.load(std::memory_order_relaxed);
}

size_t recorded_events() { return registry().rings.held(); }

std::vector<Event> snapshot() {
  std::vector<Event> out = registry().rings.collect();
  std::stable_sort(out.begin(), out.end(),
                   [](const Event& a, const Event& b) { return a.t_us < b.t_us; });
  return out;
}

}  // namespace hia::obs
