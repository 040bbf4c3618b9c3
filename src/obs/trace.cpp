#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <climits>

#include "obs/events.hpp"

namespace hia::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

constexpr int kRankTrackBase = 1;          // ranks are small, start at 1
constexpr int kBucketTrackBase = 1 << 20;  // far away from any rank count

using Clock = std::chrono::steady_clock;

Clock::time_point epoch() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

thread_local int t_track = kTrackControl;

void record(EventKind kind, const char* category, const char* name,
            const SpanArgs& args) {
  EventRecord r;
  r.kind = static_cast<int32_t>(kind);
  r.a = static_cast<int64_t>(
      uint64_t{detail::intern_name(category, name)} << 32 |
      static_cast<uint32_t>(args.rank));
  r.b = args.bytes;
  r.vt_s = args.vtime;
  r.tenant = static_cast<int32_t>(std::min<long>(args.step, INT_MAX));
  r.bucket = args.bucket;
  detail::push_record(r);
}

/// The timeline instant of a lifecycle record that has one, with args
/// from the record's own fields. Returns false for kinds that stay out of
/// the span view.
bool lifecycle_instant(const EventRecord& r, Event* ev) {
  // kFaultVerdict names, by EventFaultSite (a); a tenant hog is a
  // kPhantomBytes verdict attributed to its tenant.
  static constexpr const char* kSites[] = {
      nullptr,          "frame_drop",    "frame_crc_fail", "bucket_killed",
      "overload_inject", "credit_starve", "bucket_crashed", "server_crashed"};
  ev->phase = Phase::kInstant;
  ev->args.bucket = r.bucket;
  ev->args.vtime = r.vt_s;
  auto named = [ev](const char* category, const char* name) {
    ev->category = category;
    ev->name = name;
    return true;
  };
  switch (static_cast<EventKind>(r.kind)) {
    case EventKind::kTaskSubmit:
      ev->args.bucket = -1;
      ev->args.step = r.bucket;  // submits carry the step in `bucket`
      return named("sched", "enqueue");
    case EventKind::kTaskComplete:
    case EventKind::kTaskDegrade: return named("sched", "complete");
    case EventKind::kTaskShed: return named("fault", "task_shed");
    case EventKind::kTaskDefer: return named("overload", "task_deferred");
    case EventKind::kTaskRetry: return named("fault", "task_retry");
    case EventKind::kPoolGrow: return named("pool", "bucket_added");
    case EventKind::kPoolShrink: return named("pool", "bucket_retired");
    case EventKind::kPressure:  // a = the new PressureState
      return named("overload", r.a == 2   ? "pressure:saturated"
                               : r.a == 1 ? "pressure:elevated"
                                          : "pressure:nominal");
    case EventKind::kFaultVerdict: {
      if (r.a < 1 || r.a > 7) return false;
      const auto site = static_cast<EventFaultSite>(r.a);
      // b is bytes except where it repeats the bucket or counts credits.
      if (site != EventFaultSite::kBucketKill &&
          site != EventFaultSite::kBucketCrash &&
          site != EventFaultSite::kCreditStarve) {
        ev->args.bytes = r.b;
      }
      const bool hog = site == EventFaultSite::kPhantomBytes && r.tenant >= 0;
      return named("fault", hog ? "tenant_hog" : kSites[r.a]);
    }
    default: return false;
  }
}

/// Decodes one recorder record into the span view; false when the record
/// has no place there.
bool decode(const EventRecord& r, Event* ev) {
  const auto kind = static_cast<EventKind>(r.kind);
  if (kind != EventKind::kSpanBegin && kind != EventKind::kSpanEnd &&
      kind != EventKind::kMark) {
    return lifecycle_instant(r, ev);
  }
  ev->phase = kind == EventKind::kSpanBegin ? Phase::kBegin
              : kind == EventKind::kSpanEnd ? Phase::kEnd
                                            : Phase::kInstant;
  detail::interned_name(static_cast<uint32_t>(static_cast<uint64_t>(r.a) >> 32),
                        &ev->category, &ev->name);
  ev->args.rank = static_cast<int32_t>(static_cast<uint32_t>(r.a));
  ev->args.bucket = r.bucket;
  ev->args.step = r.tenant;
  ev->args.bytes = r.b;
  ev->args.vtime = r.vt_s;
  return true;
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
  epoch();  // pin the epoch before the first event
  detail::g_enabled.store(true, std::memory_order_relaxed);
}

void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

void set_thread_track(int track) { t_track = track; }
int thread_track() { return t_track; }

void begin(const char* category, const char* name, const SpanArgs& args) {
  if (!enabled()) return;
  record(EventKind::kSpanBegin, category, name, args);
}

void end(const char* category, const char* name) {
  if (!enabled()) return;
  record(EventKind::kSpanEnd, category, name, SpanArgs{});
}

namespace detail {
void end_unchecked(const char* category, const char* name) {
  record(EventKind::kSpanEnd, category, name, SpanArgs{});
}
}  // namespace detail

void instant(const char* category, const char* name, const SpanArgs& args) {
  if (!enabled()) return;
  record(EventKind::kMark, category, name, args);
}

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch())
      .count();
}

std::vector<Event> snapshot() {
  std::vector<Event> out;
  detail::visit_records([&out](const EventRecord& r, uint32_t tid) {
    Event ev;
    ev.t_us = r.t_us;
    ev.track = r.pad;
    ev.tid = tid;
    if (decode(r, &ev)) out.push_back(ev);
  });
  std::stable_sort(out.begin(), out.end(), [](const Event& a, const Event& b) {
    return a.t_us < b.t_us;
  });
  return out;
}

}  // namespace hia::obs
