#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "util/log.hpp"

namespace hia::obs {

namespace {

void append_args(std::string& out, const SpanArgs& args) {
  std::string body;
  char buf[64];
  auto field = [&](const char* key, const char* fmt, auto value) {
    if (!body.empty()) body += ", ";
    std::snprintf(buf, sizeof(buf), fmt, value);
    body += std::string("\"") + key + "\": " + buf;
  };
  if (args.rank >= 0) field("rank", "%d", args.rank);
  if (args.bucket >= 0) field("bucket", "%d", args.bucket);
  if (args.step >= 0) field("step", "%ld", args.step);
  if (args.bytes >= 0) field("bytes", "%lld", args.bytes);
  if (args.vtime >= 0.0) field("vt_s", "%.9f", args.vtime);
  if (body.empty()) return;
  out += ", \"args\": {" + body + "}";
}

void append_event_line(std::string& out, const Event& ev, bool trailing_comma) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "    {\"ph\": \"%c\", \"pid\": %d, \"tid\": %u, \"ts\": %.3f, "
                "\"cat\": \"",
                static_cast<char>(ev.phase), ev.track, ev.tid, ev.t_us);
  out += buf;
  json::append_escaped(out, ev.category);
  out += "\", \"name\": \"";
  json::append_escaped(out, ev.name);
  out += "\"";
  if (ev.phase != Phase::kEnd) append_args(out, ev.args);
  if (ev.phase == Phase::kInstant) out += ", \"s\": \"t\"";
  out += trailing_comma ? "},\n" : "}\n";
}

std::string track_name(int track) {
  int idx = 0;
  if (is_rank_track(track, &idx)) return "sim rank " + std::to_string(idx);
  if (is_bucket_track(track, &idx)) return "bucket " + std::to_string(idx);
  return "control";
}

/// Drops orphan 'E' events (their 'B' fell out of a ring) and closes spans
/// still open at the snapshot horizon, so the export always pairs B/E.
std::vector<Event> paired_events(const std::vector<Event>& events) {
  double horizon = 0.0;
  // Per (pid, tid): stack of the open 'B' events.
  std::map<std::pair<int, uint32_t>, std::vector<const Event*>> open;
  std::vector<Event> out;
  out.reserve(events.size());
  for (const Event& ev : events) {
    horizon = std::max(horizon, ev.t_us);
    auto& stack = open[{ev.track, ev.tid}];
    if (ev.phase == Phase::kBegin) {
      stack.push_back(&ev);
    } else if (ev.phase == Phase::kEnd) {
      if (stack.empty()) continue;  // orphan from ring overflow
      stack.pop_back();
    }
    out.push_back(ev);
  }
  // Close remaining open spans, innermost first per thread.
  for (auto& [key, stack] : open) {
    for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
      Event close = **it;
      close.phase = Phase::kEnd;
      close.t_us = horizon;
      close.args = SpanArgs{};
      out.push_back(close);
    }
  }
  return out;
}

}  // namespace

std::string chrome_trace_json() {
  const std::vector<Event> events = paired_events(snapshot());

  std::set<int> tracks;
  for (const Event& ev : events) tracks.insert(ev.track);

  std::string out;
  out.reserve(events.size() * 120 + 4096);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";

  // Metadata: name every track ("process").
  for (const int track : tracks) {
    out += "    {\"ph\": \"M\", \"pid\": " + std::to_string(track) +
           ", \"tid\": 0, \"name\": \"process_name\", "
           "\"args\": {\"name\": \"";
    json::append_escaped(out, track_name(track));
    out += "\"}},\n";
  }

  for (size_t i = 0; i < events.size(); ++i) {
    append_event_line(out, events[i], i + 1 < events.size());
  }

  out += "  ],\n  \"otherData\": {\n    \"dropped_events\": " +
         std::to_string(dropped_trace_records()) +
         ",\n    \"oversized_names\": " + std::to_string(oversized_names()) +
         "\n  }\n}\n";
  return out;
}

bool write_chrome_trace(const std::string& path) {
  const std::string json = chrome_trace_json();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    HIA_LOG_ERROR("obs", "cannot open trace output %s", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    HIA_LOG_ERROR("obs", "short write to trace output %s", path.c_str());
    return false;
  }
  const uint64_t dropped = dropped_trace_records();
  if (dropped > 0) {
    HIA_LOG_WARN("obs",
                 "recorder ring overflow: %llu span records dropped (raise "
                 "obs::set_events_capacity)",
                 static_cast<unsigned long long>(dropped));
  }
  HIA_LOG_INFO("obs", "wrote trace to %s", path.c_str());
  return true;
}

// ------------------------------------------------------------ validation --

namespace {
using JsonValue = json::Value;
using json::find;
}  // namespace

TraceValidation validate_chrome_trace_json(const std::string& text) {
  TraceValidation v;
  JsonValue root;
  if (!json::parse(text, root, v.error)) return v;

  const JsonValue* events = find(root, "traceEvents");
  if (events == nullptr || events->type != JsonValue::Type::kArray) {
    v.error = "missing traceEvents array";
    return v;
  }

  struct OpenSpan {
    std::string name;
    double ts = 0.0;
  };
  std::map<std::pair<double, double>, std::vector<OpenSpan>> stacks;

  for (const JsonValue& ev : events->array) {
    ++v.events;
    const JsonValue* ph = find(ev, "ph");
    if (ph == nullptr || ph->type != JsonValue::Type::kString ||
        ph->string.size() != 1) {
      v.error = "event without a one-char ph";
      return v;
    }
    const char phase = ph->string[0];
    if (phase == 'M') continue;  // metadata
    const JsonValue* pid = find(ev, "pid");
    const JsonValue* tid = find(ev, "tid");
    const JsonValue* ts = find(ev, "ts");
    const JsonValue* name = find(ev, "name");
    if (pid == nullptr || tid == nullptr || ts == nullptr || name == nullptr ||
        pid->type != JsonValue::Type::kNumber ||
        tid->type != JsonValue::Type::kNumber ||
        ts->type != JsonValue::Type::kNumber ||
        name->type != JsonValue::Type::kString) {
      v.error = "event missing pid/tid/ts/name";
      return v;
    }
    auto& stack = stacks[{pid->number, tid->number}];
    if (phase == 'B') {
      stack.push_back(OpenSpan{name->string, ts->number});
    } else if (phase == 'E') {
      if (stack.empty()) {
        v.error = "E without matching B: " + name->string;
        return v;
      }
      if (stack.back().name != name->string) {
        v.error = "mismatched span nesting: B " + stack.back().name +
                  " closed by E " + name->string;
        return v;
      }
      if (ts->number + 1e-9 < stack.back().ts) {
        v.error = "span ends before it begins: " + name->string;
        return v;
      }
      stack.pop_back();
      ++v.spans;
    } else if (phase != 'i' && phase != 'C' && phase != 'X') {
      v.error = std::string("unexpected phase '") + phase + "'";
      return v;
    }
  }
  for (const auto& [key, stack] : stacks) {
    if (!stack.empty()) {
      v.error = "unclosed span: " + stack.back().name;
      return v;
    }
  }
  v.ok = true;
  return v;
}

// ------------------------------------------------- trace-derived stats --

SchedulerTraceStats scheduler_trace_stats() {
  SchedulerTraceStats stats;
  const std::vector<Event> events = paired_events(snapshot());

  std::map<int, TrackUtilization> buckets;  // keyed by bucket index
  std::map<std::pair<int, uint32_t>, std::vector<double>> open;
  double first_b = -1.0, last_e = 0.0;

  for (const Event& ev : events) {
    if (std::string_view(ev.category) != "sched") continue;
    if (ev.phase == Phase::kBegin) {
      open[{ev.track, ev.tid}].push_back(ev.t_us);
      if (first_b < 0.0 || ev.t_us < first_b) first_b = ev.t_us;
    } else if (ev.phase == Phase::kEnd) {
      auto& stack = open[{ev.track, ev.tid}];
      if (stack.empty()) continue;
      const double begin_us = stack.back();
      stack.pop_back();
      last_e = std::max(last_e, ev.t_us);
      int bucket = -1;
      // Only outermost sched spans on bucket tracks count as busy time.
      if (stack.empty() && is_bucket_track(ev.track, &bucket)) {
        TrackUtilization& u = buckets[bucket];
        u.id = bucket;
        u.busy_s += (ev.t_us - begin_us) * 1e-6;
        ++u.spans;
      }
    }
  }
  for (auto& [bucket, util] : buckets) stats.buckets.push_back(util);
  if (first_b >= 0.0 && last_e > first_b) {
    stats.span_s = (last_e - first_b) * 1e-6;
  }
  stats.queue_depth_max = counter("staging_queue_depth").max();
  stats.busy_buckets_max = counter("staging_busy_buckets").max();
  return stats;
}

}  // namespace hia::obs
