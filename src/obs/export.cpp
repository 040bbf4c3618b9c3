#include "obs/export.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string_view>
#include <utility>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
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

namespace {

bool is_legal_metric_char(char c, bool first) {
  if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
      c == ':') {
    return true;
  }
  return !first && c >= '0' && c <= '9';
}

/// Maps every character outside the Prometheus metric-name grammar
/// ([a-zA-Z_:][a-zA-Z0-9_:]*) to '_', so an illegal registry name (dots,
/// dashes, unicode) degrades to a legal series instead of corrupting the
/// exposition. Sanitization can collide two raw names; the emitter below
/// dedupes series after sanitizing.
std::string sanitize_metric_name(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty()) return "_";
  for (size_t i = 0; i < name.size(); ++i) {
    out += is_legal_metric_char(name[i], i == 0) ? name[i] : '_';
  }
  return out;
}

}  // namespace

std::string metrics_text() {
  std::string out;
  char buf[64];
  // Series already emitted, keyed by sanitized name + label-pair text.
  // Sanitization can collapse distinct raw names; first writer wins.
  std::set<std::string> emitted;

  auto line = [&](const std::string& name, const std::string& brace,
                  int64_t value) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    out += "hia_" + name + brace + " " + buf + "\n";
  };
  // Every series gets the exposition-format header pair: # HELP then
  // # TYPE (scrapers key dashboards off HELP; the validator requires it).
  auto header = [&](const std::string& name, const char* type,
                    const std::string& help) {
    out += "# HELP hia_" + name + " " + help + "\n";
    out += "# TYPE hia_" + name + " " + std::string(type) + "\n";
  };

  // Identifies the producing build: the constant-1 gauge Prometheus
  // convention for joining version labels onto any other series.
  header("build_info", "gauge",
         "Build/schema identity of the producing binary (constant 1).");
  out += "hia_build_info{events_schema=\"hia-events-v1\","
         "summary_schema=\"hia-run-summary-v1\",project=\"hia\"} 1\n";

  // Counters, grouped by sanitized name: one # HELP/# TYPE pair per
  // metric, the unlabeled aggregate first, then every labeled variant.
  std::map<std::string, std::vector<CounterSample>> counters;
  for (const CounterSample& s : counters_snapshot()) {
    counters[sanitize_metric_name(s.name)].push_back(s);
  }
  for (const CounterSample& s : labeled_counters_snapshot()) {
    counters[sanitize_metric_name(s.name)].push_back(s);
  }
  for (const auto& [name, samples] : counters) {
    header(name, "gauge",
           "Registered counter " + name + "; " + name +
               "_max is its high-water mark.");
    for (const CounterSample& s : samples) {
      const std::string pairs = s.labels.prometheus_pairs();
      const std::string brace = pairs.empty() ? "" : "{" + pairs + "}";
      if (!emitted.insert(name + brace).second) continue;  // dedupe
      line(name, brace, s.value);
      line(name + "_max", brace, s.max);
    }
  }

  // Histograms, grouped the same way. Cumulative buckets, sparse: one line
  // per boundary where the count changes, then the mandatory le="+Inf"
  // line equal to _count.
  std::map<std::string, std::vector<HistogramSnapshot>> hists;
  for (HistogramSnapshot& h : histograms_snapshot()) {
    if (h.count == 0) continue;
    hists[sanitize_metric_name(h.name)].push_back(std::move(h));
  }
  for (HistogramSnapshot& h : labeled_histograms_snapshot()) {
    if (h.count == 0) continue;
    hists[sanitize_metric_name(h.name)].push_back(std::move(h));
  }
  for (const auto& [name, snapshots] : hists) {
    header(name, "histogram",
           "Registered histogram " + name +
               " (sparse cumulative buckets, _sum, _count).");
    for (const HistogramSnapshot& h : snapshots) {
      const std::string pairs = h.labels.prometheus_pairs();
      const std::string brace = pairs.empty() ? "" : "{" + pairs + "}";
      if (!emitted.insert(name + brace).second) continue;  // dedupe
      const std::string le_prefix = pairs.empty() ? "{" : "{" + pairs + ",";
      uint64_t cum = 0;
      for (size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] == 0) continue;
        cum += h.buckets[b];
        const double le = histogram_bucket_upper_bound(static_cast<int>(b));
        if (std::isinf(le)) continue;  // folded into the +Inf line below
        std::snprintf(buf, sizeof(buf), "%.9g", le);
        out += "hia_" + name + "_bucket" + le_prefix + "le=\"" + buf + "\"} ";
        std::snprintf(buf, sizeof(buf), "%llu",
                      static_cast<unsigned long long>(cum));
        out += std::string(buf) + "\n";
      }
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(h.count));
      out += "hia_" + name + "_bucket" + le_prefix + "le=\"+Inf\"} " + buf +
             "\n";
      std::snprintf(buf, sizeof(buf), "%.9g", h.sum);
      out += "hia_" + name + "_sum" + brace + " " + buf + "\n";
      std::snprintf(buf, sizeof(buf), "%llu",
                    static_cast<unsigned long long>(h.count));
      out += "hia_" + name + "_count" + brace + " " + buf + "\n";
    }
  }

  header("trace_dropped_events", "counter",
         "Span records lost to recorder ring overflow.");
  line("trace_dropped_events", "",
       static_cast<int64_t>(dropped_trace_records()));
  header("trace_oversized_names", "counter",
         "Span names truncated to the recorder's name length.");
  line("trace_oversized_names", "", static_cast<int64_t>(oversized_names()));
  return out;
}

bool write_metrics(const std::string& path) {
  const std::string text = metrics_text();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    HIA_LOG_ERROR("obs", "cannot open metrics output %s", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return written == text.size();
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

namespace {

bool legal_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    if (!is_legal_metric_char(name[i], i == 0)) return false;
  }
  return true;
}

bool legal_label_name(const std::string& name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    c == '_' || (i > 0 && c >= '0' && c <= '9');
    if (!ok) return false;
  }
  return true;
}

/// Parses a Prometheus label-set body (the text between '{' and '}')
/// into name/value pairs, honoring quoted values with \\, \" and \n
/// escapes. Returns false with `err` set on malformed input.
bool parse_label_pairs(const std::string& body,
                       std::vector<std::pair<std::string, std::string>>& out,
                       std::string& err) {
  size_t i = 0;
  while (i < body.size()) {
    const size_t eq = body.find('=', i);
    if (eq == std::string::npos || eq + 1 >= body.size() ||
        body[eq + 1] != '"') {
      err = "label without =\"value\"";
      return false;
    }
    const std::string label = body.substr(i, eq - i);
    if (!legal_label_name(label)) {
      err = "illegal label name '" + label + "'";
      return false;
    }
    std::string value;
    size_t j = eq + 2;
    bool closed = false;
    for (; j < body.size(); ++j) {
      const char c = body[j];
      if (c == '\\') {
        if (j + 1 >= body.size()) break;
        ++j;
        value += body[j] == 'n' ? '\n' : body[j];
      } else if (c == '"') {
        closed = true;
        break;
      } else {
        value += c;
      }
    }
    if (!closed) {
      err = "unterminated label value for '" + label + "'";
      return false;
    }
    out.emplace_back(label, value);
    i = j + 1;
    if (i < body.size()) {
      if (body[i] != ',') {
        err = "expected ',' between labels";
        return false;
      }
      ++i;
      if (i >= body.size()) {
        err = "trailing ',' in label set";
        return false;
      }
    }
  }
  for (size_t a = 0; a < out.size(); ++a) {
    for (size_t b = a + 1; b < out.size(); ++b) {
      if (out[a].first == out[b].first) {
        err = "duplicate label name '" + out[a].first + "'";
        return false;
      }
    }
  }
  return true;
}

/// Canonical (sorted) rendering of a label set for series identity.
std::string canonical_labels(
    std::vector<std::pair<std::string, std::string>> pairs) {
  std::sort(pairs.begin(), pairs.end());
  std::string out;
  for (const auto& [k, val] : pairs) {
    if (!out.empty()) out += ',';
    out += k + "=\"" + val + "\"";
  }
  return out;
}

}  // namespace

MetricsValidation validate_metrics_text(const std::string& text) {
  MetricsValidation v;

  struct HistState {
    std::string base;        // declared histogram metric name
    double prev_le = -std::numeric_limits<double>::infinity();
    double prev_cum = -1.0;  // cumulative counts must be non-decreasing
    bool saw_inf = false;
    double inf_count = -1.0;
    bool saw_sum = false;
    bool saw_count = false;
    double count_value = -1.0;
  };
  std::map<std::string, char> types;  // series -> 'g'auge/'c'ounter/'h'istogram
  std::set<std::string> helped;       // metrics with a # HELP line
  // Histogram state is per *series*: keyed by base name plus the canonical
  // non-le label set, so hia_x{tenant="1"} and hia_x{tenant="2"} (and the
  // unlabeled hia_x) are independent triplets under one # TYPE.
  std::map<std::string, HistState> hists;
  std::set<std::string> seen_series;  // name + canonical labels, dedupe
  bool saw_build_info = false;

  size_t lineno = 0;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty()) continue;
    auto fail = [&](const std::string& msg) {
      v.error = "line " + std::to_string(lineno) + ": " + msg;
    };

    if (line[0] == '#') {
      // "# HELP <name> <text>" and "# TYPE <name> <type>" comments are
      // emitted / enforced; other comments are ignored.
      const std::string help_prefix = "# HELP ";
      if (line.rfind(help_prefix, 0) == 0) {
        const size_t sp = line.find(' ', help_prefix.size());
        if (sp == std::string::npos || sp + 1 >= line.size()) {
          fail("malformed # HELP line");
          return v;
        }
        const std::string name =
            line.substr(help_prefix.size(), sp - help_prefix.size());
        if (!legal_metric_name(name)) {
          fail("illegal metric name '" + name + "'");
          return v;
        }
        helped.insert(name);
        continue;
      }
      const std::string prefix = "# TYPE ";
      if (line.rfind(prefix, 0) != 0) continue;  // other comments: ignore
      const size_t sp = line.find(' ', prefix.size());
      if (sp == std::string::npos) {
        fail("malformed # TYPE line");
        return v;
      }
      const std::string name = line.substr(prefix.size(), sp - prefix.size());
      const std::string type = line.substr(sp + 1);
      if (type != "gauge" && type != "counter" && type != "histogram") {
        fail("unknown metric type " + type);
        return v;
      }
      if (!legal_metric_name(name)) {
        fail("illegal metric name '" + name + "'");
        return v;
      }
      auto it = types.find(name);
      if (it != types.end() && it->second != type[0]) {
        fail("metric " + name + " re-declared with a different type");
        return v;
      }
      if (helped.count(name) == 0) {
        fail("metric " + name + " declared without a preceding # HELP");
        return v;
      }
      types[name] = type[0];
      continue;
    }

    // Sample line: name[{labels}] value
    size_t name_end = line.find_first_of("{ ");
    if (name_end == std::string::npos || name_end == 0) {
      fail("malformed sample line");
      return v;
    }
    const std::string name = line.substr(0, name_end);
    if (!legal_metric_name(name)) {
      fail("illegal metric name '" + name + "'");
      return v;
    }
    std::vector<std::pair<std::string, std::string>> labels;
    size_t value_begin = name_end;
    if (line[name_end] == '{') {
      // Scan for the closing brace outside any quoted label value.
      size_t close = std::string::npos;
      bool in_quote = false;
      for (size_t i = name_end + 1; i < line.size(); ++i) {
        const char c = line[i];
        if (in_quote) {
          if (c == '\\') {
            ++i;
          } else if (c == '"') {
            in_quote = false;
          }
        } else if (c == '"') {
          in_quote = true;
        } else if (c == '}') {
          close = i;
          break;
        }
      }
      if (close == std::string::npos || close + 1 >= line.size() ||
          line[close + 1] != ' ') {
        fail("malformed label set");
        return v;
      }
      const std::string body = line.substr(name_end + 1, close - name_end - 1);
      std::string err;
      if (!parse_label_pairs(body, labels, err)) {
        fail(err);
        return v;
      }
      value_begin = close + 1;
    }
    if (line[value_begin] != ' ') {
      fail("missing value separator");
      return v;
    }
    const std::string value_str = line.substr(value_begin + 1);
    char* end = nullptr;
    const double value = std::strtod(value_str.c_str(), &end);
    if (end == value_str.c_str() || *end != '\0') {
      fail("non-numeric value '" + value_str + "'");
      return v;
    }
    ++v.samples;
    if (name == "hia_build_info") {
      if (value != 1.0) {
        fail("hia_build_info must be the constant 1");
        return v;
      }
      saw_build_info = true;
    }

    const std::string series_key = name + "{" + canonical_labels(labels) + "}";
    if (!seen_series.insert(series_key).second) {
      fail("duplicate series " + series_key);
      return v;
    }

    // Resolve the declared series this sample belongs to.
    auto ends_with = [&](const char* suffix) {
      const size_t n = std::string_view(suffix).size();
      return name.size() > n && name.compare(name.size() - n, n, suffix) == 0;
    };
    auto base_of = [&](const char* suffix) {
      return name.substr(0, name.size() - std::string_view(suffix).size());
    };

    std::string hist_base;
    const char* hist_part = nullptr;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      if (!ends_with(suffix)) continue;
      const std::string base = base_of(suffix);
      auto it = types.find(base);
      if (it != types.end() && it->second == 'h') {
        hist_base = base;
        hist_part = suffix;
        break;
      }
    }

    if (hist_part == nullptr) {
      // Plain gauge/counter sample; gauges also emit <name>_max.
      const bool declared =
          types.count(name) != 0 ||
          (ends_with("_max") && types.count(base_of("_max")) != 0);
      if (!declared) {
        fail("sample " + name + " has no preceding # TYPE");
        return v;
      }
      continue;
    }

    // The histogram series identity excludes the per-bucket le label.
    std::string le_str;
    std::vector<std::pair<std::string, std::string>> non_le;
    for (const auto& [k, val] : labels) {
      if (k == "le") {
        le_str = val;
      } else {
        non_le.emplace_back(k, val);
      }
    }
    HistState& h =
        hists[hist_base + "{" + canonical_labels(non_le) + "}"];
    h.base = hist_base;
    if (std::string_view(hist_part) == "_bucket") {
      if (le_str.empty()) {
        fail("histogram bucket without le label");
        return v;
      }
      double le;
      if (le_str == "+Inf") {
        le = std::numeric_limits<double>::infinity();
      } else {
        char* le_end_p = nullptr;
        le = std::strtod(le_str.c_str(), &le_end_p);
        if (le_end_p == le_str.c_str() || *le_end_p != '\0') {
          fail("non-numeric le bound '" + le_str + "'");
          return v;
        }
      }
      if (le <= h.prev_le) {
        fail("histogram " + hist_base + " buckets not ascending in le");
        return v;
      }
      if (value < h.prev_cum) {
        fail("histogram " + hist_base + " bucket counts not cumulative");
        return v;
      }
      h.prev_le = le;
      h.prev_cum = value;
      if (std::isinf(le)) {
        h.saw_inf = true;
        h.inf_count = value;
      }
    } else if (std::string_view(hist_part) == "_sum") {
      h.saw_sum = true;
    } else {
      h.saw_count = true;
      h.count_value = value;
    }
  }

  for (const auto& [name, type] : types) {
    if (type != 'h') continue;
    bool any = false;
    for (const auto& [key, h] : hists) {
      if (h.base == name) {
        any = true;
        break;
      }
    }
    if (!any) {
      v.error = "histogram " + name + " declared but has no samples";
      return v;
    }
  }
  for (const auto& [key, h] : hists) {
    if (!h.saw_inf || !h.saw_sum || !h.saw_count) {
      v.error = "histogram " + key + " missing _bucket{le=\"+Inf\"}/_sum/_count";
      return v;
    }
    if (h.inf_count != h.count_value) {
      v.error = "histogram " + key + " +Inf bucket != _count";
      return v;
    }
    ++v.histograms;
  }
  if (!saw_build_info) {
    v.error = "missing hia_build_info sample (constant build-identity gauge)";
    return v;
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
