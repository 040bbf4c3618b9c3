#include "obs/run_summary.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <utility>

#include "obs/counters.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace hia::obs {

namespace {

constexpr const char* kSchemaTag = "hia-run-summary-v1";

std::string num(double v) {
  // JSON has no Inf/NaN; clamp the overflow bucket bound and any stray
  // non-finite metric to the largest finite double.
  if (std::isnan(v)) v = 0.0;
  if (std::isinf(v)) v = v > 0 ? 1.7976931348623157e308 : -1.7976931348623157e308;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

void append_number_map(std::string& out, const char* key,
                       const std::map<std::string, double>& values) {
  out += std::string("  \"") + key + "\": {";
  bool first = true;
  for (const auto& [name, value] : values) {
    if (!first) out += ",";
    first = false;
    out += "\n    \"";
    json::append_escaped(out, name);
    out += "\": " + num(value);
  }
  out += first ? "}" : "\n  }";
}

}  // namespace

std::string run_summary_json(const RunSummary& meta) {
  std::string out;
  out.reserve(1 << 14);
  out += "{\n  \"schema\": \"";
  out += kSchemaTag;
  out += "\",\n  \"bench\": \"";
  json::append_escaped(out, meta.bench);
  out += "\",\n";

  append_number_map(out, "metrics", meta.metrics);
  out += ",\n";
  if (!meta.tolerances.empty()) {
    append_number_map(out, "tolerances", meta.tolerances);
    out += ",\n";
  }

  // The recorder's own loss counts ride with the registry's counters
  // (value = max: both only grow until the next reset_events).
  std::vector<CounterSample> counters = counters_snapshot();
  for (const auto& [name, n] :
       {std::pair{"trace_dropped_events", dropped_trace_records()},
        std::pair{"trace_oversized_names", oversized_names()}}) {
    const auto v = static_cast<int64_t>(n);
    counters.push_back({name, Labels{}, v, v});
  }
  std::sort(counters.begin(), counters.end(),
            [](const CounterSample& a, const CounterSample& b) {
              return a.name < b.name;
            });
  out += "  \"counters\": {";
  {
    bool first = true;
    for (const CounterSample& c : counters) {
      if (!first) out += ",";
      first = false;
      out += "\n    \"";
      json::append_escaped(out, c.name);
      out += "\": {\"value\": " + num(static_cast<double>(c.value)) +
             ", \"max\": " + num(static_cast<double>(c.max)) + "}";
    }
    out += first ? "}" : "\n  }";
  }
  out += ",\n";

  out += "  \"histograms\": {";
  {
    bool first = true;
    for (const HistogramSnapshot& h : histograms_snapshot()) {
      if (h.count == 0) continue;  // untouched histograms are noise
      if (!first) out += ",";
      first = false;
      out += "\n    \"";
      json::append_escaped(out, h.name);
      out += "\": {\"count\": " + num(static_cast<double>(h.count)) +
             ", \"sum\": " + num(h.sum) + ", \"min\": " + num(h.min) +
             ", \"max\": " + num(h.max) +
             ", \"p50\": " + num(h.quantile(0.50)) +
             ", \"p90\": " + num(h.quantile(0.90)) +
             ", \"p99\": " + num(h.quantile(0.99)) + ",\n      \"buckets\": [";
      bool first_bucket = true;
      for (size_t b = 0; b < h.buckets.size(); ++b) {
        if (h.buckets[b] == 0) continue;  // sparse: non-empty buckets only
        if (!first_bucket) out += ", ";
        first_bucket = false;
        out += "{\"le\": " +
               num(histogram_bucket_upper_bound(static_cast<int>(b))) +
               ", \"count\": " + num(static_cast<double>(h.buckets[b])) + "}";
      }
      out += "]}";
    }
    out += first ? "}" : "\n  }";
  }
  out += ",\n";

  out += "  \"series\": {";
  {
    bool first = true;
    for (const SeriesSnapshot& s : timeseries_snapshot()) {
      if (s.samples.empty()) continue;
      if (!first) out += ",";
      first = false;
      out += "\n    \"";
      json::append_escaped(out, s.name);
      out += "\": {\"dropped\": " + num(static_cast<double>(s.dropped)) +
             ", \"samples\": [";
      for (size_t i = 0; i < s.samples.size(); ++i) {
        if (i > 0) out += ", ";
        out += "[" + num(s.samples[i].t_s) + ", " + num(s.samples[i].vt_s) +
               ", " + num(s.samples[i].value) + "]";
      }
      out += "]}";
    }
    out += first ? "}" : "\n  }";
  }

  // Per-label breakdown tables: every labeled counter and histogram,
  // grouped by metric name and keyed by the canonical label key
  // ("tenant=3"). Optional — omitted entirely when the run recorded no
  // labeled series, so unlabeled runs (and the committed baselines) are
  // byte-identical to the pre-label schema.
  std::map<std::string, std::string> breakdowns;  // metric -> rendered rows
  for (const CounterSample& c : labeled_counters_snapshot()) {
    // Registered-but-untouched cells (e.g. zeroed by reset_counters) add
    // no information; skipping them keeps a quiesced registry silent.
    if (c.value == 0 && c.max == 0) continue;
    std::string& rows = breakdowns[c.name];
    if (!rows.empty()) rows += ",";
    rows += "\n      \"";
    json::append_escaped(rows, c.labels.key());
    rows += "\": {\"value\": " + num(static_cast<double>(c.value)) +
            ", \"max\": " + num(static_cast<double>(c.max)) + "}";
  }
  for (const HistogramSnapshot& h : labeled_histograms_snapshot()) {
    if (h.count == 0) continue;
    std::string& rows = breakdowns[h.name];
    if (!rows.empty()) rows += ",";
    rows += "\n      \"";
    json::append_escaped(rows, h.labels.key());
    rows += "\": {\"count\": " + num(static_cast<double>(h.count)) +
            ", \"sum\": " + num(h.sum) + ", \"min\": " + num(h.min) +
            ", \"max\": " + num(h.max) +
            ", \"p50\": " + num(h.quantile(0.50)) +
            ", \"p90\": " + num(h.quantile(0.90)) +
            ", \"p99\": " + num(h.quantile(0.99)) + "}";
  }
  if (!breakdowns.empty()) {
    out += ",\n  \"breakdowns\": {";
    bool first = true;
    for (const auto& [name, rows] : breakdowns) {
      if (!first) out += ",";
      first = false;
      out += "\n    \"";
      json::append_escaped(out, name);
      out += "\": {" + rows + "\n    }";
    }
    out += "\n  }";
  }

  out += "\n}\n";
  return out;
}

bool write_run_summary(const std::string& path, const RunSummary& meta) {
  const std::string json = run_summary_json(meta);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    HIA_LOG_ERROR("obs", "cannot open run-summary output %s", path.c_str());
    return false;
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    HIA_LOG_ERROR("obs", "short write to run-summary output %s", path.c_str());
    return false;
  }
  return true;
}

// ---------------------------------------------------------- validation ----

namespace {

bool check_histogram(const std::string& name, const json::Value& h,
                     std::string& error) {
  const json::Value* count = json::find(h, "count");
  const json::Value* p50 = json::find(h, "p50");
  const json::Value* p99 = json::find(h, "p99");
  const json::Value* buckets = json::find(h, "buckets");
  if (count == nullptr || !count->is_number() || p50 == nullptr ||
      !p50->is_number() || p99 == nullptr || !p99->is_number()) {
    error = "histogram " + name + " missing count/p50/p99";
    return false;
  }
  if (buckets == nullptr || !buckets->is_array()) {
    error = "histogram " + name + " missing buckets array";
    return false;
  }
  double prev_le = -std::numeric_limits<double>::infinity();
  double total = 0.0;
  for (const json::Value& b : buckets->array) {
    const json::Value* le = json::find(b, "le");
    const json::Value* c = json::find(b, "count");
    if (le == nullptr || !le->is_number() || c == nullptr || !c->is_number()) {
      error = "histogram " + name + " has a malformed bucket";
      return false;
    }
    if (le->number <= prev_le) {
      error = "histogram " + name + " buckets not in ascending le order";
      return false;
    }
    prev_le = le->number;
    total += c->number;
  }
  if (total != count->number) {
    error = "histogram " + name + " bucket counts do not sum to count";
    return false;
  }
  return true;
}

bool check_series(const std::string& name, const json::Value& s,
                  std::string& error) {
  const json::Value* samples = json::find(s, "samples");
  if (samples == nullptr || !samples->is_array()) {
    error = "series " + name + " missing samples array";
    return false;
  }
  double prev_t = -std::numeric_limits<double>::infinity();
  for (const json::Value& sample : samples->array) {
    if (!sample.is_array() || sample.array.size() != 3 ||
        !sample.array[0].is_number() || !sample.array[1].is_number() ||
        !sample.array[2].is_number()) {
      error = "series " + name + " sample is not a [t_s, vt_s, value] triple";
      return false;
    }
    if (sample.array[0].number < prev_t) {
      error = "series " + name + " wall clock goes backwards";
      return false;
    }
    prev_t = sample.array[0].number;
  }
  return !samples->array.empty();
}

}  // namespace

SummaryValidation validate_run_summary_json(const std::string& text) {
  SummaryValidation v;
  json::Value root;
  if (!json::parse(text, root, v.error)) return v;

  const json::Value* schema = json::find(root, "schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != kSchemaTag) {
    v.error = std::string("missing or unknown schema tag (want ") +
              kSchemaTag + ")";
    return v;
  }
  const json::Value* bench = json::find(root, "bench");
  if (bench == nullptr || !bench->is_string() || bench->string.empty()) {
    v.error = "missing bench name";
    return v;
  }
  v.bench = bench->string;

  const json::Value* metrics = json::find(root, "metrics");
  if (metrics == nullptr || !metrics->is_object()) {
    v.error = "missing metrics object";
    return v;
  }
  for (const auto& [name, value] : metrics->object) {
    if (!value.is_number()) {
      v.error = "metric " + name + " is not a number";
      return v;
    }
    ++v.metrics;
  }

  const json::Value* counters = json::find(root, "counters");
  if (counters == nullptr || !counters->is_object()) {
    v.error = "missing counters object";
    return v;
  }
  v.counters = counters->object.size();

  const json::Value* histograms = json::find(root, "histograms");
  if (histograms == nullptr || !histograms->is_object()) {
    v.error = "missing histograms object";
    return v;
  }
  for (const auto& [name, h] : histograms->object) {
    if (!check_histogram(name, h, v.error)) return v;
    ++v.histograms;
  }

  const json::Value* series = json::find(root, "series");
  if (series == nullptr || !series->is_object()) {
    v.error = "missing series object";
    return v;
  }
  for (const auto& [name, s] : series->object) {
    if (!check_series(name, s, v.error)) return v;
    ++v.series;
  }

  // Optional per-label breakdown tables (runs with labeled telemetry
  // only): an object of metric -> labelset-key -> numeric fields.
  if (const json::Value* breakdowns = json::find(root, "breakdowns");
      breakdowns != nullptr) {
    if (!breakdowns->is_object()) {
      v.error = "breakdowns is not an object";
      return v;
    }
    for (const auto& [metric, table] : breakdowns->object) {
      if (!table.is_object() || table.object.empty()) {
        v.error = "breakdown " + metric + " is not a non-empty object";
        return v;
      }
      for (const auto& [labelset, fields] : table.object) {
        if (!fields.is_object()) {
          v.error = "breakdown " + metric + "/" + labelset +
                    " is not an object";
          return v;
        }
        for (const auto& [field, value] : fields.object) {
          if (!value.is_number()) {
            v.error = "breakdown " + metric + "/" + labelset + "/" + field +
                      " is not a number";
            return v;
          }
        }
      }
      ++v.breakdowns;
    }
  }

  v.ok = true;
  return v;
}

// ---------------------------------------------------------------- diff ----

DiffReport diff_run_summaries(const std::string& fresh_json,
                              const std::string& baseline_json) {
  DiffReport report;

  const SummaryValidation fresh_v = validate_run_summary_json(fresh_json);
  if (!fresh_v.ok) {
    report.error = "fresh summary invalid: " + fresh_v.error;
    return report;
  }
  const SummaryValidation base_v = validate_run_summary_json(baseline_json);
  if (!base_v.ok) {
    report.error = "baseline summary invalid: " + base_v.error;
    return report;
  }

  json::Value fresh, base;
  std::string err;
  json::parse(fresh_json, fresh, err);      // already validated above
  json::parse(baseline_json, base, err);

  const json::Value* base_metrics = json::find(base, "metrics");
  const json::Value* fresh_metrics = json::find(fresh, "metrics");
  const json::Value* tolerances = json::find(base, "tolerances");

  double default_tol = kDefaultRelativeTolerance;
  if (tolerances != nullptr) {
    if (const json::Value* d = json::find(*tolerances, "default");
        d != nullptr && d->is_number()) {
      default_tol = d->number;
    }
  }

  report.ok = true;
  for (const auto& [name, base_value] : base_metrics->object) {
    DiffEntry entry;
    entry.metric = name;
    entry.baseline = base_value.number;
    entry.tolerance = default_tol;
    if (tolerances != nullptr) {
      if (const json::Value* t = json::find(*tolerances, name);
          t != nullptr && t->is_number()) {
        entry.tolerance = t->number;
      }
    }
    const json::Value* fresh_value = json::find(*fresh_metrics, name);
    if (fresh_value == nullptr || !fresh_value->is_number()) {
      entry.missing = true;
      entry.ok = false;
      report.ok = false;
      report.entries.push_back(std::move(entry));
      continue;
    }
    entry.fresh = fresh_value->number;
    entry.rel_diff = std::fabs(entry.fresh - entry.baseline) /
                     std::max(std::fabs(entry.baseline), 1e-12);
    entry.ok = entry.rel_diff <= entry.tolerance;
    if (!entry.ok) report.ok = false;
    report.entries.push_back(std::move(entry));
  }
  return report;
}

}  // namespace hia::obs
