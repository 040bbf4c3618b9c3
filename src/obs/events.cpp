#include "obs/events.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string_view>

#include "obs/json.hpp"
#include "obs/rings.hpp"
#include "obs/trace.hpp"

namespace hia::obs {

namespace {

constexpr char kMagic[8] = {'h', 'i', 'a', 'e', 'v', 't', 's', '1'};
constexpr uint32_t kVersion = 1;
constexpr int32_t kLastLifecycleKind = 23;  // kinds above are span-view
constexpr int32_t kMaxKind = 26;            // highest EventKind value

bool is_lifecycle(int32_t kind) {
  return kind >= 1 && kind <= kLastLifecycleKind;
}

struct Recorder {
  std::atomic<bool> enabled{true};
  std::atomic<size_t> capacity{kDefaultEventsCapacity};
  std::atomic<uint64_t> dropped_by_kind[kMaxKind + 1] = {};
  std::atomic<uint64_t> oversized{0};
  detail::RingSet rings;
};

Recorder& recorder() {
  static Recorder* r = new Recorder();  // leaked: usable during shutdown
  return *r;
}

thread_local detail::RingSet::RingPtr t_ring;

detail::Ring& local_ring() {
  if (t_ring == nullptr) {
    Recorder& rec = recorder();
    rec.rings.take(t_ring, rec.capacity.load(std::memory_order_relaxed));
  }
  return *t_ring;
}

/// The (category, name) table behind span-view name ids: a few dozen
/// entries, never removed, so an id and its strings stay valid across
/// resets.
struct NameTable {
  std::mutex mutex;
  std::deque<std::pair<std::string, std::string>> names;  // by id
};

NameTable& name_table() {
  static NameTable* t = new NameTable();  // leaked, like the recorder
  return *t;
}

uint64_t sum_drops(bool lifecycle) {
  Recorder& rec = recorder();
  uint64_t n = 0;
  for (int32_t k = 0; k <= kMaxKind; ++k) {
    if (is_lifecycle(k) == lifecycle) {
      n += rec.dropped_by_kind[k].load(std::memory_order_relaxed);
    }
  }
  return n;
}

/// A count from a file header: a JSON number that is finite, integral and
/// in [0, max]. Checked on the double, before any conversion.
bool header_count(const json::Value* v, double max, uint64_t* out) {
  if (v == nullptr || !v->is_number()) return false;
  const double x = v->number;
  if (!(x >= 0.0 && x <= max) || x != std::floor(x)) return false;
  *out = static_cast<uint64_t>(x);
  return true;
}

std::mutex g_run_config_mutex;
EventsRunConfig g_run_config;  // guarded by g_run_config_mutex

}  // namespace

const char* event_kind_name(int32_t kind) {
  switch (static_cast<EventKind>(kind)) {
    case EventKind::kTaskSubmit: return "task_submit";
    case EventKind::kTaskAssign: return "task_assign";
    case EventKind::kTaskComplete: return "task_complete";
    case EventKind::kTaskDegrade: return "task_degrade";
    case EventKind::kTaskShed: return "task_shed";
    case EventKind::kTaskDefer: return "task_defer";
    case EventKind::kPut: return "put";
    case EventKind::kGet: return "get";
    case EventKind::kPressure: return "pressure";
    case EventKind::kPoolGrow: return "pool_grow";
    case EventKind::kPoolShrink: return "pool_shrink";
    case EventKind::kFaultVerdict: return "fault_verdict";
    case EventKind::kCreditGrant: return "credit_grant";
    case EventKind::kTaskRetry: return "task_retry";
    case EventKind::kBackoffRelease: return "backoff_release";
    case EventKind::kBucketOccupy: return "bucket_occupy";
    case EventKind::kBucketVacate: return "bucket_vacate";
    case EventKind::kTaskXfer: return "task_xfer";
    case EventKind::kTaskWork: return "task_work";
    case EventKind::kLeaseExpire: return "lease_expire";
    case EventKind::kTaskReexec: return "task_reexec";
    case EventKind::kReplicaRepair: return "replica_repair";
    case EventKind::kZombieFence: return "zombie_fence";
    case EventKind::kSpanBegin: return "span_begin";
    case EventKind::kSpanEnd: return "span_end";
    case EventKind::kMark: return "mark";
  }
  return nullptr;
}

namespace detail {

void push_record(EventRecord r) {
  r.t_us = now_us();
  r.pad = thread_track();
  EventRecord overwritten;
  if (local_ring().push(r, &overwritten) && overwritten.kind >= 0 &&
      overwritten.kind <= kMaxKind) {
    recorder().dropped_by_kind[overwritten.kind].fetch_add(
        1, std::memory_order_relaxed);
  }
}

uint32_t intern_name(const char* category, const char* name) {
  size_t len = strnlen(name, Event::kNameCapacity);
  if (len == Event::kNameCapacity) {
    recorder().oversized.fetch_add(1, std::memory_order_relaxed);
    --len;
  }
  using Key = std::pair<std::string_view, std::string_view>;
  const Key key(category, std::string_view(name, len));
  // This thread's names, keyed by views of the table's copies.
  thread_local std::map<Key, uint32_t> cache;
  if (const auto it = cache.find(key); it != cache.end()) return it->second;
  NameTable& table = name_table();
  std::lock_guard lock(table.mutex);
  uint32_t id = 0;
  while (id < table.names.size() && Key(table.names[id]) != key) ++id;
  if (id == table.names.size()) table.names.emplace_back(key);
  cache.emplace(Key(table.names[id]), id);
  return id;
}

void interned_name(uint32_t id, const char** category, const char** name) {
  NameTable& table = name_table();
  std::lock_guard lock(table.mutex);
  const auto& [cat, nm] = table.names.at(id);
  *category = cat.c_str();
  *name = nm.c_str();
}

void visit_records(
    const std::function<void(const EventRecord&, uint32_t)>& f) {
  recorder().rings.visit(f);
}

}  // namespace detail

uint64_t dropped_trace_records() { return sum_drops(false); }

uint64_t oversized_names() {
  return recorder().oversized.load(std::memory_order_relaxed);
}

void record_event(EventKind kind, int tenant, int bucket, int64_t a,
                  int64_t b, double vt_s) {
  if (!events_enabled()) return;
  EventRecord r;
  r.vt_s = vt_s;
  r.a = a;
  r.b = b;
  r.kind = static_cast<int32_t>(kind);
  r.tenant = tenant;
  r.bucket = bucket;
  detail::push_record(r);
}

void enable_events() {
  recorder().enabled.store(true, std::memory_order_relaxed);
}

void disable_events() {
  recorder().enabled.store(false, std::memory_order_relaxed);
}

bool events_enabled() {
  return recorder().enabled.load(std::memory_order_relaxed);
}

void set_events_capacity(size_t records) {
  recorder().capacity.store(std::max<size_t>(records, 1),
                            std::memory_order_relaxed);
}

std::vector<EventRecord> events_snapshot() {
  std::vector<EventRecord> out;
  recorder().rings.visit([&out](const EventRecord& r, uint32_t) {
    if (!is_lifecycle(r.kind)) return;
    out.push_back(r);
    out.back().pad = 0;
  });
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRecord& x, const EventRecord& y) {
                     return x.t_us < y.t_us;
                   });
  return out;
}

uint64_t dropped_event_records() { return sum_drops(true); }

std::map<int32_t, uint64_t> dropped_event_records_by_kind() {
  Recorder& rec = recorder();
  std::map<int32_t, uint64_t> out;
  for (int32_t k = 1; k <= kLastLifecycleKind; ++k) {
    const uint64_t n = rec.dropped_by_kind[k].load(std::memory_order_relaxed);
    if (n > 0) out[k] = n;
  }
  return out;
}

size_t event_ring_count() { return recorder().rings.count(); }

void reset_events() {
  Recorder& rec = recorder();
  rec.rings.reset();
  for (std::atomic<uint64_t>& n : rec.dropped_by_kind) {
    n.store(0, std::memory_order_relaxed);
  }
  rec.oversized.store(0, std::memory_order_relaxed);
  std::lock_guard cfg_lock(g_run_config_mutex);
  g_run_config = EventsRunConfig{};
}

void set_events_run_config(const EventsRunConfig& cfg) {
  std::lock_guard lock(g_run_config_mutex);
  g_run_config = cfg;
  g_run_config.present = true;
}

// ------------------------------------------------------------- spill ----

bool write_events_file(const std::string& path) {
  const std::vector<EventRecord> records = events_snapshot();
  const uint64_t dropped = dropped_event_records();
  const std::map<int32_t, uint64_t> dropped_by_kind =
      dropped_event_records_by_kind();

  std::ostringstream header;
  header << "{\"schema\":\"hia-events-v1\",\"record_bytes\":"
         << sizeof(EventRecord) << ",\"count\":" << records.size()
         << ",\"dropped\":" << dropped << ",\"dropped_by_kind\":{";
  const char* sep = "";
  for (const auto& [kind, n] : dropped_by_kind) {
    header << sep << '"' << kind << "\":" << n;
    sep = ",";
  }
  header << "},\"fields\":[\"t_us:f64\",\"vt_s:f64\",\"a:i64\",\"b:i64\","
            "\"kind:i32\",\"tenant:i32\",\"bucket:i32\",\"pad:i32\"],"
            "\"kinds\":{";
  sep = "";
  for (int32_t k = 1; is_lifecycle(k); ++k) {
    header << sep << '"' << k << "\":\"" << event_kind_name(k) << '"';
    sep = ",";
  }
  header << "}";
  {
    // Recorded run configuration, if the driver registered one — lets a
    // replay re-simulate the *configured* campaign (weights, overload,
    // fault schedule) instead of trusting hand-supplied flags.
    std::lock_guard lock(g_run_config_mutex);
    if (g_run_config.present) {
      std::string faults;
      std::string overload;
      json::append_escaped(faults, g_run_config.faults);
      json::append_escaped(overload, g_run_config.overload);
      header << ",\"run_config\":{\"buckets\":" << g_run_config.buckets
             << ",\"servers\":" << g_run_config.servers
             << ",\"replicas\":" << g_run_config.replicas << ",\"faults\":\""
             << faults << "\",\"overload\":\"" << overload
             << "\",\"tenant_weights\":[";
      sep = "";
      for (const double w : g_run_config.tenant_weights) {
        header << sep << w;
        sep = ",";
      }
      header << "]}";
    }
  }
  header << "}";
  const std::string header_json = header.str();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(kMagic, sizeof(kMagic));
  const uint32_t version = kVersion;
  const uint32_t header_bytes = static_cast<uint32_t>(header_json.size());
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  out.write(reinterpret_cast<const char*>(&header_bytes),
            sizeof(header_bytes));
  out.write(header_json.data(),
            static_cast<std::streamsize>(header_json.size()));
  out.write(reinterpret_cast<const char*>(records.data()),
            static_cast<std::streamsize>(records.size() * sizeof(EventRecord)));
  return static_cast<bool>(out);
}

// -------------------------------------------------------- validation ----

EventsValidation validate_events(const std::vector<EventRecord>& records,
                                 uint64_t dropped) {
  EventsValidation v;
  v.records = records.size();
  v.dropped = dropped;

  std::map<int, EventsValidation::TenantCounts> by_tenant;
  double prev_t = -1.0;
  for (size_t i = 0; i < records.size(); ++i) {
    const EventRecord& r = records[i];
    if (!is_lifecycle(r.kind)) {
      v.error = "record " + std::to_string(i) + ": unknown event kind " +
                std::to_string(r.kind);
      return v;
    }
    if (r.t_us < prev_t) {
      v.error = "record " + std::to_string(i) +
                ": wall timestamp went backwards (" + std::to_string(r.t_us) +
                " < " + std::to_string(prev_t) + ")";
      return v;
    }
    prev_t = r.t_us;

    const EventKind kind = static_cast<EventKind>(r.kind);
    // The six lifecycle kinds (1..6) enter the conservation partition; the
    // attribution kinds (13..19) and the crash-recovery markers are
    // task-keyed and tenant-attributed too (kReplicaRepair is handle-keyed,
    // like kPut, and exempt).
    const bool task_event = r.kind <= 6;
    const bool attrib_event = r.kind >= 13 && r.kind <= 19;
    const bool recovery_event = kind == EventKind::kLeaseExpire ||
                                kind == EventKind::kTaskReexec ||
                                kind == EventKind::kZombieFence;
    if ((task_event || attrib_event || recovery_event) && r.tenant < 0) {
      v.error = "record " + std::to_string(i) + " (" +
                event_kind_name(r.kind) + "): task event without a tenant";
      return v;
    }
    if (!task_event) continue;
    EventsValidation::TenantCounts& t = by_tenant[r.tenant];
    t.tenant = r.tenant;
    switch (kind) {
      case EventKind::kTaskSubmit: ++t.submitted; break;
      case EventKind::kTaskAssign: ++t.assigned; break;
      case EventKind::kTaskComplete: ++t.completed; break;
      case EventKind::kTaskDegrade: ++t.degraded; break;
      case EventKind::kTaskShed: ++t.shed; break;
      case EventKind::kTaskDefer: ++t.deferred; break;
      default: break;
    }
  }

  for (const auto& [tenant, counts] : by_tenant) {
    v.tenants.push_back(counts);
    if (dropped > 0) continue;  // partition reported, not enforced
    const uint64_t terminal = counts.completed + counts.degraded +
                              counts.shed + counts.deferred;
    if (terminal != counts.submitted) {
      v.error = "tenant " + std::to_string(tenant) +
                ": conservation broken (submitted=" +
                std::to_string(counts.submitted) + " != completed=" +
                std::to_string(counts.completed) + " + degraded=" +
                std::to_string(counts.degraded) + " + shed=" +
                std::to_string(counts.shed) + " + deferred=" +
                std::to_string(counts.deferred) + ")";
      return v;
    }
  }
  v.ok = true;
  return v;
}

namespace {

/// Reads the framing and the JSON header of an hia-events-v1 file, leaving
/// `in` at the first record. Returns an error message, empty on success.
std::string read_header(std::ifstream& in, const std::string& path,
                        json::Value* header) {
  if (!in) return "cannot open " + path;
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t header_bytes = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&header_bytes), sizeof(header_bytes));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return "bad magic: not an hia-events-v1 file";
  }
  if (version != kVersion) {
    return "unsupported version " + std::to_string(version);
  }
  if (header_bytes == 0 || header_bytes > (1u << 20)) {
    return "implausible header length " + std::to_string(header_bytes);
  }
  std::string header_json(header_bytes, '\0');
  in.read(header_json.data(), header_bytes);
  if (!in) return "truncated header";
  std::string parse_error;
  if (!json::parse(header_json, *header, parse_error)) {
    return "header is not valid JSON: " + parse_error;
  }
  const json::Value* schema = json::find(*header, "schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "hia-events-v1") {
    return "header schema tag is not hia-events-v1";
  }
  return "";
}

/// The records, drop count and per-kind drop table of a spill whose header
/// `read_header` has just read from `in`.
std::string read_body(std::ifstream& in, const json::Value& header,
                      std::vector<EventRecord>* records, uint64_t* dropped,
                      std::map<int32_t, uint64_t>* by_kind) {
  const json::Value* record_bytes = json::find(header, "record_bytes");
  if (record_bytes == nullptr || !record_bytes->is_number() ||
      record_bytes->number != static_cast<double>(sizeof(EventRecord))) {
    return "header record_bytes does not match EventRecord";
  }
  // The record count must fit the bytes that follow the header before
  // anything is sized by it.
  const std::streampos body = in.tellg();
  in.seekg(0, std::ios::end);
  const auto remaining = static_cast<uint64_t>(in.tellg() - body);
  in.seekg(body);
  const auto max_records =
      static_cast<double>(remaining / sizeof(EventRecord));
  uint64_t n = 0;
  if (!header_count(json::find(header, "count"), max_records, &n) ||
      !header_count(json::find(header, "dropped"), 0x1p63, dropped)) {
    return "header count/dropped missing, not a whole number, or more "
           "records than the file holds";
  }
  records->resize(n);
  in.read(reinterpret_cast<char*>(records->data()),
          static_cast<std::streamsize>(n * sizeof(EventRecord)));
  if (!in) return "truncated in the " + std::to_string(n) + " records";
  in.peek();
  if (!in.eof()) {
    return "trailing bytes after " + std::to_string(n) + " records";
  }
  // Optional per-kind drop table (absent in spills written before it
  // existed): carried through so events_lint can say *what* was lost.
  const json::Value* table = json::find(header, "dropped_by_kind");
  if (table == nullptr || !table->is_object()) return "";
  for (const auto& [key, val] : table->object) {
    int32_t kind = 0;
    const auto [end, ec] =
        std::from_chars(key.data(), key.data() + key.size(), kind);
    uint64_t count = 0;
    if (ec != std::errc() || end != key.data() + key.size() ||
        !header_count(&val, 0x1p63, &count)) {
      return "header dropped_by_kind entry \"" + key + "\" is malformed";
    }
    (*by_kind)[kind] = count;
  }
  return "";
}

}  // namespace

bool read_events_file(const std::string& path,
                      std::vector<EventRecord>* records_out,
                      uint64_t* dropped_out,
                      std::map<int32_t, uint64_t>* dropped_by_kind,
                      std::string* error) {
  std::ifstream in(path, std::ios::binary);
  json::Value header;
  std::vector<EventRecord> records;
  uint64_t dropped = 0;
  std::map<int32_t, uint64_t> by_kind;
  std::string failure = read_header(in, path, &header);
  if (failure.empty()) {
    failure = read_body(in, header, &records, &dropped, &by_kind);
  }
  if (!failure.empty()) {
    if (error != nullptr) *error = failure;
    return false;
  }
  if (records_out != nullptr) *records_out = std::move(records);
  if (dropped_out != nullptr) *dropped_out = dropped;
  if (dropped_by_kind != nullptr) *dropped_by_kind = std::move(by_kind);
  return true;
}

bool read_events_run_config(const std::string& path, EventsRunConfig* cfg,
                            std::string* error) {
  if (cfg != nullptr) *cfg = EventsRunConfig{};
  std::ifstream in(path, std::ios::binary);
  json::Value header;
  if (const std::string failure = read_header(in, path, &header);
      !failure.empty()) {
    if (error != nullptr) *error = failure;
    return false;
  }
  const json::Value* rc = json::find(header, "run_config");
  if (rc == nullptr || !rc->is_object()) return true;  // pre-PR10 spill
  if (cfg == nullptr) return true;
  cfg->present = true;
  auto number = [rc](const char* key, int* out) {
    const json::Value* v = json::find(*rc, key);
    if (v != nullptr && v->is_number() && std::fabs(v->number) < 1e9) {
      *out = static_cast<int>(v->number);
    }
  };
  auto text = [rc](const char* key, std::string* out) {
    const json::Value* v = json::find(*rc, key);
    if (v != nullptr && v->is_string()) *out = v->string;
  };
  number("buckets", &cfg->buckets);
  number("servers", &cfg->servers);
  number("replicas", &cfg->replicas);
  text("faults", &cfg->faults);
  text("overload", &cfg->overload);
  if (const json::Value* v = json::find(*rc, "tenant_weights");
      v != nullptr && v->is_array()) {
    for (const json::Value& w : v->array) {
      if (w.is_number()) cfg->tenant_weights.push_back(w.number);
    }
  }
  return true;
}

EventsValidation validate_events_file(const std::string& path) {
  std::vector<EventRecord> records;
  uint64_t dropped = 0;
  std::map<int32_t, uint64_t> dropped_by_kind;
  std::string error;
  if (!read_events_file(path, &records, &dropped, &dropped_by_kind, &error)) {
    EventsValidation v;
    v.error = error;
    return v;
  }
  EventsValidation out = validate_events(records, dropped);
  out.dropped_by_kind = std::move(dropped_by_kind);
  return out;
}

}  // namespace hia::obs
