#include "obs/events.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>

#include "obs/json.hpp"
#include "obs/rings.hpp"
#include "obs/trace.hpp"

namespace hia::obs {

namespace {

constexpr char kMagic[8] = {'h', 'i', 'a', 'e', 'v', 't', 's', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kDefaultRingCapacity = 16384;
constexpr int32_t kMaxKind = 23;  // highest on-disk EventKind value

struct EventsRegistry {
  std::atomic<bool> enabled{true};
  std::atomic<size_t> capacity{kDefaultRingCapacity};
  std::atomic<uint64_t> dropped_by_kind[kMaxKind + 1] = {};
  detail::RingSet<EventRecord> rings;
};

EventsRegistry& registry() {
  static EventsRegistry* r = new EventsRegistry();  // leaked, see trace.cpp
  return *r;
}

thread_local detail::RingSet<EventRecord>::RingPtr t_event_ring;

detail::Ring<EventRecord>& local_ring() {
  if (t_event_ring == nullptr) {
    EventsRegistry& reg = registry();
    const size_t capacity = reg.capacity.load(std::memory_order_relaxed);
    reg.rings.take(t_event_ring, std::max<size_t>(capacity, 1));
  }
  return *t_event_ring;
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

const char* kind_name(int32_t kind) {
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
  }
  return nullptr;
}

std::mutex g_run_config_mutex;
EventsRunConfig g_run_config;  // guarded by g_run_config_mutex

}  // namespace

const char* event_kind_name(int32_t kind) { return kind_name(kind); }

void record_event(EventKind kind, int tenant, int bucket, int64_t a,
                  int64_t b, double vt_s) {
  EventsRegistry& reg = registry();
  if (!reg.enabled.load(std::memory_order_relaxed)) return;
  EventRecord r;
  r.t_us = now_us();
  r.vt_s = vt_s;
  r.a = a;
  r.b = b;
  r.kind = static_cast<int32_t>(kind);
  r.tenant = tenant;
  r.bucket = bucket;
  EventRecord overwritten;
  if (local_ring().push(r, &overwritten) && overwritten.kind >= 0 &&
      overwritten.kind <= kMaxKind) {
    reg.dropped_by_kind[overwritten.kind].fetch_add(1,
                                                    std::memory_order_relaxed);
  }
}

void enable_events() {
  registry().enabled.store(true, std::memory_order_relaxed);
}

void disable_events() {
  registry().enabled.store(false, std::memory_order_relaxed);
}

bool events_enabled() {
  return registry().enabled.load(std::memory_order_relaxed);
}

void set_events_capacity(size_t records) {
  registry().capacity.store(std::max<size_t>(records, 1),
                            std::memory_order_relaxed);
}

std::vector<EventRecord> events_snapshot() {
  std::vector<EventRecord> out = registry().rings.collect();
  std::stable_sort(out.begin(), out.end(),
                   [](const EventRecord& x, const EventRecord& y) {
                     return x.t_us < y.t_us;
                   });
  return out;
}

uint64_t dropped_event_records() { return registry().rings.dropped(); }

std::map<int32_t, uint64_t> dropped_event_records_by_kind() {
  EventsRegistry& reg = registry();
  std::map<int32_t, uint64_t> out;
  for (int32_t k = 0; k <= kMaxKind; ++k) {
    const uint64_t n = reg.dropped_by_kind[k].load(std::memory_order_relaxed);
    if (n > 0) out[k] = n;
  }
  return out;
}

size_t event_ring_count() { return registry().rings.count(); }

void reset_events() {
  EventsRegistry& reg = registry();
  reg.rings.reset();
  for (int32_t k = 0; k <= kMaxKind; ++k) {
    reg.dropped_by_kind[k].store(0, std::memory_order_relaxed);
  }
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
  {
    bool first = true;
    for (const auto& [kind, n] : dropped_by_kind) {
      if (!first) header << ',';
      first = false;
      header << '"' << kind << "\":" << n;
    }
  }
  header << "},\"fields\":[\"t_us:f64\",\"vt_s:f64\",\"a:i64\",\"b:i64\","
            "\"kind:i32\",\"tenant:i32\",\"bucket:i32\",\"pad:i32\"],"
            "\"kinds\":{";
  bool first = true;
  for (int32_t k = 1; kind_name(k) != nullptr; ++k) {
    if (!first) header << ',';
    first = false;
    header << '"' << k << "\":\"" << kind_name(k) << '"';
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
      for (size_t i = 0; i < g_run_config.tenant_weights.size(); ++i) {
        if (i > 0) header << ',';
        header << g_run_config.tenant_weights[i];
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
  for (const EventRecord& r : records) {
    out.write(reinterpret_cast<const char*>(&r), sizeof(r));
  }
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
    if (kind_name(r.kind) == nullptr) {
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
    const bool task_event = kind == EventKind::kTaskSubmit ||
                            kind == EventKind::kTaskAssign ||
                            kind == EventKind::kTaskComplete ||
                            kind == EventKind::kTaskDegrade ||
                            kind == EventKind::kTaskShed ||
                            kind == EventKind::kTaskDefer;
    // Attribution kinds are task-keyed too, but only the six lifecycle
    // kinds above enter the conservation partition.
    const bool attrib_event = kind == EventKind::kCreditGrant ||
                              kind == EventKind::kTaskRetry ||
                              kind == EventKind::kBackoffRelease ||
                              kind == EventKind::kBucketOccupy ||
                              kind == EventKind::kBucketVacate ||
                              kind == EventKind::kTaskXfer ||
                              kind == EventKind::kTaskWork;
    // Crash-recovery markers are task-keyed and tenant-attributed too
    // (kReplicaRepair is handle-keyed, like kPut, and exempt).
    const bool recovery_event = kind == EventKind::kLeaseExpire ||
                                kind == EventKind::kTaskReexec ||
                                kind == EventKind::kZombieFence;
    if ((task_event || attrib_event || recovery_event) && r.tenant < 0) {
      v.error = "record " + std::to_string(i) + " (" +
                kind_name(r.kind) + "): task event without a tenant";
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

bool read_events_file(const std::string& path,
                      std::vector<EventRecord>* records_out,
                      uint64_t* dropped_out,
                      std::map<int32_t, uint64_t>* dropped_by_kind,
                      std::string* error) {
  EventsValidation v;  // reuses the framing-error strings below
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    v.error = "cannot open " + path;
    if (error != nullptr) *error = v.error;
    return false;
  }
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t header_bytes = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&header_bytes), sizeof(header_bytes));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    v.error = "bad magic: not an hia-events-v1 file";
    if (error != nullptr) *error = v.error;
    return false;
  }
  if (version != kVersion) {
    v.error = "unsupported version " + std::to_string(version);
    if (error != nullptr) *error = v.error;
    return false;
  }
  if (header_bytes == 0 || header_bytes > (1u << 20)) {
    v.error = "implausible header length " + std::to_string(header_bytes);
    if (error != nullptr) *error = v.error;
    return false;
  }
  std::string header_json(header_bytes, '\0');
  in.read(header_json.data(), header_bytes);
  if (!in) {
    v.error = "truncated header";
    if (error != nullptr) *error = v.error;
    return false;
  }
  json::Value header;
  std::string parse_error;
  if (!json::parse(header_json, header, parse_error)) {
    v.error = "header is not valid JSON: " + parse_error;
    if (error != nullptr) *error = v.error;
    return false;
  }
  const json::Value* schema = json::find(header, "schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->string != "hia-events-v1") {
    v.error = "header schema tag is not hia-events-v1";
    if (error != nullptr) *error = v.error;
    return false;
  }
  const json::Value* record_bytes = json::find(header, "record_bytes");
  if (record_bytes == nullptr || !record_bytes->is_number() ||
      record_bytes->number != static_cast<double>(sizeof(EventRecord))) {
    v.error = "header record_bytes does not match EventRecord";
    if (error != nullptr) *error = v.error;
    return false;
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
  uint64_t dropped = 0;
  if (!header_count(json::find(header, "count"), max_records, &n) ||
      !header_count(json::find(header, "dropped"), 0x1p63, &dropped)) {
    v.error = "header count/dropped missing, not a whole number, or more "
              "records than the file holds";
    if (error != nullptr) *error = v.error;
    return false;
  }
  std::vector<EventRecord> records(n);
  in.read(reinterpret_cast<char*>(records.data()),
          static_cast<std::streamsize>(n * sizeof(EventRecord)));
  if (!in) {
    v.error = "truncated in the " + std::to_string(n) + " records";
    if (error != nullptr) *error = v.error;
    return false;
  }
  in.peek();
  if (!in.eof()) {
    v.error = "trailing bytes after " + std::to_string(n) + " records";
    if (error != nullptr) *error = v.error;
    return false;
  }
  // Optional per-kind drop table (absent in spills written before it
  // existed): carried through so events_lint can say *what* was lost.
  std::map<int32_t, uint64_t> by_kind_counts;
  if (const json::Value* by_kind = json::find(header, "dropped_by_kind");
      by_kind != nullptr && by_kind->is_object()) {
    for (const auto& [key, val] : by_kind->object) {
      int32_t kind = 0;
      const auto [end, ec] =
          std::from_chars(key.data(), key.data() + key.size(), kind);
      uint64_t count = 0;
      if (ec != std::errc() || end != key.data() + key.size() ||
          !header_count(&val, 0x1p63, &count)) {
        v.error = "header dropped_by_kind entry \"" + key + "\" is malformed";
        if (error != nullptr) *error = v.error;
        return false;
      }
      by_kind_counts[kind] = count;
    }
  }
  if (records_out != nullptr) *records_out = std::move(records);
  if (dropped_out != nullptr) *dropped_out = dropped;
  if (dropped_by_kind != nullptr) *dropped_by_kind = std::move(by_kind_counts);
  return true;
}

bool read_events_run_config(const std::string& path, EventsRunConfig* cfg,
                            std::string* error) {
  if (cfg != nullptr) *cfg = EventsRunConfig{};
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  char magic[8] = {};
  uint32_t version = 0;
  uint32_t header_bytes = 0;
  in.read(magic, sizeof(magic));
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  in.read(reinterpret_cast<char*>(&header_bytes), sizeof(header_bytes));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0 ||
      version != kVersion || header_bytes == 0 || header_bytes > (1u << 20)) {
    if (error != nullptr) *error = "not a readable hia-events-v1 file";
    return false;
  }
  std::string header_json(header_bytes, '\0');
  in.read(header_json.data(), header_bytes);
  if (!in) {
    if (error != nullptr) *error = "truncated header";
    return false;
  }
  json::Value header;
  std::string parse_error;
  if (!json::parse(header_json, header, parse_error)) {
    if (error != nullptr) *error = "header is not valid JSON: " + parse_error;
    return false;
  }
  const json::Value* rc = json::find(header, "run_config");
  if (rc == nullptr || !rc->is_object()) return true;  // pre-PR10 spill
  if (cfg == nullptr) return true;
  cfg->present = true;
  if (const json::Value* v = json::find(*rc, "buckets");
      v != nullptr && v->is_number()) {
    cfg->buckets = static_cast<int>(v->number);
  }
  if (const json::Value* v = json::find(*rc, "servers");
      v != nullptr && v->is_number()) {
    cfg->servers = static_cast<int>(v->number);
  }
  if (const json::Value* v = json::find(*rc, "replicas");
      v != nullptr && v->is_number()) {
    cfg->replicas = static_cast<int>(v->number);
  }
  if (const json::Value* v = json::find(*rc, "faults");
      v != nullptr && v->is_string()) {
    cfg->faults = v->string;
  }
  if (const json::Value* v = json::find(*rc, "overload");
      v != nullptr && v->is_string()) {
    cfg->overload = v->string;
  }
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
