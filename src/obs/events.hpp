// Flight recorder: an always-on, bounded, thread-sharded binary ring of
// structured lifecycle events — the "what happened" companion to the span
// tracer's "when" and the registries' "how much". Where Chrome spans are a
// rendering format, these records are a *replayable* trace: every task
// submit/assign/terminal transition, put/get with byte counts, pressure
// transition, pool resize, and fault verdict, each stamped with the tenant
// that owns it and a dual wall/virtual timestamp. The spill format
// (`hia-events-v1`, see write_events_file) is the recorded-trace input for
// the ROADMAP's what-if replay planner.
//
// Storage is the span tracer's (obs/rings.hpp): each thread owns a bounded
// ring of POD records guarded by a mutex its owner holds uncontended; the
// ring's memory is committed as records land, and overflow drops the
// oldest record and counts the drop. Recording is on by default
// (one relaxed atomic load plus an uncontended ring write per event —
// cheap enough for every hot path; the overload bench gates the overhead)
// and can be disabled for A/B measurement.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hia::obs {

/// What happened. Values are stable on-disk identifiers: append only.
enum class EventKind : int32_t {
  kTaskSubmit = 1,    // a=task_id, b=input bytes; bucket field carries the
                      //   simulation step (submits never own a bucket)
  kTaskAssign = 2,    // a=task_id, b=attempt
  kTaskComplete = 3,  // a=task_id, b=attempt
  kTaskDegrade = 4,   // a=task_id, b=attempt (in-situ fallback ran it)
  kTaskShed = 5,      // a=task_id, b=attempt (dropped loudly)
  kTaskDefer = 6,     // a=task_id, b=0 (returned to the runner for resubmit)
  kPut = 7,           // a=handle id, b=wire bytes
  kGet = 8,           // a=handle id, b=wire bytes
  kPressure = 9,      // a=new PressureState, b=old PressureState
  kPoolGrow = 10,     // a=new bucket id, b=live buckets after
  kPoolShrink = 11,   // a=retired bucket id, b=live buckets after
  kFaultVerdict = 12, // a=site code (EventFaultSite), b=bytes or bucket
  // Causal edges for per-task timeline attribution (obs/attrib.hpp). The
  // virtual timestamps below are all on the emitting service's task clock,
  // so per-task phase windows telescope exactly.
  kCreditGrant = 13,    // a=task_id, b=admission-wait µs charged to the task
  kTaskRetry = 14,      // a=task_id, b=failed attempt; bucket=failed bucket;
                        //   vt = end of the failed attempt's occupancy
  kBackoffRelease = 15, // a=task_id, b=next attempt; vt = when the backoff
                        //   expires and the task re-enters the queue race
  kBucketOccupy = 16,   // a=task_id, b=attempt; vt = occupancy start, for
                        //   fault-stuck attempts that never reach run_task
  kBucketVacate = 17,   // a=task_id, b=attempt; vt = occupancy end when no
                        //   retry/terminal event marks it
  kTaskXfer = 18,       // a=task_id, b=wall µs the attempt spent in pulls
  kTaskWork = 19,       // a=task_id, b=wall µs of handler/stuck time
  // Crash-recovery markers (ungraceful server loss). The scheduler emits
  // the usual kTaskRetry/kBackoffRelease pair for the requeue itself so
  // the attribution partition stays exact; these kinds are *additional*
  // evidence of what recovery did and are not task-timeline-keyed.
  kLeaseExpire = 20,    // a=task_id, b=lost attempt; bucket=crashed owner;
                        //   vt = lease expiry on the task clock
  kTaskReexec = 21,     // a=task_id, b=re-execution attempt; vt = requeue
  kReplicaRepair = 22,  // a=handle id, b=object bytes re-replicated;
                        //   bucket = server that received the repaired copy
  kZombieFence = 23,    // a=task_id, b=fenced stale attempt; bucket = the
                        //   presumed-dead bucket whose completion was dropped
};

/// Fault-verdict site codes carried in EventRecord::a for kFaultVerdict.
enum class EventFaultSite : int64_t {
  kFrameDrop = 1,
  kFrameCrc = 2,
  kBucketKill = 3,
  kPhantomBytes = 4,
  kCreditStarve = 5,
  kBucketCrash = 6,  // ungraceful bucket death (no drain)
  kServerCrash = 7,  // ungraceful object-store server death
};

/// One recorded event. POD: memcpy'd verbatim into the spill file.
struct EventRecord {
  double t_us = 0.0;   // wall microseconds since the obs trace epoch
  double vt_s = -1.0;  // virtual/model seconds; -1 = no virtual clock
  int64_t a = 0;       // kind-specific (see EventKind)
  int64_t b = 0;       // kind-specific
  int32_t kind = 0;    // EventKind
  int32_t tenant = -1; // owning tenant; -1 = not tenant-attributed
  int32_t bucket = -1; // bucket/node; -1 = not bucket-attributed
  int32_t pad = 0;     // keeps the record at 48 bytes, zero on disk
};
static_assert(sizeof(EventRecord) == 48, "hia-events-v1 record size");

/// Records one event. ~one relaxed load + an uncontended ring write; safe
/// from any thread, any time (drops silently before static init only).
void record_event(EventKind kind, int tenant, int bucket, int64_t a,
                  int64_t b, double vt_s = -1.0);

/// Recorder on/off (default on). Off = one relaxed load per call site.
void enable_events();
void disable_events();
[[nodiscard]] bool events_enabled();

/// Ring capacity, in records per thread, for rings threads take after the
/// call (default 16384); spare rings of another size are then freed. Raise
/// before a long recorded campaign so conservation survives (a dropped
/// submit breaks the per-tenant partition).
void set_events_capacity(size_t records);

/// Merged snapshot across every thread's ring, sorted by wall time.
std::vector<EventRecord> events_snapshot();

/// Total records dropped to ring overflow since the last reset.
uint64_t dropped_event_records();

/// Drop counts keyed by the *overwritten* record's kind — tells you which
/// part of the stream is unverifiable, not just that some of it is.
std::map<int32_t, uint64_t> dropped_event_records_by_kind();

/// Stable snake_case name for an on-disk kind value; nullptr when unknown.
const char* event_kind_name(int32_t kind);

/// Drops all recorded events and zeroes the drop counter. Rings of live
/// threads stay registered (capacity unchanged); rings of threads that have
/// exited leave the registry and are reused by the next threads that
/// record, so a process that runs campaign after campaign holds no more
/// rings than it ever had threads at once. The enabled flag persists. Also
/// clears the registered run config.
void reset_events();

/// Per-thread rings currently registered: one for each live thread that
/// has recorded, plus exited threads' rings until the next reset_events().
[[nodiscard]] size_t event_ring_count();

// ---- Recorded run configuration ----
//
// The knobs a replay needs to re-simulate the run faithfully: what the
// campaign was *configured* to do, as opposed to what the records say
// happened. Registered by the driver before the run and embedded in the
// spill header as `"run_config":{...}`, so `hia_plan --calibrate` replays
// the real config instead of trusting hand-supplied flags (the first
// documented "when replay lies" gap in docs/PLANNER.md).

struct EventsRunConfig {
  bool present = false;  // read side: was a run_config block in the header?
  int buckets = 0;       // staging buckets at campaign start
  int servers = 0;       // object-store servers
  int replicas = 1;      // object-store replication factor
  std::string faults;    // --faults spec verbatim ("" = fault-free)
  std::string overload;  // --overload spec verbatim ("" = no admission)
  std::vector<double> tenant_weights;  // index = tenant id - 1 (service
                                       //   tenants are 1-based); empty = solo
};

/// Registers the run config embedded by the next write_events_file call
/// (process-wide; cleared by reset_events).
void set_events_run_config(const EventsRunConfig& cfg);

/// Reads only the header of an hia-events-v1 file and extracts its
/// run_config block. Returns false on framing errors; a well-formed spill
/// without the block succeeds with cfg->present == false (pre-PR10 files).
bool read_events_run_config(const std::string& path, EventsRunConfig* cfg,
                            std::string* error);

// ---- Spill format: hia-events-v1 ----
//
// Self-describing layout, little-endian:
//   [0..8)    magic "hiaevts1"
//   [8..12)   uint32 version (1)
//   [12..16)  uint32 header_bytes = H (JSON text length)
//   [16..16+H) header JSON: {"schema":"hia-events-v1","record_bytes":48,
//              "count":N,"dropped":D,"fields":[...],"kinds":{...}}
//   then N EventRecord structs, sorted by t_us.

/// Writes the current snapshot as an hia-events-v1 file. Returns false on
/// I/O failure.
bool write_events_file(const std::string& path);

/// Validation result for an hia-events-v1 file (see validate_events_file).
struct EventsValidation {
  bool ok = false;
  std::string error;    // first failure; empty when ok
  uint64_t records = 0;
  uint64_t dropped = 0;  // from the header: ring overflow at record time
  std::map<int32_t, uint64_t> dropped_by_kind;  // header, absent pre-PR8
  struct TenantCounts {
    int tenant = -1;
    uint64_t submitted = 0;
    uint64_t assigned = 0;
    uint64_t completed = 0;
    uint64_t degraded = 0;
    uint64_t shed = 0;
    uint64_t deferred = 0;
  };
  std::vector<TenantCounts> tenants;  // sorted by tenant id
};

/// Reads an hia-events-v1 file's records and header drop counts without
/// semantic validation (framing errors still fail). Used by the
/// attribution layer and tools that re-analyze a spill.
bool read_events_file(const std::string& path,
                      std::vector<EventRecord>* records, uint64_t* dropped,
                      std::map<int32_t, uint64_t>* dropped_by_kind,
                      std::string* error);

/// Reads and validates an hia-events-v1 file: magic/version/size framing,
/// known kinds, wall-timestamp monotonicity, and — when the recorder
/// dropped nothing — the per-tenant conservation partition
/// (submitted == completed + degraded + shed + deferred for every tenant).
/// With drops the partition is reported but not enforced (the ring lost
/// records, so exact conservation is unknowable).
EventsValidation validate_events_file(const std::string& path);

/// Same checks over an in-memory record stream (used by tests and by
/// validate_events_file after deserializing).
EventsValidation validate_events(const std::vector<EventRecord>& records,
                                 uint64_t dropped);

}  // namespace hia::obs
