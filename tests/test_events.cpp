// Tests for the flight recorder (obs/events.hpp): ring capacity and drop
// accounting, enable/disable, the hia-events-v1 spill round trip,
// corrupted-file rejection, the in-memory validator's conservation and
// monotonicity checks, and the end-to-end invariant the events gate in CI
// enforces: a concurrent multi-tenant campaign's recorded per-tenant
// partition exactly matches the ServiceReport, and the span tracer's B/E
// pairs stay well-nested under tenant-thread interleaving.
#include <gtest/gtest.h>

#include <array>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "core/stats_pipeline.hpp"
#include "obs/attrib.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "runtime/fault.hpp"
#include "service/campaign_service.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

class EventsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_events();
    obs::enable_events();
    obs::set_events_capacity(obs::kDefaultEventsCapacity);
  }
  void TearDown() override {
    obs::reset_events();
    obs::enable_events();
    obs::set_events_capacity(obs::kDefaultEventsCapacity);
  }

  static std::string temp_path(const char* name) {
    return ::testing::TempDir() + name;
  }
};

/// A minimal conserved lifecycle: submit then one terminal transition.
void record_task(int tenant, int64_t id, obs::EventKind terminal) {
  obs::record_event(obs::EventKind::kTaskSubmit, tenant, -1, id, 100);
  obs::record_event(obs::EventKind::kTaskAssign, tenant, 0, id, 1);
  obs::record_event(terminal, tenant, 0, id, 1);
}

// ------------------------------------------------------------- recording

TEST_F(EventsTest, RecordsAreSnapshotSortedByWallTime) {
  record_task(1, 10, obs::EventKind::kTaskComplete);
  record_task(2, 11, obs::EventKind::kTaskDegrade);
  const std::vector<obs::EventRecord> events = obs::events_snapshot();
  ASSERT_EQ(events.size(), 6u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_us, events[i - 1].t_us);
  }
  EXPECT_EQ(obs::dropped_event_records(), 0u);
}

TEST_F(EventsTest, DisabledRecordsNothing) {
  obs::disable_events();
  EXPECT_FALSE(obs::events_enabled());
  record_task(1, 1, obs::EventKind::kTaskComplete);
  EXPECT_TRUE(obs::events_snapshot().empty());
  obs::enable_events();
  EXPECT_TRUE(obs::events_enabled());
  record_task(1, 2, obs::EventKind::kTaskComplete);
  EXPECT_EQ(obs::events_snapshot().size(), 3u);
}

TEST_F(EventsTest, RingOverflowDropsOldestAndCounts) {
  obs::reset_events();
  obs::set_events_capacity(8);
  // A fresh thread gets a fresh (capacity-8) ring; the main thread's ring
  // was sized at first touch and may be larger.
  std::thread recorder([] {
    for (int i = 0; i < 20; ++i) {
      obs::record_event(obs::EventKind::kPut, 1, -1, i, 64);
    }
  });
  recorder.join();
  const std::vector<obs::EventRecord> events = obs::events_snapshot();
  EXPECT_EQ(events.size(), 8u);
  EXPECT_EQ(obs::dropped_event_records(), 12u);
  // Drop-oldest: the survivors are the 8 most recent records.
  EXPECT_EQ(events.front().a, 12);
  EXPECT_EQ(events.back().a, 19);
}

TEST_F(EventsTest, RingOrderHoldsBeforeAndAfterWrapping) {
  // A ring appends until it is full, then overwrites the oldest: the
  // snapshot is oldest-first either way, and a reset starts it over.
  obs::set_events_capacity(5);
  std::thread recorder([] {
    for (int i = 0; i < 3; ++i) {
      obs::record_event(obs::EventKind::kPut, 1, -1, i, 64);
    }
    std::vector<obs::EventRecord> events = obs::events_snapshot();
    ASSERT_EQ(events.size(), 3u);
    for (int i = 0; i < 3; ++i) EXPECT_EQ(events[i].a, i);
    for (int i = 3; i < 12; ++i) {
      obs::record_event(obs::EventKind::kPut, 1, -1, i, 64);
    }
    events = obs::events_snapshot();
    ASSERT_EQ(events.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(events[i].a, 7 + i);
    EXPECT_EQ(obs::dropped_event_records(), 7u);
    obs::reset_events();
    EXPECT_TRUE(obs::events_snapshot().empty());
    for (int i = 0; i < 6; ++i) {
      obs::record_event(obs::EventKind::kGet, 1, -1, 100 + i, 64);
    }
    events = obs::events_snapshot();
    ASSERT_EQ(events.size(), 5u);  // the ring kept its capacity
    EXPECT_EQ(events.front().a, 101);
    EXPECT_EQ(obs::dropped_event_records(), 1u);
  });
  recorder.join();
}

TEST_F(EventsTest, ResetDropsRingsOfExitedThreads) {
  // Threads that recorded and exited keep their records until the next
  // reset (a spill written after the run still sees them); the reset then
  // takes their rings back for the next threads. A live thread's ring
  // stays registered.
  const size_t base = obs::event_ring_count();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([t] {
      obs::record_event(obs::EventKind::kPut, 1, -1, t, 64);
    });
  }
  for (std::thread& w : workers) w.join();
  std::mutex m;
  std::condition_variable cv;
  int phase = 0;
  std::thread live([&] {
    obs::record_event(obs::EventKind::kGet, 1, -1, 40, 64);
    std::unique_lock lock(m);
    phase = 1;
    cv.notify_all();
    cv.wait(lock, [&] { return phase == 2; });
    obs::record_event(obs::EventKind::kGet, 1, -1, 41, 64);
  });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return phase == 1; });
  }
  EXPECT_EQ(obs::event_ring_count(), base + 5);
  EXPECT_EQ(obs::events_snapshot().size(), 5u);

  obs::reset_events();
  EXPECT_EQ(obs::event_ring_count(), base + 1);
  {
    std::lock_guard lock(m);
    phase = 2;
  }
  cv.notify_all();
  live.join();
  const std::vector<obs::EventRecord> events = obs::events_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].a, 41);
  obs::reset_events();
  EXPECT_EQ(obs::event_ring_count(), base);
}

TEST_F(EventsTest, VirtualTimestampPassesThrough) {
  obs::record_event(obs::EventKind::kTaskSubmit, 1, -1, 1, 10, 2.5);
  obs::record_event(obs::EventKind::kTaskComplete, 1, 0, 1, 1);
  const std::vector<obs::EventRecord> events = obs::events_snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].vt_s, 2.5);
  EXPECT_DOUBLE_EQ(events[1].vt_s, -1.0);
}

// ------------------------------------------------------------ validation

TEST_F(EventsTest, ValidatorEnforcesPerTenantConservation) {
  record_task(1, 1, obs::EventKind::kTaskComplete);
  record_task(1, 2, obs::EventKind::kTaskShed);
  record_task(2, 3, obs::EventKind::kTaskDegrade);
  obs::record_event(obs::EventKind::kTaskSubmit, 2, -1, 4, 50);
  obs::record_event(obs::EventKind::kTaskDefer, 2, -1, 4, 0);
  const obs::EventsValidation v =
      obs::validate_events(obs::events_snapshot(), 0);
  ASSERT_TRUE(v.ok) << v.error;
  ASSERT_EQ(v.tenants.size(), 2u);
  EXPECT_EQ(v.tenants[0].tenant, 1);
  EXPECT_EQ(v.tenants[0].submitted, 2u);
  EXPECT_EQ(v.tenants[0].completed, 1u);
  EXPECT_EQ(v.tenants[0].shed, 1u);
  EXPECT_EQ(v.tenants[1].submitted, 2u);
  EXPECT_EQ(v.tenants[1].degraded, 1u);
  EXPECT_EQ(v.tenants[1].deferred, 1u);

  // One more submit without a terminal transition breaks the partition.
  obs::record_event(obs::EventKind::kTaskSubmit, 1, -1, 9, 10);
  const obs::EventsValidation broken =
      obs::validate_events(obs::events_snapshot(), 0);
  EXPECT_FALSE(broken.ok);
  EXPECT_NE(broken.error.find("conservation"), std::string::npos);

  // ...unless the ring dropped records, when exact conservation is
  // unknowable and only reported.
  const obs::EventsValidation dropped =
      obs::validate_events(obs::events_snapshot(), 1);
  EXPECT_TRUE(dropped.ok) << dropped.error;
}

TEST_F(EventsTest, ValidatorRejectsMalformedStreams) {
  std::vector<obs::EventRecord> bad(1);
  bad[0].kind = 99;
  EXPECT_FALSE(obs::validate_events(bad, 0).ok);

  std::vector<obs::EventRecord> unordered(2);
  unordered[0].kind = static_cast<int32_t>(obs::EventKind::kPressure);
  unordered[0].t_us = 10.0;
  unordered[1].kind = static_cast<int32_t>(obs::EventKind::kPressure);
  unordered[1].t_us = 5.0;
  EXPECT_FALSE(obs::validate_events(unordered, 0).ok);

  std::vector<obs::EventRecord> orphan(1);
  orphan[0].kind = static_cast<int32_t>(obs::EventKind::kTaskSubmit);
  orphan[0].tenant = -1;  // task events must be tenant-attributed
  EXPECT_FALSE(obs::validate_events(orphan, 0).ok);
}

// ------------------------------------------------------------ spill file

TEST_F(EventsTest, SpillRoundTripValidates) {
  record_task(1, 1, obs::EventKind::kTaskComplete);
  record_task(3, 2, obs::EventKind::kTaskComplete);
  const std::string path = temp_path("events_roundtrip.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const obs::EventsValidation v = obs::validate_events_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.records, 6u);
  EXPECT_EQ(v.dropped, 0u);
  ASSERT_EQ(v.tenants.size(), 2u);
  EXPECT_EQ(v.tenants[0].tenant, 1);
  EXPECT_EQ(v.tenants[1].tenant, 3);
  std::remove(path.c_str());
}

TEST_F(EventsTest, RunConfigRoundTripsThroughSpillHeader) {
  record_task(1, 1, obs::EventKind::kTaskComplete);

  obs::EventsRunConfig cfg;
  cfg.buckets = 3;
  cfg.servers = 4;
  cfg.replicas = 2;
  cfg.faults = "crash-server=1@5,attempts=3";
  cfg.overload = "credits=8,queue=16,divert=degrade";
  cfg.tenant_weights = {1.0, 2.0, 4.0};
  obs::set_events_run_config(cfg);

  const std::string path = temp_path("events_run_config.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  EXPECT_TRUE(obs::validate_events_file(path).ok);

  obs::EventsRunConfig got;
  std::string error;
  ASSERT_TRUE(obs::read_events_run_config(path, &got, &error)) << error;
  ASSERT_TRUE(got.present);
  EXPECT_EQ(got.buckets, 3);
  EXPECT_EQ(got.servers, 4);
  EXPECT_EQ(got.replicas, 2);
  EXPECT_EQ(got.faults, cfg.faults);
  EXPECT_EQ(got.overload, cfg.overload);
  ASSERT_EQ(got.tenant_weights.size(), 3u);
  EXPECT_DOUBLE_EQ(got.tenant_weights[0], 1.0);
  EXPECT_DOUBLE_EQ(got.tenant_weights[1], 2.0);
  EXPECT_DOUBLE_EQ(got.tenant_weights[2], 4.0);

  // reset_events clears the registration: the next spill has no block, and
  // reading it succeeds with present == false (the pre-PR10 spill shape).
  obs::reset_events();
  record_task(1, 1, obs::EventKind::kTaskComplete);
  ASSERT_TRUE(obs::write_events_file(path));
  got = obs::EventsRunConfig{};
  ASSERT_TRUE(obs::read_events_run_config(path, &got, &error)) << error;
  EXPECT_FALSE(got.present);
  std::remove(path.c_str());
}

TEST_F(EventsTest, CorruptedFilesAreRejected) {
  record_task(1, 1, obs::EventKind::kTaskComplete);
  const std::string path = temp_path("events_corrupt.bin");
  ASSERT_TRUE(obs::write_events_file(path));

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }

  auto write_variant = [&](const std::string& data) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
  };

  // Truncated mid-record.
  write_variant(bytes.substr(0, bytes.size() - 17));
  EXPECT_FALSE(obs::validate_events_file(path).ok);
  // Trailing garbage.
  write_variant(bytes + "xx");
  EXPECT_FALSE(obs::validate_events_file(path).ok);
  // Wrong magic.
  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  write_variant(wrong_magic);
  EXPECT_FALSE(obs::validate_events_file(path).ok);
  // Intact bytes still validate (the harness itself is not the problem).
  write_variant(bytes);
  EXPECT_TRUE(obs::validate_events_file(path).ok);
  std::remove(path.c_str());
  EXPECT_FALSE(obs::validate_events_file(path).ok);
}

/// An hia-events-v1 file assembled from a header text and record bytes.
std::string spill_bytes(const std::string& header, const std::string& body) {
  std::string out("hiaevts1", 8);
  const uint32_t version = 1;
  const auto header_bytes = static_cast<uint32_t>(header.size());
  out.append(reinterpret_cast<const char*>(&version), sizeof(version));
  out.append(reinterpret_cast<const char*>(&header_bytes),
             sizeof(header_bytes));
  return out + header + body;
}

/// Reads `bytes` as a spill; a rejection must carry an error string, an
/// acceptance at most the records the bytes hold. Nothing may throw.
bool read_spill(const std::string& path, const std::string& bytes) {
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  std::vector<obs::EventRecord> records;
  uint64_t dropped = 0;
  std::map<int32_t, uint64_t> by_kind;
  std::string error;
  bool ok = false;
  EXPECT_NO_THROW(
      ok = obs::read_events_file(path, &records, &dropped, &by_kind, &error));
  if (ok) {
    EXPECT_LE(records.size() * sizeof(obs::EventRecord), bytes.size());
    EXPECT_NO_THROW(obs::validate_events(records, dropped));
  } else {
    EXPECT_FALSE(error.empty());
  }
  EXPECT_NO_THROW(obs::validate_events_file(path));
  return ok;
}

/// Replaces the JSON value that follows `"key":` in `header`.
std::string with_value(const std::string& header, const std::string& key,
                       const std::string& value) {
  const std::string tag = "\"" + key + "\":";
  const size_t at = header.find(tag);
  if (at == std::string::npos) return header;
  const size_t from = at + tag.size();
  const size_t to = header.find_first_of(",}", from);
  return header.substr(0, from) + value + header.substr(to);
}

TEST_F(EventsTest, HeaderCountsAreCheckedBeforeAllocating) {
  // The record count sizes the read: it must be a whole number no larger
  // than the bytes after the header hold. A header-only file claiming
  // 3e8 records, or -5, is refused with an error, not an exception.
  record_task(1, 1, obs::EventKind::kTaskComplete);
  const std::string path = temp_path("events_counts.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  uint32_t header_len = 0;
  std::memcpy(&header_len, bytes.data() + 12, sizeof(header_len));
  const std::string header = bytes.substr(16, header_len);
  const std::string body = bytes.substr(16 + header_len);
  ASSERT_EQ(body.size(), 3 * sizeof(obs::EventRecord));
  ASSERT_TRUE(read_spill(path, spill_bytes(header, body)));

  for (const char* count : {"3e8", "-5", "4", "2.5", "1e999", "-1e999",
                            "18446744073709551616", "-0.5"}) {
    SCOPED_TRACE(count);
    EXPECT_FALSE(read_spill(path, spill_bytes(with_value(header, "count",
                                                         count), "")));
    EXPECT_FALSE(read_spill(path, spill_bytes(with_value(header, "count",
                                                         count), body)));
  }
  // 2 of 3 records leaves one record of trailing bytes; 3.0 is whole.
  EXPECT_FALSE(read_spill(path, spill_bytes(with_value(header, "count", "2"),
                                            body)));
  EXPECT_TRUE(read_spill(path, spill_bytes(with_value(header, "count", "3.0"),
                                           body)));
  for (const char* dropped : {"-1", "0.5", "1e999", "1e30"}) {
    SCOPED_TRACE(dropped);
    EXPECT_FALSE(read_spill(path, spill_bytes(with_value(header, "dropped",
                                                         dropped), body)));
  }
  // A drop table keyed by something other than a kind number, and JSON
  // nested deeper than any header needs.
  EXPECT_FALSE(read_spill(
      path, spill_bytes(with_value(header, "dropped_by_kind",
                                   "{\"x7\":1}"), body)));
  EXPECT_FALSE(read_spill(
      path, spill_bytes(with_value(header, "dropped_by_kind",
                                   "{\"7\":-2}"), body)));
  EXPECT_FALSE(read_spill(
      path, spill_bytes(std::string(100000, '[') + std::string(100000, ']'),
                        "")));
  std::remove(path.c_str());
}

TEST_F(EventsTest, MutatedSpillsFailOnlyWithAnError) {
  // The reader decodes bytes a file controls: whatever the header or the
  // records hold, it returns false with an error string or accepts at most
  // the records present, and never throws.
  obs::set_events_capacity(4);
  std::thread overflow([] {  // a drop table in the header
    for (int i = 0; i < 6; ++i) {
      obs::record_event(obs::EventKind::kPut, 1, -1, i, 64);
    }
  });
  overflow.join();
  record_task(1, 1, obs::EventKind::kTaskComplete);
  record_task(2, 2, obs::EventKind::kTaskShed);
  const std::string path = temp_path("events_mutated.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  std::string valid;
  {
    std::ifstream in(path, std::ios::binary);
    valid.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  uint32_t header_len = 0;
  std::memcpy(&header_len, valid.data() + 12, sizeof(header_len));
  const std::string header = valid.substr(16, header_len);
  const std::string body = valid.substr(16 + header_len);
  ASSERT_NE(header.find("\"dropped_by_kind\":{\"7\":2}"), std::string::npos)
      << header;

  const std::array<const char*, 16> specials{
      "3e8", "-5", "0", "1", "2.5", "1e999", "-1e999", "1e-320", "-0",
      "18446744073709551616", "9007199254740993", "\"7\"", "null", "[]",
      "{}", "4294967296"};
  const std::array<const char*, 4> keys{"count", "dropped", "record_bytes",
                                        "7"};
  SplitMix64 rng(0xe7e175);
  size_t accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const uint64_t draw = rng.next();
    std::string bytes;
    switch (draw % 5) {
      case 0: {  // a header field takes a special value
        const std::string key = keys[(draw >> 8) % keys.size()];
        bytes = spill_bytes(
            with_value(header, key, specials[(draw >> 16) % specials.size()]),
            body);
        break;
      }
      case 1: {  // one header character changes; the length follows
        std::string h = header;
        h[(draw >> 8) % h.size()] = static_cast<char>(draw >> 32);
        bytes = spill_bytes(h, body);
        break;
      }
      case 2: {  // a bit flip anywhere, framing included
        bytes = valid;
        bytes[(draw >> 8) % bytes.size()] ^=
            static_cast<char>(1u << ((draw >> 40) % 8));
        break;
      }
      case 3:  // truncation
        bytes = valid.substr(0, (draw >> 8) % valid.size());
        break;
      default: {  // records added or removed behind an unchanged header
        const size_t records = (draw >> 8) % 12;
        bytes = spill_bytes(
            header, records * sizeof(obs::EventRecord) <= body.size()
                        ? body.substr(0, records * sizeof(obs::EventRecord))
                        : body + std::string((records * sizeof(
                                                  obs::EventRecord)) -
                                                 body.size(),
                                             '\x5a'));
        break;
      }
    }
    if (read_spill(path, bytes)) ++accepted;
    if (::testing::Test::HasFailure()) {
      FAIL() << "iteration " << iter << " (mutation " << draw % 5 << ")";
    }
  }
  // Harmless mutations (a flipped bit inside a record, a digit of the
  // dropped count) are accepted: the sweep is not all rejections.
  EXPECT_GT(accepted, 100u);
  std::remove(path.c_str());
}

// --------------------------------------- end-to-end: campaign partition

TEST_F(EventsTest, CampaignEventsMatchServiceReportPartition) {
  // Trace alongside the recorder so the same interleaving exercises span
  // pairing (the tsan leg runs this test for the data-race surface).
  obs::enable();

  CampaignService::Options sopts;
  sopts.staging_servers = 1;
  sopts.staging_buckets = 2;
  sopts.overload = "queue-depth=16,credits=8";
  CampaignService service(sopts);

  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{16, 12, 8}, {1.0, 1.0, 1.0}};
  cfg.sim.ranks_per_axis = {1, 1, 1};
  cfg.staging_servers = 1;
  cfg.staging_buckets = 2;
  cfg.steps = 3;
  for (int t = 0; t < 3; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(t + 1);
    spec.weight = t == 0 ? 2.0 : 1.0;
    spec.config = cfg;
    spec.setup = [](HybridRunner& runner) {
      runner.add_analysis(std::make_shared<HybridStatistics>());
    };
    service.add_tenant(std::move(spec));
  }
  const CampaignService::ServiceReport report = service.run();
  obs::disable();

  const std::string path = temp_path("events_campaign.bin");
  ASSERT_TRUE(obs::write_events_file(path));
  const obs::EventsValidation v = obs::validate_events_file(path);
  ASSERT_TRUE(v.ok) << v.error;
  ASSERT_EQ(v.dropped, 0u)
      << "ring overflowed; the partition check below would be vacuous";

  // The recorder counted every lifecycle transition the scheduler saw;
  // the service report re-derives the same partition from task records.
  // They must agree exactly, per tenant.
  ASSERT_EQ(report.rows.size(), 3u);
  for (const TenantRunRow& row : report.rows) {
    const obs::EventsValidation::TenantCounts* counts = nullptr;
    for (const obs::EventsValidation::TenantCounts& t : v.tenants) {
      if (t.tenant == row.tenant) counts = &t;
    }
    ASSERT_NE(counts, nullptr) << "tenant " << row.tenant << " unrecorded";
    EXPECT_EQ(counts->submitted, row.submitted) << "tenant " << row.tenant;
    EXPECT_EQ(counts->completed, row.completed) << "tenant " << row.tenant;
    EXPECT_EQ(counts->degraded, row.degraded) << "tenant " << row.tenant;
    EXPECT_EQ(counts->shed, row.shed) << "tenant " << row.tenant;
    EXPECT_EQ(counts->deferred, row.deferred) << "tenant " << row.tenant;
  }
  std::remove(path.c_str());

  // Span pairing under tenant-thread interleaving: every B has a
  // correctly nested E on its track.
  const std::string trace = obs::chrome_trace_json();
  const obs::TraceValidation tv = obs::validate_chrome_trace_json(trace);
  EXPECT_TRUE(tv.ok) << tv.error;
  EXPECT_GT(tv.spans, 0u);

  // poll_status() after the drain reflects the same terminal counts.
  CampaignService::Status status = service.poll_status();
  ASSERT_EQ(status.tenants.size(), 3u);
  for (const CampaignService::TenantStatus& ts : status.tenants) {
    const TenantRunRow& row = report.rows[static_cast<size_t>(ts.tenant - 1)];
    EXPECT_EQ(static_cast<uint64_t>(ts.completed), row.completed);
    EXPECT_EQ(ts.outstanding, 0u);
    EXPECT_EQ(ts.queue_depth, 0u);
  }
}

// ------------------------------------- one recorder: both views, one ring

/// Lifecycle records per (kind, tenant).
std::map<std::pair<int32_t, int32_t>, int> lifecycle_counts() {
  std::map<std::pair<int32_t, int32_t>, int> out;
  for (const obs::EventRecord& r : obs::events_snapshot()) {
    ++out[{r.kind, r.tenant}];
  }
  return out;
}

/// Records a two-tenant campaign on a 2x2x1-rank grid (no overload, no
/// faults: every lifecycle count is a function of the configuration).
void run_small_campaign() {
  CampaignService::Options sopts;
  sopts.staging_servers = 2;
  sopts.staging_buckets = 3;
  CampaignService service(sopts);
  RunConfig cfg;
  cfg.sim.grid = GlobalGrid{{24, 16, 16}, {1.0, 0.75, 0.75}};
  cfg.sim.ranks_per_axis = {2, 2, 1};
  cfg.staging_servers = 2;
  cfg.staging_buckets = 3;
  cfg.steps = 3;
  for (int t = 0; t < 2; ++t) {
    CampaignService::TenantSpec spec;
    spec.name = "tenant-" + std::to_string(t + 1);
    spec.config = cfg;
    spec.setup = [](HybridRunner& runner) {
      runner.add_analysis(std::make_shared<HybridStatistics>());
    };
    service.add_tenant(std::move(spec));
  }
  service.run();
}

TEST_F(EventsTest, TracingLeavesTheLifecycleViewAsItIs) {
  // The same campaign with spans off and on: span records share the ring
  // but not the lifecycle view, its drops, or its attribution.
  std::map<std::pair<int32_t, int32_t>, int> counts[2];
  for (const bool traced : {false, true}) {
    obs::reset_events();
    if (traced) obs::enable();
    run_small_campaign();
    obs::disable();
    ASSERT_EQ(obs::dropped_event_records(), 0u);
    const obs::Attribution a =
        obs::attribute_events(obs::events_snapshot(), 0);
    EXPECT_TRUE(a.conserved) << (traced ? "traced: " : "") << a.error;
    EXPECT_FALSE(a.tasks.empty());
    counts[traced] = lifecycle_counts();
    size_t begins = 0;
    for (const obs::Event& e : obs::snapshot()) {
      begins += e.phase == obs::Phase::kBegin ? 1 : 0;
    }
    EXPECT_EQ(begins > 0, traced);
  }
  EXPECT_EQ(counts[0], counts[1]);
}

/// A conserved one-task timeline the attribution can rebuild.
void record_timeline(int64_t id) {
  using K = obs::EventKind;
  obs::record_event(K::kTaskSubmit, 1, 0, id, 64, 0.0);
  obs::record_event(K::kTaskAssign, 1, 0, id, 1, 0.25);
  obs::record_event(K::kTaskWork, 1, 0, id, 500000, 1.0);
  obs::record_event(K::kTaskComplete, 1, 0, id, 1, 1.0);
}

TEST_F(EventsTest, OverwrittenSpansAreNotLifecycleDrops) {
  obs::set_events_capacity(64);
  obs::enable();
  std::thread recorder([] {
    for (int i = 0; i < 200; ++i) HIA_TRACE_SPAN("test", "filler");
    record_timeline(1);
  });
  recorder.join();
  // 400 span records and 4 lifecycle records through a 64-record ring:
  // only span records were overwritten.
  EXPECT_EQ(obs::dropped_trace_records(), 400u + 4u - 64u);
  EXPECT_EQ(obs::dropped_event_records(), 0u);
  EXPECT_TRUE(obs::dropped_event_records_by_kind().empty());
  const obs::Attribution exact =
      obs::attribute_events(obs::events_snapshot(), 0);
  EXPECT_TRUE(exact.conserved) << exact.error;
  ASSERT_EQ(exact.tasks.size(), 1u);

  // Spans that push the lifecycle records out count as lifecycle drops,
  // by kind, and attribution fails closed.
  std::thread late([] {
    record_timeline(2);
    for (int i = 0; i < 40; ++i) HIA_TRACE_SPAN("test", "filler");
  });
  late.join();
  obs::disable();
  obs::set_events_capacity(obs::kDefaultEventsCapacity);
  EXPECT_EQ(obs::dropped_event_records(), 4u);
  EXPECT_EQ(obs::dropped_event_records_by_kind().at(
                static_cast<int32_t>(obs::EventKind::kTaskSubmit)),
            1u);
  const obs::Attribution closed = obs::attribute_events(
      obs::events_snapshot(), obs::dropped_event_records());
  EXPECT_FALSE(closed.ok);
  EXPECT_NE(closed.error.find("dropped"), std::string::npos) << closed.error;
}

TEST_F(EventsTest, FaultedTraceShowsEachLifecycleInstantOnce) {
  // Timeouts, retries, degrades, a scripted kill and an elastic grow and
  // shrink: each occurrence is one lifecycle record, and the Chrome trace
  // renders it once, under the name the timeline has always used.
  obs::enable();
  uint64_t tasks_failed = 0;
  {
    FaultPlan plan(FaultPlan::parse_spec(
        "task-fail=0.5,attempts=2,backoff=0.0001:0.001,kill-bucket=1@2,"
        "seed=5"));
    NetworkModel net;
    Dart dart(net, {.faults = &plan});
    StagingService service(dart, {1, 3});
    service.register_handler("work", [](TaskContext&) {});
    for (long step = 0; step < 8; ++step) {
      service.submit(InTransitTask{"work", step, {}, 1});
    }
    service.drain();
    service.add_bucket();
    service.retire_bucket();
    tasks_failed = plan.stats().tasks_failed;
  }
  obs::disable();

  std::map<std::string, int> instants;
  obs::json::Value trace;
  std::string error;
  ASSERT_TRUE(obs::json::parse(obs::chrome_trace_json(), trace, error))
      << error;
  using obs::json::find;
  for (const obs::json::Value& e : find(trace, "traceEvents")->array) {
    if (find(e, "ph")->string == "i") {
      ++instants[find(e, "cat")->string + "/" + find(e, "name")->string];
    }
  }
  std::map<obs::EventKind, int> kinds;
  int kills = 0;
  for (const obs::EventRecord& r : obs::events_snapshot()) {
    ++kinds[static_cast<obs::EventKind>(r.kind)];
    if (r.kind == static_cast<int32_t>(obs::EventKind::kFaultVerdict) &&
        r.a == static_cast<int64_t>(obs::EventFaultSite::kBucketKill)) {
      ++kills;
    }
  }
  using K = obs::EventKind;
  EXPECT_EQ(instants["sched/enqueue"], 8);
  EXPECT_EQ(instants["sched/enqueue"], kinds[K::kTaskSubmit]);
  EXPECT_EQ(instants["sched/complete"],
            kinds[K::kTaskComplete] + kinds[K::kTaskDegrade]);
  EXPECT_GT(kinds[K::kTaskRetry], 0);
  EXPECT_EQ(instants["fault/task_retry"], kinds[K::kTaskRetry]);
  EXPECT_GT(tasks_failed, 0u);
  EXPECT_EQ(instants["fault/task_timeout"], static_cast<int>(tasks_failed));
  EXPECT_EQ(kills, 1);
  EXPECT_EQ(instants["fault/bucket_killed"], 1);
  EXPECT_EQ(instants["pool/bucket_added"], 1);
  EXPECT_EQ(instants["pool/bucket_retired"], 1);
}

TEST_F(EventsTest, InjectedTimeoutIsAnOrdinaryFailedAttempt) {
  // Every bucket attempt times out. Each one is recorded like a thrown
  // handler's attempt: assign, the transfer/work split, then the retry or
  // the vacate that ends its occupancy; the task then degrades. No handler
  // threw, so nothing is logged as an error.
  std::mutex mu;
  int error_lines = 0;
  log::set_sink([&](const std::string& line) {
    std::lock_guard lock(mu);
    if (line.find("ERROR") != std::string::npos) ++error_lines;
  });
  obs::enable();
  uint64_t tasks_failed = 0;
  constexpr int kTasks = 3;
  {
    FaultPlan plan(
        FaultPlan::parse_spec("task-fail=1:0.01,attempts=2,"
                              "backoff=0.0001:0.001"));
    NetworkModel net;
    Dart dart(net, {.faults = &plan});
    StagingService service(dart, {1, 1});
    service.register_handler("work", [](TaskContext&) {});
    for (int i = 0; i < kTasks; ++i) {
      service.submit(InTransitTask{"work", i, {}, 1});
    }
    service.drain();
    tasks_failed = plan.stats().tasks_failed;
    for (const TaskRecord& r : service.records()) {
      EXPECT_EQ(r.outcome, TaskOutcome::kDegraded);
      EXPECT_EQ(r.attempts, 2);
    }
  }
  obs::disable();
  log::set_sink(nullptr);
  EXPECT_EQ(error_lines, 0);
  EXPECT_EQ(tasks_failed, 2u * kTasks);

  // The bucket-side records of each task, in the order they happened.
  using K = obs::EventKind;
  const std::vector<obs::EventRecord> records = obs::events_snapshot();
  std::map<int64_t, std::vector<K>> bucket_side;
  for (const obs::EventRecord& r : records) {
    const auto kind = static_cast<K>(r.kind);
    const bool attempt_kind =
        kind == K::kTaskAssign || kind == K::kTaskXfer ||
        kind == K::kTaskWork || kind == K::kTaskRetry ||
        kind == K::kBucketVacate || kind == K::kBucketOccupy;
    if (attempt_kind && r.bucket >= 0) bucket_side[r.a].push_back(kind);
  }
  const std::vector<K> want = {K::kTaskAssign, K::kTaskXfer,  K::kTaskWork,
                               K::kTaskRetry,  K::kTaskAssign, K::kTaskXfer,
                               K::kTaskWork,   K::kBucketVacate};
  ASSERT_EQ(bucket_side.size(), static_cast<size_t>(kTasks));
  for (const auto& [task, kinds] : bucket_side) {
    EXPECT_EQ(kinds, want) << "task " << task;
  }

  const obs::Attribution a = obs::attribute_events(records, 0);
  EXPECT_TRUE(a.conserved) << a.error;
  EXPECT_EQ(a.tasks.size(), static_cast<size_t>(kTasks));

  int timeouts = 0;
  obs::json::Value trace;
  std::string error;
  ASSERT_TRUE(obs::json::parse(obs::chrome_trace_json(), trace, error))
      << error;
  using obs::json::find;
  for (const obs::json::Value& e : find(trace, "traceEvents")->array) {
    if (find(e, "ph")->string == "i" && find(e, "cat")->string == "fault" &&
        find(e, "name")->string == "task_timeout") {
      ++timeouts;
    }
  }
  EXPECT_EQ(timeouts, static_cast<int>(tasks_failed));
}

}  // namespace
}  // namespace hia
