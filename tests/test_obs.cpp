// Unit tests for the observability layer: span tracer, counter registry,
// Chrome-trace export, and the staging-scheduler integration.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <mutex>
#include <regex>
#include <string>
#include <thread>
#include <vector>

#include "obs/counters.hpp"
#include "obs/events.hpp"
#include "obs/export.hpp"
#include "obs/histogram.hpp"
#include "obs/json.hpp"
#include "obs/labels.hpp"
#include "obs/run_summary.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "staging/scheduler.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

/// Fresh recorder state for each test (rings stay registered; records and
/// accounting are cleared).
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::disable();
    obs::reset_counters();
    obs::reset_histograms();
    obs::reset_timeseries();
    obs::reset_events();
  }
  void TearDown() override {
    obs::disable();
    obs::reset_counters();
    obs::reset_histograms();
    obs::reset_timeseries();
    obs::reset_events();
  }
};

int count_phase(const std::vector<obs::Event>& events, obs::Phase phase) {
  int n = 0;
  for (const auto& e : events) {
    if (e.phase == phase) ++n;
  }
  return n;
}

// ---- Tracks ----

TEST_F(ObsTest, TrackMappingRoundTrips) {
  int id = -1;
  EXPECT_TRUE(obs::is_rank_track(obs::rank_track(0), &id));
  EXPECT_EQ(id, 0);
  EXPECT_TRUE(obs::is_rank_track(obs::rank_track(37), &id));
  EXPECT_EQ(id, 37);
  EXPECT_TRUE(obs::is_bucket_track(obs::bucket_track(5), &id));
  EXPECT_EQ(id, 5);
  EXPECT_FALSE(obs::is_rank_track(obs::kTrackControl));
  EXPECT_FALSE(obs::is_bucket_track(obs::kTrackControl));
  EXPECT_FALSE(obs::is_bucket_track(obs::rank_track(3)));
}

// ---- Recording basics ----

TEST_F(ObsTest, DisabledRecordsNothing) {
  { HIA_TRACE_SPAN("test", "quiet"); }
  obs::instant("test", "quiet-instant");
  EXPECT_TRUE(obs::snapshot().empty());
}

TEST_F(ObsTest, SpanArmedAtConstructionStaysPaired) {
  // A span constructed while disabled must not emit a dangling 'E' when
  // tracing is enabled mid-scope.
  {
    HIA_TRACE_SPAN("test", "unarmed");
    obs::enable();
  }
  EXPECT_TRUE(obs::snapshot().empty());

  // And the converse: armed at construction, disabled mid-scope, the 'E'
  // still lands so the pair is complete.
  obs::enable();
  {
    HIA_TRACE_SPAN("test", "armed");
    obs::disable();
  }
  const auto events = obs::snapshot();
  EXPECT_EQ(count_phase(events, obs::Phase::kBegin), 1);
  EXPECT_EQ(count_phase(events, obs::Phase::kEnd), 1);
}

TEST_F(ObsTest, NameTruncationIsAccountedNotUB) {
  obs::enable();
  const std::string longname(obs::Event::kNameCapacity * 3, 'x');
  obs::instant("test", longname.c_str());
  EXPECT_EQ(obs::oversized_names(), 1u);
  const auto events = obs::snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_LT(std::string(events[0].name).size(), obs::Event::kNameCapacity);
}

// ---- Nesting and ordering across worker threads ----

TEST_F(ObsTest, SpanNestingUnderThreadPool) {
  obs::enable();
  constexpr int kTasks = 64;
  constexpr int kWorkers = 4;
  std::atomic<int> next{0};
  std::vector<std::thread> workers;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&next] {
      while (next.fetch_add(1) < kTasks) {
        HIA_TRACE_SPAN("pool", "task");
        HIA_TRACE_SPAN("test", "outer");
        {
          HIA_TRACE_SPAN("test", "inner");
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : workers) t.join();

  // Each worker wraps every task it takes in a "pool"/"task" span, so each
  // task contributes three nested pairs.
  const auto events = obs::snapshot();
  EXPECT_EQ(count_phase(events, obs::Phase::kBegin), 3 * kTasks);
  EXPECT_EQ(count_phase(events, obs::Phase::kEnd), 3 * kTasks);

  // The exported JSON must satisfy the Chrome nesting invariant per thread.
  const obs::TraceValidation v =
      obs::validate_chrome_trace_json(obs::chrome_trace_json());
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.spans, static_cast<size_t>(3 * kTasks));
}

TEST_F(ObsTest, SnapshotIsSortedByWallTime) {
  obs::enable();
  for (int i = 0; i < 100; ++i) obs::instant("test", "tick");
  const auto events = obs::snapshot();
  ASSERT_EQ(events.size(), 100u);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].t_us, events[i].t_us);
  }
}

// ---- Ring overflow ----

TEST_F(ObsTest, RingOverflowDropsOldestAndCounts) {
  obs::set_events_capacity(32);
  obs::enable();

  // A fresh thread gets the small ring; overflow it 10x over.
  std::thread recorder([] {
    obs::set_thread_track(obs::rank_track(99));
    for (int i = 0; i < 320; ++i) {
      HIA_TRACE_SPAN("test", "overflow");
    }
  });
  recorder.join();
  obs::set_events_capacity(obs::kDefaultEventsCapacity);  // for later tests

  const size_t held = obs::snapshot().size();
  EXPECT_GT(obs::dropped_trace_records(), 0u);
  EXPECT_EQ(obs::dropped_trace_records() + held, 640u);
  EXPECT_LE(held, 32u);

  // Overflow leaves orphan 'E's (their 'B' was overwritten); the export
  // must repair pairing so the trace still validates.
  const obs::TraceValidation v =
      obs::validate_chrome_trace_json(obs::chrome_trace_json());
  EXPECT_TRUE(v.ok) << v.error;
}

TEST_F(ObsTest, ResetDropsRingsOfExitedThreads) {
  // A thread's ring outlives the thread until the next reset, so a trace
  // written after a run still holds its spans; the reset takes it back for
  // the next threads. Live threads keep their rings (and their tids).
  obs::enable();
  obs::instant("test", "main");  // the main thread's ring is live
  const size_t base = obs::event_ring_count();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([] { obs::instant("test", "worker"); });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(obs::event_ring_count(), base + 4);
  EXPECT_EQ(obs::snapshot().size(), 5u);
  obs::reset_events();
  EXPECT_EQ(obs::event_ring_count(), base);
  EXPECT_TRUE(obs::snapshot().empty());

  // A thread registered after the reset gets a tid no earlier thread had.
  obs::instant("test", "main again");
  std::thread late([] { obs::instant("test", "late"); });
  late.join();
  const std::vector<obs::Event> events = obs::snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[1].tid, events[0].tid);
  obs::reset_events();
  EXPECT_EQ(obs::event_ring_count(), base);
}

// ---- Clocks ----

TEST_F(ObsTest, WallClockMonotoneAndVirtualTimePassesThrough) {
  obs::enable();
  double vtime = 0.0;
  for (int i = 0; i < 10; ++i) {
    vtime += 0.5;
    obs::instant("sim", "vtick", {.step = i, .vtime = vtime});
  }
  const auto events = obs::snapshot();
  ASSERT_EQ(events.size(), 10u);
  double prev_wall = -1.0, prev_virtual = -1.0;
  for (const auto& e : events) {
    EXPECT_GE(e.t_us, prev_wall);       // wall clock never goes backwards
    EXPECT_GT(e.args.vtime, prev_virtual);  // model clock strictly advances
    prev_wall = e.t_us;
    prev_virtual = e.args.vtime;
  }
  EXPECT_GE(obs::now_us(), prev_wall);
}

// ---- Export golden-file invariants ----

TEST_F(ObsTest, ExportedJsonParsesAndPairsEveryBeginWithEnd) {
  obs::enable();
  obs::set_thread_track(obs::rank_track(0));
  {
    HIA_TRACE_SPAN_ARGS("sim", "step", {.rank = 0, .step = 3, .vtime = 1.5});
    HIA_TRACE_SPAN("sim", "halo");
  }
  obs::begin("sched", "task:never-closed");  // repaired at export
  obs::instant("sched", "enqueue", {.step = 3});
  obs::set_thread_track(obs::kTrackControl);

  const std::string json = obs::chrome_trace_json();
  const obs::TraceValidation v = obs::validate_chrome_trace_json(json);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.spans, 3u);  // step, halo, and the repaired unclosed task
  EXPECT_GT(v.events, 0u);

  // Spot-check the Perfetto-facing surface.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("sim rank 0"), std::string::npos);
  EXPECT_NE(json.find("\"vt_s\""), std::string::npos);
}

TEST_F(ObsTest, ValidatorRejectsMalformedTraces) {
  EXPECT_FALSE(obs::validate_chrome_trace_json("not json").ok);
  EXPECT_FALSE(obs::validate_chrome_trace_json("{}").ok);
  // Mismatched nesting: E for a different name than the open B.
  const char* bad =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1.0,\"name\":\"a\"},"
      "{\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":2.0,\"name\":\"b\"}]}";
  EXPECT_FALSE(obs::validate_chrome_trace_json(bad).ok);
  // Unclosed B.
  const char* unclosed =
      "{\"traceEvents\":["
      "{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":1.0,\"name\":\"a\"}]}";
  EXPECT_FALSE(obs::validate_chrome_trace_json(unclosed).ok);
}

// ---- Counters ----

TEST_F(ObsTest, CountersTrackValueAndHighWater) {
  obs::Counter& c = obs::counter("test_gauge");
  c.add(5);
  c.add(3);
  c.add(-6);
  EXPECT_EQ(c.value(), 2);
  EXPECT_EQ(c.max(), 8);
  EXPECT_EQ(&c, &obs::counter("test_gauge"));  // stable identity

  const std::string text = obs::metrics_text();
  EXPECT_NE(text.find("hia_test_gauge 2"), std::string::npos);
  EXPECT_NE(text.find("hia_test_gauge_max 8"), std::string::npos);
  EXPECT_NE(text.find("hia_trace_dropped_events"), std::string::npos);
}

TEST_F(ObsTest, CountersAreThreadSafe) {
  obs::Counter& c = obs::counter("test_concurrent");
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < 10000; ++i) c.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), 40000);
  EXPECT_EQ(c.max(), 40000);
}

// ---- Scheduler integration: spans cross-check TaskRecords ----

TEST_F(ObsTest, SchedulerSpansMatchTaskRecords) {
  obs::enable();
  NetworkModel net;
  Dart dart(net);
  {
    StagingService service(dart, {1, 2});
    service.register_handler("probe", [](TaskContext&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });
    for (long step = 0; step < 6; ++step) {
      service.submit(InTransitTask{"probe", step, {}, 0});
    }
    service.drain();
    const auto records = service.records();
    ASSERT_EQ(records.size(), 6u);

    // One tracer task span per TaskRecord, on that record's bucket track.
    const auto events = obs::snapshot();
    int task_begins = 0;
    for (const auto& e : events) {
      int bucket = -1;
      if (e.phase == obs::Phase::kBegin &&
          std::string(e.name) == "task:probe") {
        ASSERT_TRUE(obs::is_bucket_track(e.track, &bucket));
        EXPECT_EQ(e.args.bucket, bucket);
        ++task_begins;
      }
    }
    EXPECT_EQ(task_begins, 6);

    const obs::SchedulerTraceStats stats = obs::scheduler_trace_stats();
    EXPECT_EQ(stats.buckets.size(), 2u);
    double busy = 0.0;
    for (const auto& b : stats.buckets) busy += b.busy_s;
    EXPECT_GT(busy, 0.0);
    EXPECT_GE(stats.busy_buckets_max, 1);
    EXPECT_EQ(obs::counter("staging_tasks_completed").value(), 6);
  }
}

// ---- util/log sink (satellite: no deadlock, no data race) ----

TEST_F(ObsTest, LogSinkMayLogWithoutDeadlock) {
  std::atomic<int> outer{0};
  log::set_level(log::Level::kWarn);
  log::set_sink([&](const std::string&) {
    if (outer.fetch_add(1) == 0) {
      // Re-entrant emit while the first emit is in flight: deadlocks if
      // vemit invokes the sink under the registry mutex.
      HIA_LOG_WARN("reentrant", "from inside the sink");
    }
  });
  HIA_LOG_WARN("test", "outer line");
  log::set_sink(nullptr);
  EXPECT_EQ(outer.load(), 2);
}

TEST_F(ObsTest, LogSinkSwapDuringConcurrentEmitIsSafe) {
  log::set_level(log::Level::kWarn);
  std::atomic<bool> stop{false};
  std::atomic<int> delivered{0};
  std::thread emitter([&] {
    while (!stop.load()) HIA_LOG_WARN("race", "line");
  });
  for (int i = 0; i < 200; ++i) {
    log::set_sink([&](const std::string&) { delivered.fetch_add(1); });
  }
  log::set_sink(nullptr);
  stop.store(true);
  emitter.join();
  log::set_level(log::Level::kWarn);
  SUCCEED();  // reaching here without deadlock/crash is the assertion
}

// ---- Histograms ----

TEST_F(ObsTest, HistogramBucketLayoutInvariant) {
  // Bucket i covers (upper_bound(i-1), upper_bound(i)] exactly, even for
  // values sitting on the boundary (the adversarial case for a log layout).
  const int n = obs::histogram_num_buckets();
  ASSERT_GT(n, 2);
  for (int i = 1; i < n - 1; i += 37) {
    const double ub = obs::histogram_bucket_upper_bound(i);
    EXPECT_EQ(obs::histogram_bucket_index(ub), i) << "upper bound of " << i;
    const double above = std::nextafter(ub, 1e300);
    EXPECT_EQ(obs::histogram_bucket_index(above), i + 1)
        << "just above upper bound of " << i;
  }
  EXPECT_EQ(obs::histogram_bucket_index(obs::kHistogramMinTrackable), 0);
  EXPECT_EQ(obs::histogram_bucket_index(0.0), 0);
  EXPECT_EQ(obs::histogram_bucket_index(-5.0), 0);
  EXPECT_EQ(obs::histogram_bucket_index(2e12), n - 1);
}

TEST_F(ObsTest, HistogramQuantilesWithinBounds) {
  obs::Histogram& h = obs::histogram("test_quantiles");
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i * 1e-3);  // 1ms..1s
  for (double v : values) h.record(v);
  const obs::HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_DOUBLE_EQ(snap.min, 1e-3);
  EXPECT_DOUBLE_EQ(snap.max, 1.0);
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    const double exact =
        values[static_cast<size_t>(q * 999.0)];  // sorted input
    const auto bounds = snap.quantile_bounds(q);
    const double estimate = snap.quantile(q);
    EXPECT_GE(estimate, bounds.lower) << "q=" << q;
    EXPECT_LE(estimate, bounds.upper) << "q=" << q;
    // Bucket growth is 2^(1/8): the bound interval (and so the estimate)
    // stays within ~9.05% of the true quantile, doubled for rank slack.
    EXPECT_NEAR(estimate, exact, exact * 0.2) << "q=" << q;
  }
}

TEST_F(ObsTest, HistogramQuantileBoundsAtBucketBoundaries) {
  // Adversarial: every recorded value is exactly a bucket upper bound, so
  // interpolation has zero slack inside the covering bucket.
  obs::Histogram& h = obs::histogram("test_boundaries");
  std::vector<double> values;
  for (int i = 100; i < 140; ++i) {
    values.push_back(obs::histogram_bucket_upper_bound(i));
  }
  for (double v : values) h.record(v);
  const obs::HistogramSnapshot snap = h.snapshot();
  ASSERT_EQ(snap.count, values.size());
  for (double q : {0.1, 0.5, 0.9}) {
    const auto bounds = snap.quantile_bounds(q);
    const double exact = values[static_cast<size_t>(q * (values.size() - 1))];
    EXPECT_LE(bounds.lower, exact) << "q=" << q;
    EXPECT_GE(bounds.upper * (1.0 + 1e-12), exact) << "q=" << q;
  }
}

TEST_F(ObsTest, HistogramMergeIsAssociativeAndCommutative) {
  obs::Histogram& ha = obs::histogram("test_merge_a");
  obs::Histogram& hb = obs::histogram("test_merge_b");
  obs::Histogram& hc = obs::histogram("test_merge_c");
  for (int i = 1; i <= 100; ++i) ha.record(i * 1e-6);
  for (int i = 1; i <= 50; ++i) hb.record(i * 1e-2);
  for (int i = 1; i <= 25; ++i) hc.record(i * 1.0);
  const auto a = ha.snapshot(), b = hb.snapshot(), c = hc.snapshot();

  const auto left = obs::merge(obs::merge(a, b), c);
  const auto right = obs::merge(a, obs::merge(b, c));
  const auto swapped = obs::merge(obs::merge(c, b), a);
  EXPECT_EQ(left.count, 175u);
  EXPECT_EQ(left.count, right.count);
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  EXPECT_DOUBLE_EQ(left.min, right.min);
  EXPECT_DOUBLE_EQ(left.max, right.max);
  EXPECT_EQ(left.buckets, right.buckets);
  EXPECT_EQ(left.buckets, swapped.buckets);

  // Merging with an empty snapshot is the identity.
  const auto with_empty = obs::merge(left, obs::HistogramSnapshot{});
  EXPECT_EQ(with_empty.count, left.count);
  EXPECT_EQ(with_empty.buckets, left.buckets);
  EXPECT_DOUBLE_EQ(with_empty.min, left.min);
}

TEST_F(ObsTest, HistogramConcurrentRecordersMergeExactly) {
  obs::Histogram& h = obs::histogram("test_concurrent");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.record((t + 1) * 1e-4);
      }
    });
  }
  for (auto& t : threads) t.join();
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<uint64_t>(kThreads * kPerThread));
  uint64_t bucket_total = 0;
  for (uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
  EXPECT_DOUBLE_EQ(snap.min, 1e-4);
  EXPECT_DOUBLE_EQ(snap.max, 8e-4);
}

// ---- Time series ----

TEST_F(ObsTest, TimeseriesDualClockMonotoneUnderConcurrentSampling) {
  double vclock = 0.0;
  std::mutex vclock_mutex;
  obs::set_virtual_clock(
      [&] {
        std::lock_guard lock(vclock_mutex);
        vclock += 0.5;  // strictly advancing virtual time
        return vclock;
      },
      &vclock);
  obs::register_gauge("test_gauge", [] { return 42.0; });

  constexpr int kThreads = 4;
  constexpr int kSamples = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSamples; ++i) obs::sample_now();
    });
  }
  for (auto& t : threads) t.join();
  obs::clear_virtual_clock(&vclock);

  const auto series = obs::timeseries_snapshot();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].samples.size(),
            static_cast<size_t>(kThreads * kSamples));
  double prev_t = -1.0, prev_vt = -1.0;
  for (const auto& s : series[0].samples) {
    EXPECT_GE(s.t_s, prev_t) << "wall clock went backwards";
    EXPECT_GT(s.vt_s, prev_vt) << "virtual clock went backwards";
    EXPECT_DOUBLE_EQ(s.value, 42.0);
    prev_t = s.t_s;
    prev_vt = s.vt_s;
  }
}

TEST_F(ObsTest, TimeseriesRingOverwritesOldest) {
  obs::set_series_capacity(4);
  int tick = 0;
  obs::register_gauge("test_ring", [&] { return static_cast<double>(++tick); });
  for (int i = 0; i < 10; ++i) obs::sample_now();
  const auto series = obs::timeseries_snapshot();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_EQ(series[0].samples.size(), 4u);
  EXPECT_EQ(series[0].dropped, 6u);
  // The surviving window is the most recent four ticks, oldest first.
  EXPECT_DOUBLE_EQ(series[0].samples.front().value, 7.0);
  EXPECT_DOUBLE_EQ(series[0].samples.back().value, 10.0);
  obs::set_series_capacity(4096);
}

TEST_F(ObsTest, TimeseriesBackgroundSampler) {
  obs::register_counter_gauge("test_counter_gauge");
  obs::counter("test_counter_gauge").add(7);
  obs::start_sampler(200.0);
  EXPECT_TRUE(obs::sampler_running());
  // Poll until the sampler has demonstrably ticked twice instead of
  // sleeping a fixed interval: the 1-core CI box can starve the sampler
  // thread for longer than any hard-coded sleep.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto probe = obs::timeseries_snapshot();
    if (!probe.empty() && probe[0].samples.size() >= 2u) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  obs::stop_sampler();
  EXPECT_FALSE(obs::sampler_running());
  const auto series = obs::timeseries_snapshot();
  ASSERT_EQ(series.size(), 1u);
  EXPECT_GE(series[0].samples.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].samples.back().value, 7.0);
}

// ---- RunSummary + bench_diff ----

TEST_F(ObsTest, RunSummaryJsonValidates) {
  obs::histogram("test_latency_s").record(0.01);
  obs::histogram("test_latency_s").record(0.02);
  obs::counter("test_total").add(3);
  obs::register_gauge("test_depth", [] { return 2.0; });
  obs::sample_now();

  obs::RunSummary meta;
  meta.bench = "unit";
  meta.metrics["answer"] = 42.0;
  const std::string json = obs::run_summary_json(meta);
  const obs::SummaryValidation v = obs::validate_run_summary_json(json);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.bench, "unit");
  EXPECT_EQ(v.metrics, 1u);
  EXPECT_GE(v.counters, 1u);
  EXPECT_GE(v.histograms, 1u);
  EXPECT_GE(v.series, 1u);
}

TEST_F(ObsTest, RunSummaryValidationRejectsGarbage) {
  EXPECT_FALSE(obs::validate_run_summary_json("{}").ok);
  EXPECT_FALSE(obs::validate_run_summary_json("not json").ok);
  EXPECT_FALSE(
      obs::validate_run_summary_json("{\"schema\": \"wrong-tag\"}").ok);
}

TEST_F(ObsTest, DiffRunSummariesGatesOnTolerance) {
  obs::RunSummary base;
  base.bench = "unit";
  base.metrics["stable"] = 100.0;
  base.metrics["drifty"] = 10.0;
  base.tolerances["default"] = 0.35;
  base.tolerances["drifty"] = 0.05;
  const std::string baseline = obs::run_summary_json(base);

  obs::RunSummary ok_run;
  ok_run.bench = "unit";
  ok_run.metrics["stable"] = 120.0;  // +20% < 35%
  ok_run.metrics["drifty"] = 10.4;   // +4% < 5%
  const obs::DiffReport ok_report =
      obs::diff_run_summaries(obs::run_summary_json(ok_run), baseline);
  EXPECT_TRUE(ok_report.ok) << ok_report.error;
  ASSERT_EQ(ok_report.entries.size(), 2u);

  obs::RunSummary bad_run;
  bad_run.bench = "unit";
  bad_run.metrics["stable"] = 120.0;
  bad_run.metrics["drifty"] = 11.0;  // +10% > 5%
  const obs::DiffReport bad_report =
      obs::diff_run_summaries(obs::run_summary_json(bad_run), baseline);
  EXPECT_FALSE(bad_report.ok);

  obs::RunSummary missing_run;
  missing_run.bench = "unit";
  missing_run.metrics["stable"] = 100.0;  // "drifty" absent
  const obs::DiffReport missing_report =
      obs::diff_run_summaries(obs::run_summary_json(missing_run), baseline);
  EXPECT_FALSE(missing_report.ok);
  bool saw_missing = false;
  for (const auto& e : missing_report.entries) {
    if (e.metric == "drifty") saw_missing = e.missing;
  }
  EXPECT_TRUE(saw_missing);
}

// ---- Prometheus exposition ----

TEST_F(ObsTest, MetricsTextHistogramTripletValidates) {
  obs::counter("test_gauge_metric").add(5);
  obs::Histogram& h = obs::histogram("test_expo_s");
  for (int i = 1; i <= 64; ++i) h.record(i * 1e-3);
  const std::string text = obs::metrics_text();
  const obs::MetricsValidation v = obs::validate_metrics_text(text);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_GE(v.samples, 4u);
  EXPECT_EQ(v.histograms, 1u);
  EXPECT_NE(text.find("hia_test_expo_s_bucket{le=\"+Inf\"} 64"),
            std::string::npos);
  EXPECT_NE(text.find("hia_test_expo_s_count 64"), std::string::npos);
}

// ---- Labels ----

TEST_F(ObsTest, LabeledInstrumentsAreIsolatedFromUnlabeled) {
  obs::Labels t1;
  t1.tenant = 1;
  obs::Labels t2;
  t2.tenant = 2;
  obs::counter("test_tasks").add(5);
  obs::counter("test_tasks", t1).add(2);
  obs::counter("test_tasks", t2).add(3);
  EXPECT_EQ(obs::counter("test_tasks").value(), 5);
  EXPECT_EQ(obs::counter("test_tasks", t1).value(), 2);
  EXPECT_EQ(obs::counter("test_tasks", t2).value(), 3);
  // The unlabeled snapshot (the pre-label surface every report consumes)
  // must not see the labeled cells, and vice versa.
  for (const obs::CounterSample& s : obs::counters_snapshot()) {
    EXPECT_TRUE(s.labels.empty()) << s.name;
    if (s.name == "test_tasks") {
      EXPECT_EQ(s.value, 5);
    }
  }
  size_t labeled = 0;
  for (const obs::CounterSample& s : obs::labeled_counters_snapshot()) {
    EXPECT_FALSE(s.labels.empty()) << s.name;
    if (s.name == "test_tasks") ++labeled;
  }
  EXPECT_EQ(labeled, 2u);

  obs::histogram("test_lat_s").record(0.5);
  obs::histogram("test_lat_s", t1).record(0.25);
  EXPECT_EQ(obs::histogram("test_lat_s").snapshot().count, 1u);
  EXPECT_EQ(obs::histogram("test_lat_s", t1).snapshot().count, 1u);
  EXPECT_DOUBLE_EQ(obs::histogram("test_lat_s", t1).snapshot().max, 0.25);
}

TEST_F(ObsTest, LabelsKeyAndPrometheusRendering) {
  obs::Labels l;
  EXPECT_TRUE(l.empty());
  EXPECT_EQ(l.key(), "");
  l.tenant = 3;
  l.bucket = 0;
  EXPECT_EQ(l.key(), "tenant=3,bucket=0");
  EXPECT_EQ(l.prometheus_pairs(), "tenant=\"3\",bucket=\"0\"");
  obs::Labels site;
  site.site = "a\"b\\c";
  EXPECT_EQ(site.prometheus_pairs(), "site=\"a\\\"b\\\\c\"");
}

TEST_F(ObsTest, MetricsTextWithLabelsValidates) {
  obs::Labels t3;
  t3.tenant = 3;
  obs::counter("test_labeled_total").add(7);
  obs::counter("test_labeled_total", t3).add(4);
  obs::Histogram& unlabeled = obs::histogram("test_labeled_s");
  obs::Histogram& labeled = obs::histogram("test_labeled_s", t3);
  for (int i = 1; i <= 8; ++i) {
    unlabeled.record(i * 1e-3);
    labeled.record(i * 2e-3);
  }
  const std::string text = obs::metrics_text();
  const obs::MetricsValidation v = obs::validate_metrics_text(text);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_NE(text.find("hia_test_labeled_total{tenant=\"3\"} 4"),
            std::string::npos);
  EXPECT_NE(text.find("hia_test_labeled_s_count{tenant=\"3\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("tenant=\"3\",le=\"+Inf\"} 8"), std::string::npos);
  // Exactly one # TYPE per metric name, shared by every label set.
  size_t type_decls = 0;
  for (size_t pos = 0;
       (pos = text.find("# TYPE hia_test_labeled_s ", pos)) !=
       std::string::npos;
       ++pos) {
    ++type_decls;
  }
  EXPECT_EQ(type_decls, 1u);
}

TEST_F(ObsTest, ExporterSanitizesAndDedupesIllegalNames) {
  // Both names sanitize to the same legal metric; the exporter must emit
  // one series, not a duplicate pair the validator would reject.
  obs::counter("test-bad.name").add(1);
  obs::counter("test?bad/name").add(2);
  const std::string text = obs::metrics_text();
  const obs::MetricsValidation v = obs::validate_metrics_text(text);
  ASSERT_TRUE(v.ok) << v.error;
  size_t occurrences = 0;
  for (size_t pos = 0;
       (pos = text.find("\nhia_test_bad_name ", pos)) != std::string::npos;
       ++pos) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 1u);
}

TEST_F(ObsTest, MetricsValidationRejectsIllegalAndDuplicateSeries) {
  EXPECT_FALSE(obs::validate_metrics_text("# TYPE 9bad gauge\n9bad 1\n").ok);
  const std::string dup_series =
      "# TYPE hia_x gauge\n"
      "hia_x{tenant=\"1\"} 1\n"
      "hia_x{tenant=\"1\"} 2\n";
  EXPECT_FALSE(obs::validate_metrics_text(dup_series).ok);
  const std::string dup_label =
      "# TYPE hia_x gauge\n"
      "hia_x{tenant=\"1\",tenant=\"2\"} 1\n";
  EXPECT_FALSE(obs::validate_metrics_text(dup_label).ok);
  const std::string bad_label =
      "# TYPE hia_x gauge\n"
      "hia_x{9enant=\"1\"} 1\n";
  EXPECT_FALSE(obs::validate_metrics_text(bad_label).ok);
  // Same labels in a different order are the same series.
  const std::string reordered =
      "# TYPE hia_x gauge\n"
      "hia_x{tenant=\"1\",bucket=\"0\"} 1\n"
      "hia_x{bucket=\"0\",tenant=\"1\"} 2\n";
  EXPECT_FALSE(obs::validate_metrics_text(reordered).ok);
}

TEST_F(ObsTest, MetricsTextCarriesHelpHeadersAndBuildInfo) {
  obs::counter("test_help_gauge").add(1);
  const std::string text = obs::metrics_text();
  ASSERT_TRUE(obs::validate_metrics_text(text).ok);
  EXPECT_NE(text.find("# HELP hia_test_help_gauge "), std::string::npos);
  EXPECT_NE(text.find("# HELP hia_build_info "), std::string::npos);
  EXPECT_NE(text.find("hia_build_info{"), std::string::npos);

  // A TYPE declaration with no preceding HELP is rejected...
  const std::string no_help =
      "# HELP hia_build_info x\n"
      "# TYPE hia_build_info gauge\n"
      "hia_build_info 1\n"
      "# TYPE hia_x gauge\n"
      "hia_x 1\n";
  EXPECT_FALSE(obs::validate_metrics_text(no_help).ok);
  // ...as is an exposition without the constant build-identity gauge...
  const std::string no_build_info =
      "# HELP hia_x x\n"
      "# TYPE hia_x gauge\n"
      "hia_x 1\n";
  EXPECT_FALSE(obs::validate_metrics_text(no_build_info).ok);
  // ...or one where it is not the constant 1.
  const std::string bad_build_info =
      "# HELP hia_build_info x\n"
      "# TYPE hia_build_info gauge\n"
      "hia_build_info 2\n";
  EXPECT_FALSE(obs::validate_metrics_text(bad_build_info).ok);
}

TEST_F(ObsTest, RunSummaryBreakdownsValidate) {
  obs::Labels t1;
  t1.tenant = 1;
  obs::Labels t2;
  t2.tenant = 2;
  obs::counter("test_part_total", t1).add(3);
  obs::counter("test_part_total", t2).add(4);
  obs::histogram("test_part_s", t1).record(0.1);
  obs::histogram("test_part_s", t2).record(0.2);
  obs::RunSummary meta;
  meta.bench = "unit";
  meta.metrics["answer"] = 1.0;
  const std::string json = obs::run_summary_json(meta);
  const obs::SummaryValidation v = obs::validate_run_summary_json(json);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_GE(v.breakdowns, 2u);
  EXPECT_NE(json.find("\"breakdowns\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant=1\""), std::string::npos);

  // Without labeled series the section is omitted entirely, keeping
  // pre-label summaries (and committed baselines) byte-identical.
  obs::reset_counters();
  obs::reset_histograms();
  const std::string plain = obs::run_summary_json(meta);
  EXPECT_EQ(plain.find("\"breakdowns\""), std::string::npos);
  EXPECT_EQ(obs::validate_run_summary_json(plain).breakdowns, 0u);
}

TEST_F(ObsTest, MetricsValidationCatchesMalformedHistograms) {
  EXPECT_FALSE(obs::validate_metrics_text("hia_orphan 3\n").ok);
  const std::string non_cumulative =
      "# TYPE hia_h histogram\n"
      "hia_h_bucket{le=\"0.1\"} 5\n"
      "hia_h_bucket{le=\"0.2\"} 3\n"   // decreasing: invalid
      "hia_h_bucket{le=\"+Inf\"} 5\n"
      "hia_h_sum 0.5\n"
      "hia_h_count 5\n";
  EXPECT_FALSE(obs::validate_metrics_text(non_cumulative).ok);
  const std::string inf_mismatch =
      "# TYPE hia_h histogram\n"
      "hia_h_bucket{le=\"0.1\"} 5\n"
      "hia_h_bucket{le=\"+Inf\"} 5\n"
      "hia_h_sum 0.5\n"
      "hia_h_count 6\n";                // +Inf != _count: invalid
  EXPECT_FALSE(obs::validate_metrics_text(inf_mismatch).ok);
}

// ---- JSON parser (trace_lint, RunSummary, bench_diff, spill headers) ----

bool parses(const std::string& text) {
  obs::json::Value v;
  std::string error;
  const bool ok = obs::json::parse(text, v, error);
  EXPECT_TRUE(ok || !error.empty()) << text;
  return ok;
}

TEST(JsonParse, RejectsTextThatIsNotJson) {
  for (const char* bad :
       {"1-2", "+1", ".", "--", "1.2.3", "01", "-", "1.", ".5", "1e", "1e+",
        "{\"count\": 1e5e5}", "1e999", "-1e999", "[1e400]", "\"\\uZZZZ\"",
        "\"\\u12\"", "\"tab\there\""}) {
    EXPECT_FALSE(parses(bad)) << bad;
  }
}

TEST(JsonParse, AcceptsEveryRfcNumberForm) {
  const std::pair<const char*, double> good[] = {
      {"-0", 0.0},      {"0", 0.0},         {"1e+05", 1e5},
      {"2.5E-3", 2.5e-3}, {"-12.75", -12.75}, {"10", 10.0},
      {"1e-400", 0.0},  {"9007199254740993", 9007199254740992.0}};
  for (const auto& [text, value] : good) {
    obs::json::Value v;
    std::string error;
    ASSERT_TRUE(obs::json::parse(text, v, error)) << text << ": " << error;
    EXPECT_TRUE(v.is_number());
    EXPECT_EQ(v.number, value) << text;
  }
  obs::json::Value v;
  std::string error;
  ASSERT_TRUE(obs::json::parse("{\"a\": [1, -2.5e1, \"\\u00e9\"]}", v, error))
      << error;
  EXPECT_EQ(obs::json::find(v, "a")->array[1].number, -25.0);
}

/// True when every number in `v` is finite.
bool all_finite(const obs::json::Value& v) {
  if (v.is_number()) return std::isfinite(v.number);
  for (const obs::json::Value& e : v.array) {
    if (!all_finite(e)) return false;
  }
  for (const auto& [key, e] : v.object) {
    if (!all_finite(e)) return false;
  }
  return true;
}

/// True when every bare token of `text` (outside strings) is a literal or
/// an RFC 8259 number.
bool tokens_follow_grammar(const std::string& text) {
  static const std::regex number(
      "-?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?");
  std::string token;
  bool in_string = false;
  for (size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : ' ';
    if (in_string) {
      if (c == '\\') ++i;
      if (c == '"') in_string = false;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(c)) != 0 ||
        std::strchr("+-.", c) != nullptr) {
      token += c;
      continue;
    }
    if (!token.empty() && token != "true" && token != "false" &&
        token != "null" && !std::regex_match(token, number)) {
      return false;
    }
    token.clear();
    in_string = c == '"';
  }
  return true;
}

TEST(JsonParse, MutatedDocumentsFailOnlyWithAnError) {
  // Two documents the parser reads from files: a RunSummary and the header
  // of an hia-events-v1 spill, each from a real (small) run.
  obs::reset_histograms();
  obs::reset_counters();
  obs::reset_timeseries();
  obs::histogram("json_sweep_s").record(0.25);
  obs::counter("json_sweep_total").add(7);
  obs::register_gauge("json_sweep_depth", [] { return 1.5; });
  obs::sample_now();
  obs::RunSummary meta;
  meta.bench = "json_sweep";
  meta.metrics["ratio"] = 0.125;
  meta.metrics["big"] = 1e12;
  const std::string summary = obs::run_summary_json(meta);
  ASSERT_TRUE(obs::validate_run_summary_json(summary).ok);

  obs::reset_events();
  obs::record_event(obs::EventKind::kTaskSubmit, 1, -1, 1, 64, 0.5);
  obs::record_event(obs::EventKind::kTaskComplete, 1, 0, 1, 1, 0.75);
  obs::set_events_run_config({.present = true, .buckets = 2, .servers = 1,
                              .replicas = 1, .faults = "drop=0.1",
                              .overload = "", .tenant_weights = {2.0, 1.0}});
  const std::string path = ::testing::TempDir() + "json_sweep.bin";
  ASSERT_TRUE(obs::write_events_file(path));
  std::string spill;
  {
    std::ifstream in(path, std::ios::binary);
    spill.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  obs::reset_events();
  uint32_t header_len = 0;
  std::memcpy(&header_len, spill.data() + 12, sizeof(header_len));
  const std::string header = spill.substr(16, header_len);
  ASSERT_TRUE(parses(header));

  const char* const splices[] = {"1e999", "01", "1.2.3", "+1", "-", "1e5e5",
                                 ".5",    "1.",  "-0",   "2.5E-3", "\\uZZ",
                                 "\\u00e9", "1e-400", "[", "}", "\""};
  SplitMix64 rng(0x150c);
  for (const std::string* doc : {&summary, &header}) {
    size_t accepted = 0;
    for (int iter = 0; iter < 4000; ++iter) {
      std::string m = *doc;
      const uint64_t draw = rng.next();
      const size_t at = (draw >> 8) % m.size();
      switch (draw % 5) {
        case 0:  // one byte changes to a number-ish or any byte
          m[at] = (draw >> 32) % 2 == 0 ? "-+.eE019"[(draw >> 40) % 8]
                                        : static_cast<char>(draw >> 48);
          break;
        case 1:  // a splice over the bytes at `at`
          m.replace(at, (draw >> 32) % 4,
                    splices[(draw >> 40) % std::size(splices)]);
          break;
        case 2:  // a byte goes
          m.erase(at, 1);
          break;
        case 3:  // truncation
          m.resize(at);
          break;
        default:  // a digit run doubles: 12 -> 1212, 0.5 -> 0.50.5
          m.insert(at, m.substr(at, (draw >> 32) % 6));
          break;
      }
      obs::json::Value v;
      std::string error;
      bool ok = false;
      ASSERT_NO_THROW(ok = obs::json::parse(m, v, error)) << m;
      if (!ok) {
        EXPECT_FALSE(error.empty()) << m;
        continue;
      }
      ++accepted;
      EXPECT_TRUE(all_finite(v)) << m;
      EXPECT_TRUE(tokens_follow_grammar(m)) << m;
      EXPECT_NO_THROW(obs::validate_run_summary_json(m));
      if (::testing::Test::HasFailure()) {
        FAIL() << "iteration " << iter << " (mutation " << draw % 5 << ")";
      }
    }
    // Harmless mutations (a digit inside a number) leave valid JSON.
    EXPECT_GT(accepted, 100u);
  }
}

}  // namespace
}  // namespace hia
