// Tests for the Dart transport: registration, one-sided put/get semantics,
// SMSG/BTE path accounting, events, and concurrency.
#include <gtest/gtest.h>

#include <thread>

#include "transport/dart.hpp"
#include "util/stopwatch.hpp"

namespace hia {
namespace {

class DartTest : public ::testing::Test {
 protected:
  NetworkModel net_;
  Dart dart_{net_};
};

TEST_F(DartTest, RegisterUnregister) {
  const int a = dart_.register_node("sim-0");
  const int b = dart_.register_node("bucket-0");
  EXPECT_NE(a, b);
  EXPECT_EQ(dart_.num_registered(), 2);
  EXPECT_EQ(dart_.node_name(a), "sim-0");
  dart_.unregister_node(a);
  EXPECT_EQ(dart_.num_registered(), 1);
  EXPECT_THROW(dart_.unregister_node(a), Error);  // double unregister
}

TEST_F(DartTest, PutGetRoundTrip) {
  const int src = dart_.register_node("src");
  const int dst = dart_.register_node("dst");
  std::vector<double> data{1.5, -2.5, 3.25};
  const DartHandle h = dart_.put_doubles(src, data);
  EXPECT_TRUE(h.valid());
  EXPECT_EQ(h.bytes, 24u);
  EXPECT_EQ(h.owner_node, src);

  TransferStats stats;
  const auto out = dart_.get_doubles(dst, h, &stats);
  EXPECT_EQ(out, data);
  EXPECT_EQ(stats.bytes, 24u);
  EXPECT_EQ(stats.path, TransferPath::kSmsg);
  EXPECT_GT(stats.modeled_seconds, 0.0);
}

TEST_F(DartTest, GetLeavesRegionPublished) {
  const int src = dart_.register_node("src");
  const int dst = dart_.register_node("dst");
  const DartHandle h = dart_.put_doubles(src, {1.0});
  (void)dart_.get_doubles(dst, h);
  // Second get still works (one-sided read, non-destructive).
  EXPECT_EQ(dart_.get_doubles(dst, h).size(), 1u);
  EXPECT_EQ(dart_.num_published(), 1u);
  dart_.release(h);
  EXPECT_EQ(dart_.num_published(), 0u);
  EXPECT_THROW(dart_.get_doubles(dst, h), Error);
  EXPECT_THROW(dart_.release(h), Error);
}

TEST_F(DartTest, PathSelectionByPayloadSize) {
  const int src = dart_.register_node("src");
  const int dst = dart_.register_node("dst");
  // Small: SMSG; large: BTE.
  const DartHandle small = dart_.put_doubles(src, std::vector<double>(10));
  const DartHandle large =
      dart_.put_doubles(src, std::vector<double>(1 << 16));
  TransferStats s1, s2;
  (void)dart_.get(dst, small, &s1);
  (void)dart_.get(dst, large, &s2);
  EXPECT_EQ(s1.path, TransferPath::kSmsg);
  EXPECT_EQ(s2.path, TransferPath::kBte);

  const auto counters = dart_.counters();
  EXPECT_EQ(counters.smsg_transfers, 1u);
  EXPECT_EQ(counters.bte_transfers, 1u);
  EXPECT_EQ(counters.bytes_moved, 80u + (1u << 16) * 8u);
  EXPECT_GT(counters.modeled_seconds_total, 0.0);
}

TEST_F(DartTest, PublishedBytesAccounting) {
  const int src = dart_.register_node("src");
  const auto h1 = dart_.put_doubles(src, std::vector<double>(100));
  const auto h2 = dart_.put_doubles(src, std::vector<double>(50));
  EXPECT_EQ(dart_.published_bytes(), 1200u);
  dart_.release(h1);
  EXPECT_EQ(dart_.published_bytes(), 400u);
  dart_.release(h2);
}

TEST_F(DartTest, RejectsUnregisteredParticipants) {
  const int src = dart_.register_node("src");
  const DartHandle h = dart_.put_doubles(src, {1.0});
  EXPECT_THROW(dart_.put_doubles(99, {1.0}), Error);
  EXPECT_THROW(dart_.get_doubles(99, h), Error);
}

TEST_F(DartTest, ConcurrentGetsAreSafe) {
  const int src = dart_.register_node("src");
  std::vector<double> data(1 << 14, 1.25);
  const DartHandle h = dart_.put_doubles(src, data);

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const int node = dart_.register_node("t" + std::to_string(t));
      for (int iter = 0; iter < 20; ++iter) {
        const auto out = dart_.get_doubles(node, h);
        if (out.size() == data.size() && out[0] == 1.25) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kThreads * 20);
  EXPECT_EQ(dart_.counters().bte_transfers,
            static_cast<size_t>(kThreads) * 20u);
}

TEST_F(DartTest, SleepTransfersScaleTime) {
  Dart::Options opt;
  opt.sleep_transfers = true;
  opt.time_scale = 50.0;  // exaggerate so the sleep is measurable
  Dart dart(net_, opt);
  const int src = dart.register_node("src");
  const int dst = dart.register_node("dst");
  const DartHandle h =
      dart.put_doubles(src, std::vector<double>(1 << 18));  // 2 MB -> BTE

  Stopwatch w;
  TransferStats stats;
  (void)dart.get(dst, h, &stats);
  const double wall = w.seconds();
  EXPECT_GE(wall, stats.modeled_seconds * opt.time_scale * 0.5);
}

}  // namespace
}  // namespace hia
