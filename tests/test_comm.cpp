// Tests for VirtualComm: point-to-point semantics, collectives, and
// property-style sweeps over world sizes (TEST_P).
#include <gtest/gtest.h>

#include <numeric>

#include "runtime/comm.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

TEST(Comm, SendRecvRoundTrip) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 7, 42);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, 7), 42);
    }
  });
}

TEST(Comm, SendToSelf) {
  World world(1);
  world.run([](Comm& comm) {
    comm.send_value(0, 1, 3.5);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 1), 3.5);
  });
}

TEST(Comm, TagMatchingIsSelective) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_value(1, 10, 100);
      comm.send_value(1, 20, 200);
    } else {
      // Receive in the reverse order of sending: tags select correctly.
      EXPECT_EQ(comm.recv_value<int>(0, 20), 200);
      EXPECT_EQ(comm.recv_value<int>(0, 10), 100);
    }
  });
}

TEST(Comm, AnySourceReportsSender) {
  World world(3);
  world.run([](Comm& comm) {
    if (comm.rank() != 0) {
      comm.send_value(0, 5, comm.rank());
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int src = -1;
        const int v = comm.recv_value<int>(kAnySource, 5, &src);
        EXPECT_EQ(v, src);
        seen += v;
      }
      EXPECT_EQ(seen, 3);  // ranks 1 + 2
    }
  });
}

TEST(Comm, VectorPayloads) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> v(1000);
      std::iota(v.begin(), v.end(), 0.0);
      comm.send_vector(1, 3, v);
    } else {
      const auto v = comm.recv_vector<double>(0, 3);
      ASSERT_EQ(v.size(), 1000u);
      EXPECT_DOUBLE_EQ(v[999], 999.0);
    }
  });
}

TEST(Comm, RethrowsRankException) {
  World world(2);
  EXPECT_THROW(world.run([](Comm& comm) {
                 if (comm.rank() == 1) throw Error("rank 1 failed");
               }),
               Error);
}

TEST(Comm, BytesSentAccounting) {
  World world(2);
  world.run([](Comm& comm) {
    if (comm.rank() == 0) {
      std::vector<double> v(10, 1.0);
      comm.send_vector(1, 0, v);
    } else {
      (void)comm.recv_vector<double>(0, 0);
    }
  });
  EXPECT_EQ(world.total_bytes_sent(), 80u);
}

class CommSizes : public ::testing::TestWithParam<int> {};

TEST_P(CommSizes, BarrierSynchronizes) {
  const int n = GetParam();
  World world(n);
  std::atomic<int> arrived{0};
  world.run([&](Comm& comm) {
    arrived.fetch_add(1);
    comm.barrier();
    // After the barrier, every rank must have arrived.
    EXPECT_EQ(arrived.load(), n);
    comm.barrier();
  });
}

TEST_P(CommSizes, AllreduceSumMatchesSerial) {
  const int n = GetParam();
  World world(n);
  world.run([&](Comm& comm) {
    const double mine = static_cast<double>(comm.rank() + 1);
    const double total = comm.allreduce_sum(mine);
    EXPECT_DOUBLE_EQ(total, n * (n + 1) / 2.0);
  });
}

TEST_P(CommSizes, AllreduceMinMax) {
  const int n = GetParam();
  World world(n);
  world.run([&](Comm& comm) {
    const double mine = static_cast<double>(comm.rank());
    EXPECT_DOUBLE_EQ(comm.allreduce_max(mine), n - 1.0);
    EXPECT_DOUBLE_EQ(comm.allreduce_min(mine), 0.0);
  });
}

TEST_P(CommSizes, VectorAllreduce) {
  const int n = GetParam();
  World world(n);
  world.run([&](Comm& comm) {
    std::vector<double> mine{1.0, static_cast<double>(comm.rank()), -1.0};
    const auto out = comm.allreduce_sum(mine);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_DOUBLE_EQ(out[0], n);
    EXPECT_DOUBLE_EQ(out[1], n * (n - 1) / 2.0);
    EXPECT_DOUBLE_EQ(out[2], -n);
  });
}

TEST_P(CommSizes, ReduceToNonzeroRoot) {
  const int n = GetParam();
  const int root = n - 1;
  World world(n);
  world.run([&](Comm& comm) {
    std::vector<double> mine{static_cast<double>(comm.rank() + 1)};
    const auto out = comm.reduce(
        mine, root, [](std::span<double> acc, std::span<const double> in) {
          acc[0] += in[0];
        });
    if (comm.rank() == root) {
      EXPECT_DOUBLE_EQ(out[0], n * (n + 1) / 2.0);
    }
  });
}

TEST_P(CommSizes, BroadcastFromEveryRoot) {
  const int n = GetParam();
  World world(n);
  world.run([&](Comm& comm) {
    for (int root = 0; root < n; ++root) {
      std::vector<std::byte> data;
      if (comm.rank() == root) {
        data = {std::byte{7}, std::byte{static_cast<unsigned char>(root)}};
      }
      const auto out = comm.broadcast(root, data);
      ASSERT_EQ(out.size(), 2u);
      EXPECT_EQ(out[1], std::byte{static_cast<unsigned char>(root)});
    }
  });
}

TEST_P(CommSizes, GatherCollectsByRank) {
  const int n = GetParam();
  World world(n);
  world.run([&](Comm& comm) {
    const auto payload =
        std::vector<std::byte>{std::byte{static_cast<unsigned char>(comm.rank())}};
    auto all = comm.gather(0, payload);
    if (comm.rank() == 0) {
      ASSERT_EQ(all.size(), static_cast<size_t>(n));
      for (int r = 0; r < n; ++r) {
        ASSERT_EQ(all[static_cast<size_t>(r)].size(), 1u);
        EXPECT_EQ(all[static_cast<size_t>(r)][0],
                  std::byte{static_cast<unsigned char>(r)});
      }
    } else {
      EXPECT_TRUE(all.empty());
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CommSizes,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16));

TEST(Comm, StressManyCollectives) {
  World world(8);
  world.run([](Comm& comm) {
    Xoshiro256 rng(11, static_cast<uint64_t>(comm.rank()));
    double acc = 0.0;
    for (int iter = 0; iter < 50; ++iter) {
      acc += comm.allreduce_sum(rng.uniform());
      comm.barrier();
    }
    // All ranks agree on the accumulated reduction results.
    const double max = comm.allreduce_max(acc);
    const double min = comm.allreduce_min(acc);
    EXPECT_DOUBLE_EQ(max, min);
  });
}

}  // namespace
}  // namespace hia
