// Tests for the I/O layer: BP-lite container integrity, file-per-process
// checkpointing, and the OST bandwidth model's Table I property (I/O time
// independent of core count once the OST pool saturates).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <mutex>
#include <string>

#include "io/bp_lite.hpp"
#include "io/checkpoint.hpp"
#include "io/ost_model.hpp"
#include "runtime/comm.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

/// `base` suffixed with this process's id: concurrent test_io processes
/// share TempDir(), and a checkpoint or container file of one must never
/// be read, overwritten or removed by another.
std::string unique_name(const std::string& base) {
  return base + "_" + std::to_string(::getpid());
}

TEST(BpLite, SerializeParseRoundTrip) {
  std::vector<BpEntry> entries;
  entries.push_back({"T", Box3{{0, 0, 0}, {2, 2, 2}}, {1, 2, 3, 4, 5, 6, 7, 8}});
  entries.push_back({"Y_H2", Box3{{2, 0, 0}, {3, 1, 1}}, {0.5}});
  entries.push_back({"empty", Box3{}, {}});

  const auto bytes = bp_serialize(entries);
  const auto parsed = bp_parse(bytes);
  ASSERT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed[0].name, "T");
  EXPECT_EQ(parsed[0].box, entries[0].box);
  EXPECT_EQ(parsed[0].values, entries[0].values);
  EXPECT_EQ(parsed[1].values[0], 0.5);
  EXPECT_TRUE(parsed[2].values.empty());
}

TEST(BpLite, RejectsCorruptInput) {
  std::vector<BpEntry> entries{{"x", Box3{{0, 0, 0}, {1, 1, 1}}, {1.0}}};
  auto bytes = bp_serialize(entries);

  // Bad magic.
  auto bad = bytes;
  bad[0] = std::byte{'X'};
  EXPECT_THROW(bp_parse(bad), Error);

  // Truncated payload.
  auto trunc = bytes;
  trunc.resize(trunc.size() - 4);
  EXPECT_THROW(bp_parse(trunc), Error);

  // Trailing garbage.
  auto extra = bytes;
  extra.push_back(std::byte{0});
  EXPECT_THROW(bp_parse(extra), Error);

  // Too short for the header.
  EXPECT_THROW(bp_parse(std::vector<std::byte>(3)), Error);
}

TEST(BpLite, FileRoundTrip) {
  const std::string path =
      ::testing::TempDir() + "/" + unique_name("hia_bp_test") + ".bp";
  std::vector<BpEntry> entries;
  Xoshiro256 rng(5);
  BpEntry e{"field", Box3{{0, 0, 0}, {4, 4, 4}}, {}};
  for (int i = 0; i < 64; ++i) e.values.push_back(rng.normal());
  entries.push_back(e);
  bp_write_file(path, entries);
  const auto parsed = bp_read_file(path);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0].values, e.values);
  std::remove(path.c_str());
}

TEST(BpLite, MissingFileThrows) {
  EXPECT_THROW(bp_read_file("/nonexistent/dir/file.bp"), Error);
}

TEST(Checkpoint, WriteReadAllVariables) {
  S3DParams p;
  p.grid = GlobalGrid{{16, 8, 8}, {1.0, 0.5, 0.5}};
  p.ranks_per_axis = {1, 1, 1};
  S3DRank sim(p, 0);
  sim.initialize();

  const std::string dir = ::testing::TempDir();
  const auto result = write_checkpoint(sim, dir, unique_name("ckpt_test"));
  EXPECT_EQ(result.bytes, sim.solution_bytes());
  EXPECT_GT(result.measured_seconds, 0.0);

  const auto entries = read_checkpoint(result.path);
  // 14 variables + the restart metadata entry.
  ASSERT_EQ(entries.size(), static_cast<size_t>(kNumVariables) + 1);
  EXPECT_EQ(entries.back().name, "__meta");
  // Entry order matches the Variable enum; values match the live fields.
  for (int v = 0; v < kNumVariables; ++v) {
    EXPECT_EQ(entries[static_cast<size_t>(v)].name,
              kVariableNames[static_cast<size_t>(v)]);
    EXPECT_EQ(entries[static_cast<size_t>(v)].values,
              sim.field(static_cast<Variable>(v)).pack_owned());
  }
  std::remove(result.path.c_str());
}

TEST(Checkpoint, RestartReproducesUninterruptedRun) {
  S3DParams p;
  p.grid = GlobalGrid{{16, 12, 12}, {1.0, 0.75, 0.75}};
  p.ranks_per_axis = {2, 1, 1};
  Decomposition d(p.grid, p.ranks_per_axis);
  const std::string dir = ::testing::TempDir();

  // Uninterrupted: 5 steps. Interrupted: 3 steps, checkpoint, restore into
  // fresh state, 2 more steps. Fields must match bit-for-bit.
  std::vector<std::vector<double>> uninterrupted(
      static_cast<size_t>(d.num_ranks()));
  std::vector<std::string> ckpts(static_cast<size_t>(d.num_ranks()));
  {
    World world(d.num_ranks());
    std::mutex m;
    world.run([&](Comm& comm) {
      S3DRank sim(p, comm.rank());
      sim.initialize();
      for (int s = 0; s < 3; ++s) sim.advance(comm);
      const auto result =
          write_checkpoint(sim, dir, unique_name("restart_test"));
      for (int s = 0; s < 2; ++s) sim.advance(comm);
      std::lock_guard lock(m);
      ckpts[static_cast<size_t>(comm.rank())] = result.path;
      uninterrupted[static_cast<size_t>(comm.rank())] =
          sim.field(Variable::kTemperature).pack_owned();
    });
  }
  {
    World world(d.num_ranks());
    world.run([&](Comm& comm) {
      S3DRank sim(p, comm.rank());  // fresh, never initialized
      restore_checkpoint(sim, ckpts[static_cast<size_t>(comm.rank())]);
      EXPECT_EQ(sim.step(), 3);
      EXPECT_NEAR(sim.time(), 3 * p.dt, 1e-15);
      for (int s = 0; s < 2; ++s) sim.advance(comm);
      const auto mine = sim.field(Variable::kTemperature).pack_owned();
      const auto& ref =
          uninterrupted[static_cast<size_t>(comm.rank())];
      ASSERT_EQ(mine.size(), ref.size());
      for (size_t i = 0; i < mine.size(); ++i) {
        ASSERT_EQ(mine[i], ref[i]) << "voxel " << i;
      }
    });
  }
  for (const auto& f : ckpts) std::remove(f.c_str());
}

TEST(Checkpoint, RestoreRejectsWrongDecomposition) {
  S3DParams p;
  p.grid = GlobalGrid{{16, 12, 12}, {1.0, 0.75, 0.75}};
  p.ranks_per_axis = {1, 1, 1};
  S3DRank sim(p, 0);
  sim.initialize();
  const auto result =
      write_checkpoint(sim, ::testing::TempDir(), unique_name("wrong_decomp"));

  S3DParams p2 = p;
  p2.ranks_per_axis = {2, 1, 1};
  S3DRank other(p2, 0);
  EXPECT_THROW(restore_checkpoint(other, result.path), Error);
  std::remove(result.path.c_str());
}

TEST(Checkpoint, BytesMatchGridAccounting) {
  GlobalGrid grid{{100, 49, 43}, {1, 1, 1}};
  EXPECT_EQ(checkpoint_bytes(grid),
            static_cast<size_t>(100) * 49 * 43 * 14 * 8);
}

TEST(OstModel, BandwidthSaturatesAtOstCount) {
  OstParams p;
  p.num_osts = 100;
  p.ost_bandwidth_Bps = 1e9;
  OstModel model(p);
  EXPECT_DOUBLE_EQ(model.aggregate_bandwidth(10), 1e10);
  EXPECT_DOUBLE_EQ(model.aggregate_bandwidth(100), 1e11);
  EXPECT_DOUBLE_EQ(model.aggregate_bandwidth(5000), 1e11);  // capped
}

TEST(OstModel, TableOneCoreCountIndependence) {
  // The paper's observation: with constant total data, I/O times do not
  // depend noticeably on the number of cores (both configs exceed the OST
  // count).
  OstModel model;
  const size_t bytes = static_cast<size_t>(98.5 * (1ull << 30));
  const double t4480 = model.write_seconds(bytes, 4480);
  const double t8960 = model.write_seconds(bytes, 8960);
  EXPECT_NEAR(t4480, t8960, 1e-9);

  // And the paper's actual scale: ~3.3 s to write 98.5 GB.
  EXPECT_GT(t4480, 0.2);
  EXPECT_LT(t4480, 30.0);
}

TEST(OstModel, ReadSlowerThanWrite) {
  OstModel model;
  const size_t bytes = 1ull << 30;
  EXPECT_GT(model.read_seconds(bytes, 512), model.write_seconds(bytes, 512));
}

TEST(OstModel, FewWritersAreBandwidthLimited) {
  OstParams p;
  p.num_osts = 672;
  OstModel model(p);
  const size_t bytes = 1ull << 30;
  // 1 writer uses one OST; 672 writers use all of them.
  EXPECT_GT(model.write_seconds(bytes, 1),
            600.0 * model.write_seconds(bytes, 672) /
                1.5);  // within open-cost slack
}

TEST(OstModel, RejectsInvalidParameters) {
  OstParams p;
  p.num_osts = 0;
  EXPECT_THROW(OstModel{p}, Error);
  OstModel ok;
  EXPECT_THROW((void)ok.write_seconds(100, 0), Error);
}

}  // namespace
}  // namespace hia
