// Unit tests for the util library: logging, timing, RNG, vec3,
// and table formatting.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <thread>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"
#include "util/vec3.hpp"

namespace hia {
namespace {

TEST(Error, RequireThrowsWithContext) {
  try {
    HIA_REQUIRE(1 == 2, "custom message");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("custom message"), std::string::npos);
  }
}

TEST(Error, RequirePassesSilently) {
  EXPECT_NO_THROW(HIA_REQUIRE(2 + 2 == 4, "should not fire"));
}

TEST(Log, LevelFiltering) {
  std::vector<std::string> lines;
  log::set_sink([&](const std::string& s) { lines.push_back(s); });
  log::set_level(log::Level::kWarn);
  HIA_LOG_INFO("test", "dropped %d", 1);
  HIA_LOG_WARN("test", "kept %d", 2);
  HIA_LOG_ERROR("test", "kept %d", 3);
  log::set_sink(nullptr);
  log::set_level(log::Level::kWarn);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("[WARN][test] kept 2"), std::string::npos);
  EXPECT_NE(lines[1].find("[ERROR][test] kept 3"), std::string::npos);
}

TEST(Log, FormatsArguments) {
  std::vector<std::string> lines;
  log::set_sink([&](const std::string& s) { lines.push_back(s); });
  log::set_level(log::Level::kDebug);
  HIA_LOG_DEBUG("fmt", "%s=%0.2f", "x", 3.14159);
  log::set_sink(nullptr);
  log::set_level(log::Level::kWarn);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("x=3.14"), std::string::npos);
}

TEST(Stopwatch, MeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = w.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 2.0);
}

TEST(Stopwatch, RestartResets) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double first = w.restart();
  EXPECT_GT(first, 0.0);
  // Generous slack: on the 1-core CI box a preemption between restart()
  // and seconds() can stretch this gap far past any tight bound.
  EXPECT_LT(w.seconds(), first + 2.0);
}

TEST(TimeAccumulator, Accumulates) {
  TimeAccumulator acc;
  acc.add(1.0);
  acc.add(3.0);
  acc.add(2.0);
  EXPECT_DOUBLE_EQ(acc.total(), 6.0);
  EXPECT_DOUBLE_EQ(acc.max(), 3.0);
  EXPECT_DOUBLE_EQ(acc.mean(), 2.0);
  EXPECT_EQ(acc.count(), 3);
  acc.reset();
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.total(), 0.0);
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(123, 5), b(123, 5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsAreIndependent) {
  Xoshiro256 a(123, 1), b(123, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMoments) {
  Xoshiro256 rng(99);
  double sum = 0.0, sum2 = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.03);
}

TEST(SplitMix, DistinctOutputs) {
  SplitMix64 sm(1);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(sm.next());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_DOUBLE_EQ((a + b).y, 7.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  const Vec3 c = a.cross(b);
  EXPECT_DOUBLE_EQ(c.x, -3.0);
  EXPECT_DOUBLE_EQ(c.y, 6.0);
  EXPECT_DOUBLE_EQ(c.z, -3.0);
  EXPECT_NEAR((Vec3{3, 4, 0}).norm(), 5.0, 1e-12);
  EXPECT_NEAR((Vec3{3, 4, 0}).normalized().norm(), 1.0, 1e-12);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name  | value |"), std::string::npos);
  EXPECT_NE(out.find("| alpha | 1     |"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsOverlongRows) {
  Table t({"only"});
  EXPECT_THROW(t.add_row({"a", "b"}), Error);
}

TEST(Format, Fixed) {
  EXPECT_EQ(fmt_fixed(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_fixed(-0.5, 1), "-0.5");
}

TEST(Format, Bytes) {
  EXPECT_EQ(fmt_bytes(512), "512.00 B");
  EXPECT_EQ(fmt_bytes(2048), "2.00 KB");
  EXPECT_EQ(fmt_bytes(87.02 * 1024 * 1024), "87.02 MB");
}

TEST(Format, Percent) {
  EXPECT_EQ(fmt_percent(4.33, 100.0), "4.33%");
  EXPECT_EQ(fmt_percent(1.0, 0.0), "n/a");
}

TEST(ParseCount, AcceptsWholeScaledCountsInRange) {
  int i = -7;
  EXPECT_TRUE(parse_count("16", &i));
  EXPECT_EQ(i, 16);
  EXPECT_TRUE(parse_count("4k", &i));
  EXPECT_EQ(i, 4096);
  EXPECT_TRUE(parse_count("2147483647", &i));
  EXPECT_EQ(i, 2147483647);
  size_t z = 0;
  EXPECT_TRUE(parse_count("2G", &z));
  EXPECT_EQ(z, size_t{2} << 30);
  EXPECT_TRUE(parse_count("4294967297", &z));
  EXPECT_EQ(z, 4294967297u);
  long l = 0;
  EXPECT_TRUE(parse_count("1.5k", &l));  // whole after scaling
  EXPECT_EQ(l, 1536);
  uint64_t u = 0;
  EXPECT_TRUE(parse_count("1e19", &u));
  EXPECT_EQ(u, 10000000000000000000ULL);
}

TEST(ParseCount, RejectsWhatACastWouldWrapOrTruncate) {
  int i = -7;
  for (const char* bad :
       {"4294967297", "2147483648", "1e12", "-5", "-1", "2.5", "nan", "inf",
        "-inf", "1e300", "", "k", "4x", "4kk", "1e400", "0.1k"}) {
    EXPECT_FALSE(parse_count(bad, &i)) << bad;
    EXPECT_EQ(i, -7) << bad;  // untouched on failure
  }
  size_t z = 3;
  EXPECT_FALSE(parse_count("1e30", &z));
  EXPECT_FALSE(parse_count("18446744073709551616", &z));
  EXPECT_FALSE(parse_count("0", &z, 1));  // below the caller's minimum
  EXPECT_EQ(z, 3u);
  long l = 0;
  EXPECT_FALSE(parse_count("9223372036854775808", &l));
}

}  // namespace
}  // namespace hia
