// Self-tests of the benchmark's own arithmetic and output checks. Each
// output check is fed a right and a wrong reference: a check that cannot
// fail would let a broken program through.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/viz/image.hpp"
#include "checks.hpp"
#include "common.hpp"
#include "core/topology_pipeline.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "self-test failed (selftest.cpp:%d): %s\n", line, what);
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> iota(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_percentiles() {
  EXPECT(near(median({3, 1, 2}), 2.0));
  EXPECT(near(median({4, 1, 3, 2}), 2.5));
  EXPECT(median({}) == 0.0);
  EXPECT(near(percentile(iota(100), 900), 90.0));
  EXPECT(near(percentile(iota(100), 500), 50.0));
  EXPECT(near(percentile(iota(1000), 990), 990.0));
  // Ten samples beyond: p90 needs 100 samples, p99 1000, p99.9 10000.
  EXPECT(samples_beyond(100, 900) == 10);
  EXPECT(samples_beyond(99, 900) == 9);
  EXPECT(tail_permille(19) == 0);
  EXPECT(tail_permille(20) == 500);
  EXPECT(tail_permille(99) == 500);
  EXPECT(tail_permille(100) == 900);
  EXPECT(tail_permille(999) == 900);
  EXPECT(tail_permille(1000) == 990);
  EXPECT(tail_permille(10000) == 999);
}

void test_self_time() {
  // Children overlap each other and stick out of the parent on both sides.
  EXPECT(near(self_time({0, 10}, {{1, 3}, {2, 5}, {7, 8}, {9, 12}}), 4.0));
  EXPECT(near(self_time({0, 10}, {{-2, 1}}), 9.0));
  EXPECT(near(self_time({0, 10}, {}), 10.0));
  EXPECT(near(self_time({0, 10}, {{0, 10}}), 0.0));

  // Nesting is per thread: a span on another thread is never a child.
  const std::vector<Span> spans = {
      {"a", 1, 0, 10, 0}, {"b", 1, 1, 4, 0}, {"c", 1, 2, 3, 0},
      {"d", 2, 5, 6, 0},  {"e", 3, 0, 10, 1}};
  const auto selfs = self_times(spans);
  EXPECT(near(selfs.at("a")[0], 6.0));  // 10 - b(3) - d(1)
  EXPECT(near(selfs.at("b")[0], 2.0));  // 3 - c(1)
  EXPECT(near(selfs.at("c")[0], 1.0));
  EXPECT(near(selfs.at("d")[0], 1.0));
  EXPECT(near(selfs.at("e")[0], 10.0));
}

void test_conservation() {
  std::vector<hia::TaskRecord> records(3);
  for (auto& r : records) r.tenant = 1;
  records[2].outcome = hia::TaskOutcome::kShed;  // terminal, still counted
  EXPECT(check_conservation(records, {{1, 3}}, {{1, 3}}).empty());
  EXPECT(!check_conservation(records, {{1, 3}}, {{1, 4}}).empty());
  EXPECT(!check_conservation(records, {{1, 2}}, {{1, 3}}).empty());
  EXPECT(!check_conservation(records, {{1, 3}, {2, 1}}, {{1, 3}, {2, 1}})
              .empty());
}

void test_stats_checks() {
  hia::DescriptiveModel m;
  m.count = 1000;
  m.mean = 2.5;
  m.min = -1.0;
  m.max = 7.0;
  m.variance = 1.5;
  m.stddev = std::sqrt(1.5);
  m.skewness = 0.0;
  m.kurtosis_excess = -0.3;
  const std::vector<hia::DescriptiveModel> ref{m, m};
  EXPECT(check_stats(ref, ref).empty());
  auto wrong = ref;
  wrong[1].mean *= 1.0 + 1e-6;
  EXPECT(!check_stats(wrong, ref).empty());
  wrong = ref;
  wrong[0].count += 1;
  EXPECT(!check_stats(wrong, ref).empty());
  wrong = ref;
  wrong[0].skewness = 1e-6;
  EXPECT(!check_stats(wrong, ref).empty());
  auto rounding = ref;  // combine-order rounding stays within tolerance
  rounding[0].variance *= 1.0 + 1e-13;
  rounding[1].skewness = 1e-14;
  EXPECT(check_stats(rounding, ref).empty());
  EXPECT(!check_stats({m}, ref).empty());
  EXPECT(check_stats_count(ref, 2, 1000).empty());
  EXPECT(!check_stats_count(ref, 2, 999).empty());
  EXPECT(!check_stats_count(ref, 3, 1000).empty());
}

void test_tree_and_image_checks() {
  hia::TreeSummary tree;
  tree.step = 5;
  tree.tree_nodes = 3;
  const auto blob = tree.serialize();
  EXPECT(check_tree(blob, 5).empty());
  EXPECT(!check_tree(blob, 6).empty());
  tree.tree_nodes = 0;
  EXPECT(!check_tree(tree.serialize(), 5).empty());
  EXPECT(!check_tree(std::vector<std::byte>(3), 5).empty());

  hia::Image image(4, 4);
  auto to_bytes = [](const hia::Image& img) {
    const auto flat = hia::serialize_image(img);
    std::vector<std::byte> out(flat.size() * sizeof(double));
    std::memcpy(out.data(), flat.data(), out.size());
    return out;
  };
  EXPECT(!check_image(to_bytes(image)).empty());  // fully transparent
  image.at(1, 2).a = 0.5f;
  EXPECT(check_image(to_bytes(image)).empty());
  EXPECT(!check_image({}).empty());
}

void test_block_sum() {
  std::vector<double> data{1, 2, 3, -4};
  const BlockSum sum = block_sum(data);
  EXPECT(check_block_sum(encode_block_sum(sum), sum).empty());
  std::swap(data[0], data[1]);  // same sum, different order
  EXPECT(!check_block_sum(encode_block_sum(block_sum(data)), sum).empty());
  data = {1, 2, 3, -4.5};
  EXPECT(!check_block_sum(encode_block_sum(block_sum(data)), sum).empty());
  EXPECT(!check_block_sum({}, sum).empty());
}

}  // namespace

int run_self_tests() {
  g_failures = 0;
  test_percentiles();
  test_self_time();
  test_conservation();
  test_stats_checks();
  test_tree_and_image_checks();
  test_block_sum();
  return g_failures;
}

}  // namespace perfbench
