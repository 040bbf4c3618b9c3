// Mergeable log-bucketed histograms (the distribution companion to the
// counter registry's totals). The paper's headline artifacts — Fig. 5
// queue waits, Fig. 6 phase splits, Table II transfer costs by message
// size — are distributions, so the benches need p50/p90/p99, not means.
//
// Every histogram shares one fixed geometric bucket layout (8 buckets per
// octave from kMinTrackable up to kMaxTrackable, plus an underflow and an
// overflow bucket). A shared layout makes merging a bucket-wise add:
// associative, commutative, and loss-free, so per-thread shards, per-rank
// summaries, and baseline files all combine exactly.
//
// Recording is always on (like counters) and thread-sharded like the span
// tracer's rings: each thread writes its own shard under an uncontended
// mutex, so record() never blocks on other threads and never allocates
// after the first touch. snapshot() merges the shards.
//
// Hot paths cache the lookup:
//   static hia::obs::Histogram& h = hia::obs::histogram("staging_wait_s");
//   h.record(wait_seconds);
//
// Quantiles come with honest error bars: quantile(q) interpolates inside
// the bucket holding rank q, and quantile_bounds(q) returns that bucket's
// [lower, upper] — the true q-quantile of the recorded values always lies
// within it (tightened by the exact min/max), so the relative error is
// bounded by the bucket growth factor 2^(1/8)-1 ≈ 9.05%.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/labels.hpp"

namespace hia::obs {

// ---- Shared bucket layout ----

/// Buckets per octave (factor-of-2 range). Growth factor = 2^(1/8).
inline constexpr int kHistogramSubBuckets = 8;
/// Values at or below this land in the underflow bucket (index 0).
inline constexpr double kHistogramMinTrackable = 1e-9;
/// Values above this land in the overflow bucket (the last index).
inline constexpr double kHistogramMaxTrackable = 1e12;  // ~70 octaves
/// Total bucket count: underflow + 8/octave over [1e-9, 1e12] + overflow.
int histogram_num_buckets();
/// Inclusive upper bound of bucket `index` (+infinity for the overflow
/// bucket). Bucket i covers (upper_bound(i-1), upper_bound(i)].
double histogram_bucket_upper_bound(int index);
/// Index of the bucket that covers `value` (NaN counts as underflow).
int histogram_bucket_index(double value);

// ---- Merged view ----

/// A merged, point-in-time copy of a histogram. Plain data: safe to stash,
/// ship, or merge() with any other snapshot (same global layout).
struct HistogramSnapshot {
  std::string name;
  Labels labels;  // empty() for the classic unlabeled series
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // meaningful only when count > 0
  double max = 0.0;
  std::vector<uint64_t> buckets;  // size histogram_num_buckets(), non-cumulative

  /// Estimated q-quantile (q in [0, 1]): linear interpolation inside the
  /// covering bucket, clamped to the exact [min, max]. 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  /// The covering bucket's [lower, upper] for the q-quantile, tightened by
  /// the exact min/max: the true quantile of the recorded values is always
  /// inside. {0, 0} when empty.
  struct Bounds {
    double lower = 0.0;
    double upper = 0.0;
  };
  [[nodiscard]] Bounds quantile_bounds(double q) const;
  /// [lower, upper] of one bucket, tightened by the exact min/max.
  [[nodiscard]] Bounds bucket_bounds(int bucket) const;
};

/// Bucket-wise merge. Associative and commutative; merging with an empty
/// snapshot is the identity.
HistogramSnapshot merge(const HistogramSnapshot& a, const HistogramSnapshot& b);

// ---- Recording ----

/// One named histogram. Never destroyed once registered, so references
/// stay valid for the process lifetime.
class Histogram {
 public:
  /// Records one observation. Thread-sharded: uncontended in steady state.
  void record(double value);
  /// Merged view across every thread's shard.
  [[nodiscard]] HistogramSnapshot snapshot() const;
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Labels& labels() const { return labels_; }

  struct Shard;  // implementation detail, defined in histogram.cpp

 private:
  friend Histogram& histogram(const std::string& name, const Labels& labels);
  friend void reset_histograms();
  Histogram(std::string name, Labels labels, size_t id);

  Shard& local_shard();

  const std::string name_;
  const Labels labels_;
  const size_t id_;  // index into the per-thread shard cache
  mutable std::vector<Shard*> shards_;  // guarded by shards_mutex_ (in .cpp)
};

/// Returns the histogram registered under `name`, creating it on first
/// use. Names are snake_case with a unit suffix (`staging_queue_wait_s`,
/// `dart_get_wire_bytes`).
Histogram& histogram(const std::string& name);

/// Labeled variant: each distinct (name, labels) pair is its own
/// histogram; `histogram(name)` is exactly `histogram(name, Labels{})`.
Histogram& histogram(const std::string& name, const Labels& labels);

/// Name-sorted snapshot of every *unlabeled* registered histogram (the
/// pre-label surface: RunSummary's "histograms" table, existing reports).
std::vector<HistogramSnapshot> histograms_snapshot();

/// (name, labels)-sorted snapshot of every *labeled* histogram.
std::vector<HistogramSnapshot> labeled_histograms_snapshot();

/// Zeroes every registered histogram (all shards). Registrations persist.
void reset_histograms();

}  // namespace hia::obs
