// Numerically stable, single-pass computation of moment-based statistics,
// following the update and pairwise-combination formulas of Bennett/Pébay
// et al. [21]–[23] (the algorithms behind the VTK parallel statistics
// toolkit deployed by the paper).
//
// The accumulator carries cardinality, extrema, mean, and centered
// aggregates M2..M4 — exactly the quantities the paper says the `learn`
// stage must exchange "to assemble a global model".
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>

namespace hia {

/// Primary statistical model of one variable (the output of `learn`).
class MomentAccumulator {
 public:
  /// Single-pass update with one observation. The per-value reference
  /// that learn() is tested against.
  void update(double x);

  /// Learns a contiguous run of observations into this accumulator. Each
  /// chunk of at most kLearnChunk values takes two exact passes (sum and
  /// extrema, giving the chunk mean; then the centred power sums) and is
  /// merged with combine(), so no value pays a division or waits on the
  /// previous one.
  void learn(std::span<const double> values);
  static constexpr size_t kLearnChunk = 1024;

  /// Pairwise combination: merges `other` into this accumulator using the
  /// communication-free parallel formulas (numerically stable, order-
  /// independent up to roundoff).
  void combine(const MomentAccumulator& other);

  [[nodiscard]] uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return mean_; }
  [[nodiscard]] double m2() const { return m2_; }
  [[nodiscard]] double m3() const { return m3_; }
  [[nodiscard]] double m4() const { return m4_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }

  /// Serialization to a fixed-size flat array (for reductions & staging).
  static constexpr int kPackedSize = 7;
  void pack(double out[kPackedSize]) const;
  static MomentAccumulator unpack(const double in[kPackedSize]);

  bool operator==(const MomentAccumulator&) const = default;

 private:
  uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double m3_ = 0.0;
  double m4_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Derived descriptive statistics (the output of `derive`).
struct DescriptiveModel {
  uint64_t count = 0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  double variance = 0.0;        // unbiased (n-1 denominator)
  double stddev = 0.0;
  double skewness = 0.0;        // g1, biased sample skewness
  double kurtosis_excess = 0.0; // g2 = m4/m2^2 - 3
};

/// `derive`: maps the primary model to descriptive statistics.
DescriptiveModel derive_descriptive(const MomentAccumulator& primary);

}  // namespace hia
