// Bivariate single-pass statistics: means, centered second-order aggregates
// (including the cross term), pairwise combination, and derived covariance/
// Pearson correlation/least-squares fit.
//
// This implements the paper's stated future-work extension ("a hybrid
// in-situ/in-transit auto-correlative statistical technique"): the same
// learn/derive split as the descriptive statistics, applied to variable
// pairs (e.g. temperature vs. heat-release rate).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace hia {

/// Primary bivariate model: single-pass, numerically stable.
class CovarianceAccumulator {
 public:
  /// Single-pass update with one pair. The per-pair reference that
  /// learn() is tested against.
  void update(double x, double y);

  /// Learns paired runs (equal lengths) into this accumulator. Each chunk
  /// of at most kLearnChunk pairs takes two exact passes (the two means;
  /// then the centred sums dx^2, dy^2 and dx*dy) and is merged with
  /// combine().
  void learn(std::span<const double> x, std::span<const double> y);
  static constexpr size_t kLearnChunk = 1024;

  void combine(const CovarianceAccumulator& other);

  [[nodiscard]] uint64_t count() const { return n_; }
  [[nodiscard]] double mean_x() const { return mean_x_; }
  [[nodiscard]] double mean_y() const { return mean_y_; }
  [[nodiscard]] double m2_x() const { return m2x_; }
  [[nodiscard]] double m2_y() const { return m2y_; }
  [[nodiscard]] double c2() const { return c2_; }  // sum (x-mx)(y-my)

  static constexpr int kPackedSize = 6;
  void pack(double out[kPackedSize]) const;
  static CovarianceAccumulator unpack(const double in[kPackedSize]);

 private:
  uint64_t n_ = 0;
  double mean_x_ = 0.0, mean_y_ = 0.0;
  double m2x_ = 0.0, m2y_ = 0.0, c2_ = 0.0;
};

struct CorrelationModel {
  uint64_t count = 0;
  double covariance = 0.0;  // unbiased
  double pearson_r = 0.0;
  double slope = 0.0;       // least-squares y = slope x + intercept
  double intercept = 0.0;
};

/// `derive` for the bivariate model.
CorrelationModel derive_correlation(const CovarianceAccumulator& primary);

/// `learn` over paired observations (spans must have equal length).
CovarianceAccumulator correlation_learn(std::span<const double> x,
                                        std::span<const double> y);

/// Lag-`lag` autocorrelation of a series via the bivariate machinery:
/// correlates series[i] with series[i + lag].
CorrelationModel autocorrelation(std::span<const double> series, size_t lag);

}  // namespace hia
