// Fixed-range histogram with parallel combination — used for transfer-
// function design in the renderer and as an additional mergeable statistic.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "util/error.hpp"

namespace hia {

class Histogram {
 public:
  Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
    HIA_REQUIRE(hi > lo, "histogram range must be non-empty");
    HIA_REQUIRE(bins > 0, "histogram needs at least one bin");
    counts_.assign(static_cast<size_t>(bins), 0);
  }

  void update(double x) {
    if (x < lo_) {
      ++underflow_;
    } else if (x >= hi_) {
      ++overflow_;
    } else {
      const auto bin = static_cast<size_t>((x - lo_) / (hi_ - lo_) *
                                           static_cast<double>(counts_.size()));
      ++counts_[std::min(bin, counts_.size() - 1)];
    }
    ++total_;
  }

  void update(std::span<const double> xs) {
    for (const double x : xs) update(x);
  }

  /// Merges `other` (must have identical binning).
  void combine(const Histogram& other) {
    HIA_REQUIRE(other.lo_ == lo_ && other.hi_ == hi_ &&
                    other.counts_.size() == counts_.size(),
                "histograms must share binning to combine");
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    underflow_ += other.underflow_;
    overflow_ += other.overflow_;
    total_ += other.total_;
  }

  [[nodiscard]] int bins() const { return static_cast<int>(counts_.size()); }
  [[nodiscard]] uint64_t count(int bin) const {
    return counts_[static_cast<size_t>(bin)];
  }
  [[nodiscard]] uint64_t underflow() const { return underflow_; }
  [[nodiscard]] uint64_t overflow() const { return overflow_; }
  [[nodiscard]] uint64_t total() const { return total_; }
  [[nodiscard]] double lo() const { return lo_; }
  [[nodiscard]] double hi() const { return hi_; }

  /// Value below which `q` of the in-range mass lies (piecewise-constant
  /// quantile estimate). q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// Flat encoding for transport:
  /// [lo, hi, bins, underflow, overflow, counts...].
  [[nodiscard]] std::vector<double> serialize() const;
  /// Decodes a peer's payload; fails only with hia::Error.
  static Histogram deserialize(std::span<const double> data);

 private:
  double lo_, hi_;
  std::vector<uint64_t> counts_;
  uint64_t underflow_ = 0, overflow_ = 0, total_ = 0;
};

}  // namespace hia
