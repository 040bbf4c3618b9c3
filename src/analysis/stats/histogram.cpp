#include "analysis/stats/histogram.hpp"

#include <algorithm>

#include "util/numeric.hpp"

namespace hia {

double Histogram::quantile(double q) const {
  HIA_REQUIRE(q >= 0.0 && q <= 1.0, "quantile fraction must be in [0, 1]");
  uint64_t in_range = 0;
  for (const uint64_t c : counts_) in_range += c;
  if (in_range == 0) return lo_;

  const double target = q * static_cast<double>(in_range);
  double cum = 0.0;
  const double w = (hi_ - lo_) / static_cast<double>(counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target) {
      // Linear interpolation within the bin.
      const double frac =
          counts_[i] == 0
              ? 0.0
              : (target - cum) / static_cast<double>(counts_[i]);
      return lo_ + w * (static_cast<double>(i) + frac);
    }
    cum = next;
  }
  return hi_;
}

std::vector<double> Histogram::serialize() const {
  std::vector<double> out = {lo_, hi_, static_cast<double>(counts_.size()),
                             static_cast<double>(underflow_),
                             static_cast<double>(overflow_)};
  out.insert(out.end(), counts_.begin(), counts_.end());
  return out;
}

Histogram Histogram::deserialize(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 5, "histogram payload too short");
  const size_t bins = rounded_below(data[2], data.size() - 5 + 1,
                                    "histogram bin count exceeds payload");
  HIA_REQUIRE(data.size() == 5 + bins, "histogram payload size mismatch");
  Histogram h(data[0], data[1], static_cast<int>(bins));
  // Counts arrive from peers: each must round into the range a double
  // carries exactly.
  const auto count = [](double v) {
    return rounded_below(v, size_t{1} << 53, "histogram count out of range");
  };
  h.underflow_ = count(data[3]);
  h.overflow_ = count(data[4]);
  h.total_ = h.underflow_ + h.overflow_;
  for (size_t b = 0; b < bins; ++b) {
    h.counts_[b] = count(data[5 + b]);
    h.total_ += h.counts_[b];
  }
  return h;
}

}  // namespace hia
