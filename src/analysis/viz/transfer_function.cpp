#include "analysis/viz/transfer_function.hpp"

#include <cmath>

#include "util/error.hpp"

namespace hia {

TransferFunction::TransferFunction(std::vector<ControlPoint> points)
    : points_(std::move(points)) {
  HIA_REQUIRE(points_.size() >= 2, "need at least two control points");
  for (size_t i = 0; i < points_.size(); ++i) {
    HIA_REQUIRE(points_[i].color.a >= 0.0f && points_[i].color.a <= 1.0f,
                "control-point opacity must lie in [0, 1]");
    HIA_REQUIRE(std::isfinite(points_[i].value),
                "control-point values must be finite");
    if (i > 0) {
      HIA_REQUIRE(points_[i].value > points_[i - 1].value,
                  "control points must be strictly ascending");
    }
  }
}

TransferFunction TransferFunction::flame(double lo, double hi) {
  const double d = hi - lo;
  return TransferFunction({
      {lo, {0.00f, 0.00f, 0.05f, 0.000f}},
      {lo + 0.35 * d, {0.15f, 0.00f, 0.20f, 0.004f}},
      {lo + 0.55 * d, {0.80f, 0.10f, 0.05f, 0.060f}},
      {lo + 0.75 * d, {1.00f, 0.55f, 0.05f, 0.200f}},
      {hi, {1.00f, 0.95f, 0.75f, 0.550f}},
  });
}

TransferFunction TransferFunction::grayscale(double lo, double hi) {
  return TransferFunction({
      {lo, {0.0f, 0.0f, 0.0f, 0.0f}},
      {hi, {1.0f, 1.0f, 1.0f, 0.4f}},
  });
}

TransferTable::TransferTable(const TransferFunction& tf, double step,
                             double reference_step) {
  HIA_REQUIRE(step > 0.0 && reference_step > 0.0 &&
                  std::isfinite(step / reference_step),
              "ray steps must be positive");
  const double exponent = step / reference_step;
  if (exponent != 1.0) {
    power_.resize(kKnots);
    slope_.resize(kKnots);
    for (size_t j = 0; j < kKnots; ++j) {
      const double x0 = static_cast<double>(j) / double{kKnots};
      const double x1 = static_cast<double>(j + 1) / double{kKnots};
      power_[j] = std::pow(x0, exponent);
      slope_[j] = (std::pow(x1, exponent) - power_[j]) * double{kKnots};
    }
  }

  const auto& points = tf.points();
  lo_ = points.front().value;
  hi_ = points.back().value;
  bin_scale_ = double{kBins} / (hi_ - lo_);
  front_ = points.front().color;
  front_.a = corrected_alpha(front_.a);
  back_ = points.back().color;
  back_.a = corrected_alpha(back_.a);

  for (size_t i = 0; i < points.size(); ++i) {
    const TransferFunction::ControlPoint& a = points[i];
    Segment s{a.value, 0.0, a.color, {}};
    if (i + 1 < points.size()) {
      const TransferFunction::ControlPoint& b = points[i + 1];
      s.width = b.value - a.value;
      s.delta = {b.color.r - a.color.r, b.color.g - a.color.g,
                 b.color.b - a.color.b, b.color.a - a.color.a};
    }
    segments_.push_back(s);
  }
  // A value that lands in bin b lies above the lower edge of bin b - 1
  // whatever the rounding of its bin index, so the segment holding that
  // edge is a safe start for lookup's forward scan.
  const double bin_width = (hi_ - lo_) / double{kBins};
  for (size_t b = 0; b < kBins; ++b) {
    const double edge = lo_ + (static_cast<double>(b) - 1.0) * bin_width;
    size_t s = 0;
    while (s + 2 < segments_.size() && segments_[s + 1].value < edge) ++s;
    first_segment_[b] = s;
  }
}

}  // namespace hia
