// Piecewise-linear transfer function mapping scalar values to color and
// opacity, in the style of the combustion visualizations of Fig. 2 (hot
// temperature regions glow, cold coflow is transparent), and the per-frame
// table the ray marcher reads it through.
#pragma once

#include <algorithm>
#include <array>
#include <vector>

#include "analysis/viz/image.hpp"

namespace hia {

class TransferFunction {
 public:
  struct ControlPoint {
    double value;
    Rgba color;  // straight (non-premultiplied) color + opacity in [0, 1]
  };

  /// Control points must be passed in ascending value order.
  explicit TransferFunction(std::vector<ControlPoint> points);

  [[nodiscard]] const std::vector<ControlPoint>& points() const {
    return points_;
  }

  /// "Flame" map over [lo, hi]: transparent blue–black, through red/orange,
  /// to bright yellow-white at the top of the range.
  static TransferFunction flame(double lo, double hi);

  /// Simple linear grayscale ramp over [lo, hi] with linear opacity.
  static TransferFunction grayscale(double lo, double hi);

 private:
  std::vector<ControlPoint> points_;
};

/// A transfer function with its opacity corrected for one ray step, built
/// once per frame. Colors stay exactly linear between the control points:
/// a uniform bin index over the control range finds the segment, and the
/// segment interpolates its two control points. The opacity correction
/// alpha' = 1 - (1 - alpha)^(step / reference_step), which keeps opacity
/// density invariant under step-size changes, reads a table of that power
/// over the transmittance 1 - alpha, interpolated linearly between knots
/// j / kKnots, so std::pow runs only while the table is built. At the
/// reference step the power is the identity and the table is skipped.
class TransferTable {
 public:
  TransferTable(const TransferFunction& tf, double step,
                double reference_step);

  /// Straight color at `v` (clamped to the control range) with corrected
  /// opacity. A NaN value yields NaN channels.
  [[nodiscard]] Rgba lookup(double v) const {
    if (v <= lo_) return front_;
    if (v >= hi_) return back_;
    // (v - lo_) * bin_scale_ lies in (0, kBins) for v inside the range;
    // the comparison also sends NaN to bin 0 before any conversion.
    const double bin = (v - lo_) * bin_scale_;
    size_t s = first_segment_[bin > 0.0 ? static_cast<size_t>(std::min(
                                               bin, double{kBins - 1}))
                                         : 0];
    while (segments_[s + 1].value < v) ++s;
    const Segment& a = segments_[s];
    const float t = static_cast<float>((v - a.value) / a.width);
    return Rgba{a.color.r + t * a.delta.r, a.color.g + t * a.delta.g,
                a.color.b + t * a.delta.b,
                corrected_alpha(a.color.a + t * a.delta.a)};
  }

 private:
  static constexpr size_t kBins = 256;
  static constexpr size_t kKnots = 1024;  // a power of two: exact knots

  struct Segment {
    double value;  // left control point (the last entry closes the range)
    double width;  // right minus left control value
    Rgba color;    // left control color
    Rgba delta;    // right minus left control color
  };

  [[nodiscard]] float corrected_alpha(float alpha) const {
    const double x = 1.0 - static_cast<double>(alpha);
    if (power_.empty()) return 1.0f - static_cast<float>(x);
    // x * kKnots lies in [0, kKnots] for alpha in [0, 1]; the comparison
    // also sends NaN to knot 0 before any conversion.
    const double s = x * double{kKnots};
    const size_t j =
        s > 0.0 ? static_cast<size_t>(std::min(s, double{kKnots - 1})) : 0;
    const double power =
        power_[j] + (x - static_cast<double>(j) / double{kKnots}) * slope_[j];
    return 1.0f - static_cast<float>(power);
  }

  double lo_, hi_, bin_scale_;
  Rgba front_, back_;  // end colors, opacity corrected
  std::vector<Segment> segments_;
  std::array<size_t, kBins> first_segment_{};  // lowest segment per bin
  // (1 - alpha)^exponent at the knots, and the slope to the next knot;
  // empty at the reference step.
  std::vector<double> power_, slope_;
};

}  // namespace hia
