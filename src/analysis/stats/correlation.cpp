#include "analysis/stats/correlation.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace hia {

void CovarianceAccumulator::update(double x, double y) {
  ++n_;
  const double n = static_cast<double>(n_);
  const double dx = x - mean_x_;
  const double dy = y - mean_y_;
  mean_x_ += dx / n;
  mean_y_ += dy / n;
  // Note: c2 uses the *updated* mean_y (West's formulation keeps the
  // update exact in exact arithmetic and stable in floating point).
  m2x_ += dx * (x - mean_x_);
  m2y_ += dy * (y - mean_y_);
  c2_ += dx * (y - mean_y_);
}

void CovarianceAccumulator::learn(std::span<const double> x,
                                  std::span<const double> y) {
  HIA_REQUIRE(x.size() == y.size(), "paired observations required");
  constexpr size_t kLanes = 4;
  for (size_t at = 0; at < x.size(); at += kLearnChunk) {
    const size_t n = std::min(kLearnChunk, x.size() - at);
    const double* xs = x.data() + at;
    const double* ys = y.data() + at;
    const size_t n_lanes = n - n % kLanes;

    // Pass 1: the two sums, in independent lanes (no loop-carried chain).
    double sx[kLanes] = {}, sy[kLanes] = {};
    for (size_t i = 0; i < n_lanes; i += kLanes) {
#pragma GCC unroll 4
      for (size_t l = 0; l < kLanes; ++l) {
        sx[l] += xs[i + l];
        sy[l] += ys[i + l];
      }
    }
    for (size_t i = n_lanes; i < n; ++i) {
      sx[0] += xs[i];
      sy[0] += ys[i];
    }
    const auto total = [](const double (&s)[kLanes]) {
      return (s[0] + s[1]) + (s[2] + s[3]);
    };
    const double nd = static_cast<double>(n);
    const double shift_x = total(sx) / nd;
    const double shift_y = total(sy) / nd;

    // Pass 2: centred sums about the shifts, plus their residuals.
    double s1x[kLanes] = {}, s1y[kLanes] = {};
    double s2x[kLanes] = {}, s2y[kLanes] = {}, sxy[kLanes] = {};
    for (size_t i = 0; i < n_lanes; i += kLanes) {
#pragma GCC unroll 4
      for (size_t l = 0; l < kLanes; ++l) {
        const double dx = xs[i + l] - shift_x;
        const double dy = ys[i + l] - shift_y;
        s1x[l] += dx;
        s1y[l] += dy;
        s2x[l] += dx * dx;
        s2y[l] += dy * dy;
        sxy[l] += dx * dy;
      }
    }
    for (size_t i = n_lanes; i < n; ++i) {
      const double dx = xs[i] - shift_x;
      const double dy = ys[i] - shift_y;
      s1x[0] += dx;
      s1y[0] += dy;
      s2x[0] += dx * dx;
      s2y[0] += dy * dy;
      sxy[0] += dx * dy;
    }
    const double t1x = total(s1x);
    const double t1y = total(s1y);

    // Shift onto the exact chunk means (corrected two-pass algorithm). On
    // a constant side every d is the same few-bit multiple of an ulp, so
    // its sums are exact and its m2 comes out exactly 0.
    CovarianceAccumulator part;
    part.n_ = n;
    part.mean_x_ = shift_x + t1x / nd;
    part.mean_y_ = shift_y + t1y / nd;
    part.m2x_ = total(s2x) - t1x * t1x / nd;
    part.m2y_ = total(s2y) - t1y * t1y / nd;
    part.c2_ = total(sxy) - t1x * t1y / nd;
    combine(part);
  }
}

void CovarianceAccumulator::combine(const CovarianceAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double dx = other.mean_x_ - mean_x_;
  const double dy = other.mean_y_ - mean_y_;

  m2x_ += other.m2x_ + dx * dx * na * nb / n;
  m2y_ += other.m2y_ + dy * dy * na * nb / n;
  c2_ += other.c2_ + dx * dy * na * nb / n;
  mean_x_ += dx * nb / n;
  mean_y_ += dy * nb / n;
  n_ += other.n_;
}

void CovarianceAccumulator::pack(double out[kPackedSize]) const {
  out[0] = static_cast<double>(n_);
  out[1] = mean_x_;
  out[2] = mean_y_;
  out[3] = m2x_;
  out[4] = m2y_;
  out[5] = c2_;
}

CovarianceAccumulator CovarianceAccumulator::unpack(
    const double in[kPackedSize]) {
  CovarianceAccumulator acc;
  acc.n_ = static_cast<uint64_t>(in[0]);
  acc.mean_x_ = in[1];
  acc.mean_y_ = in[2];
  acc.m2x_ = in[3];
  acc.m2y_ = in[4];
  acc.c2_ = in[5];
  return acc;
}

CorrelationModel derive_correlation(const CovarianceAccumulator& primary) {
  CorrelationModel m;
  m.count = primary.count();
  if (m.count < 2) return m;
  const double n = static_cast<double>(primary.count());
  m.covariance = primary.c2() / (n - 1.0);
  const double denom = std::sqrt(primary.m2_x() * primary.m2_y());
  if (denom > 0.0) m.pearson_r = primary.c2() / denom;
  if (primary.m2_x() > 0.0) {
    m.slope = primary.c2() / primary.m2_x();
    m.intercept = primary.mean_y() - m.slope * primary.mean_x();
  }
  return m;
}

CovarianceAccumulator correlation_learn(std::span<const double> x,
                                        std::span<const double> y) {
  CovarianceAccumulator acc;
  acc.learn(x, y);
  return acc;
}

CorrelationModel autocorrelation(std::span<const double> series, size_t lag) {
  HIA_REQUIRE(lag < series.size(), "lag must be shorter than the series");
  const size_t n = series.size() - lag;
  return derive_correlation(
      correlation_learn(series.first(n), series.subspan(lag, n)));
}

}  // namespace hia
