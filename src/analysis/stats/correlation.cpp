#include "analysis/stats/correlation.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/error.hpp"
#include "util/numeric.hpp"
#include "util/simd.hpp"

namespace hia {

namespace {
// Four independent partial sums per pass, as in the moment kernel: lane l
// takes pairs l, l + 4, ...; a chunk's remainder goes into lane 0.
constexpr size_t kLanes = 4;

double lane_total(const double (&s)[kLanes]) {
  return (s[0] + s[1]) + (s[2] + s[3]);
}

/// One chunk's centres (the two means of pass 1) and its centred sums: of
/// dx, dy, dx^2, dy^2 and dx*dy.
struct PairSums {
  double shift_x, shift_y, t1x, t1y, t2x, t2y, txy;
};

/// The two passes over one chunk of pairs, with lanes 0-1 and 2-3 held as
/// two packed DoubleX2 halves (util/simd.hpp).
PairSums pair_sums(const double* xs, const double* ys, size_t n) {
  constexpr size_t kHalves = kLanes / 2;
  const size_t n_lanes = n - n % kLanes;

  // Pass 1: the two sums.
  DoubleX2 vx[kHalves], vy[kHalves];
  for (size_t h = 0; h < kHalves; ++h) vx[h] = vy[h] = DoubleX2{};
  for (size_t i = 0; i < n_lanes; i += kLanes) {
#pragma GCC unroll 2
    for (size_t h = 0; h < kHalves; ++h) {
      DoubleX2 a, b;
      std::memcpy(&a, xs + i + 2 * h, sizeof(a));
      std::memcpy(&b, ys + i + 2 * h, sizeof(b));
      vx[h] += a;
      vy[h] += b;
    }
  }
  double sx[kLanes], sy[kLanes];
  std::memcpy(sx, vx, sizeof(sx));
  std::memcpy(sy, vy, sizeof(sy));
  for (size_t i = n_lanes; i < n; ++i) {
    sx[0] += xs[i];
    sy[0] += ys[i];
  }
  PairSums out;
  const double nd = static_cast<double>(n);
  out.shift_x = lane_total(sx) / nd;
  out.shift_y = lane_total(sy) / nd;

  // Pass 2: centred sums about the shifts, plus their residuals.
  DoubleX2 v1x[kHalves], v1y[kHalves], v2x[kHalves], v2y[kHalves],
      vxy[kHalves];
  for (size_t h = 0; h < kHalves; ++h) {
    v1x[h] = v1y[h] = v2x[h] = v2y[h] = vxy[h] = DoubleX2{};
  }
  for (size_t i = 0; i < n_lanes; i += kLanes) {
#pragma GCC unroll 2
    for (size_t h = 0; h < kHalves; ++h) {
      DoubleX2 a, b;
      std::memcpy(&a, xs + i + 2 * h, sizeof(a));
      std::memcpy(&b, ys + i + 2 * h, sizeof(b));
      const DoubleX2 dx = a - out.shift_x;
      const DoubleX2 dy = b - out.shift_y;
      v1x[h] += dx;
      v1y[h] += dy;
      v2x[h] += dx * dx;
      v2y[h] += dy * dy;
      vxy[h] += dx * dy;
    }
  }
  double s1x[kLanes], s1y[kLanes], s2x[kLanes], s2y[kLanes], sxy[kLanes];
  std::memcpy(s1x, v1x, sizeof(s1x));
  std::memcpy(s1y, v1y, sizeof(s1y));
  std::memcpy(s2x, v2x, sizeof(s2x));
  std::memcpy(s2y, v2y, sizeof(s2y));
  std::memcpy(sxy, vxy, sizeof(sxy));
  for (size_t i = n_lanes; i < n; ++i) {
    const double dx = xs[i] - out.shift_x;
    const double dy = ys[i] - out.shift_y;
    s1x[0] += dx;
    s1y[0] += dy;
    s2x[0] += dx * dx;
    s2y[0] += dy * dy;
    sxy[0] += dx * dy;
  }
  out.t1x = lane_total(s1x);
  out.t1y = lane_total(s1y);
  out.t2x = lane_total(s2x);
  out.t2y = lane_total(s2y);
  out.txy = lane_total(sxy);
  return out;
}
}  // namespace

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
  for (size_t at = 0; at < x.size(); at += kLearnChunk) {
    const size_t n = std::min(kLearnChunk, x.size() - at);
    const double* xs = x.data() + at;
    const double* ys = y.data() + at;
    const PairSums s = pair_sums(xs, ys, n);

    // Shift onto the exact chunk means (corrected two-pass algorithm). On
    // a constant side every d is the same few-bit multiple of an ulp, so
    // its sums are exact and its m2 comes out exactly 0.
    const double nd = static_cast<double>(n);
    CovarianceAccumulator part;
    part.n_ = n;
    part.mean_x_ = s.shift_x + s.t1x / nd;
    part.mean_y_ = s.shift_y + s.t1y / nd;
    part.m2x_ = s.t2x - s.t1x * s.t1x / nd;
    part.m2y_ = s.t2y - s.t1y * s.t1y / nd;
    part.c2_ = s.txy - s.t1x * s.t1y / nd;
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

std::vector<double> CovarianceAccumulator::serialize() const {
  return {static_cast<double>(n_), mean_x_, mean_y_, m2x_, m2y_, c2_};
}

CovarianceAccumulator CovarianceAccumulator::deserialize(
    std::span<const double> in) {
  HIA_REQUIRE(in.size() == 6, "malformed bivariate model payload");
  CovarianceAccumulator acc;
  // The count arrives from a peer: it must round into the range a double
  // carries exactly.
  acc.n_ = rounded_below(in[0], size_t{1} << 53,
                         "bivariate count out of range");
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
