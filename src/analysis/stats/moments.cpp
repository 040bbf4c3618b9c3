#include "analysis/stats/moments.hpp"

#include <algorithm>
#include <cmath>

#include "util/numeric.hpp"

namespace hia {

namespace {
// Independent partial sums per pass, so no sum waits on the previous
// value's add.
constexpr size_t kLanes = 4;
constexpr double kInf = std::numeric_limits<double>::infinity();

double lane_total(const double (&s)[kLanes]) {
  return (s[0] + s[1]) + (s[2] + s[3]);
}
}  // namespace

void MomentAccumulator::update(double x) {
  const double n1 = static_cast<double>(n_);
  ++n_;
  const double n = static_cast<double>(n_);
  const double delta = x - mean_;
  const double delta_n = delta / n;
  const double delta_n2 = delta_n * delta_n;
  const double term1 = delta * delta_n * n1;

  mean_ += delta_n;
  m4_ += term1 * delta_n2 * (n * n - 3.0 * n + 3.0) + 6.0 * delta_n2 * m2_ -
         4.0 * delta_n * m3_;
  m3_ += term1 * delta_n * (n - 2.0) - 3.0 * delta_n * m2_;
  m2_ += term1;

  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void MomentAccumulator::learn(std::span<const double> values) {
  for (size_t at = 0; at < values.size(); at += kLearnChunk) {
    const std::span<const double> x =
        values.subspan(at, std::min(kLearnChunk, values.size() - at));
    const size_t n = x.size();
    const size_t n_lanes = n - n % kLanes;

    // Pass 1: sum and extrema.
    double sum[kLanes] = {};
    double lo[kLanes] = {kInf, kInf, kInf, kInf};
    double hi[kLanes] = {-kInf, -kInf, -kInf, -kInf};
    for (size_t i = 0; i < n_lanes; i += kLanes) {
#pragma GCC unroll 4
      for (size_t l = 0; l < kLanes; ++l) {
        sum[l] += x[i + l];
        lo[l] = std::min(lo[l], x[i + l]);
        hi[l] = std::max(hi[l], x[i + l]);
      }
    }
    for (size_t i = n_lanes; i < n; ++i) {
      sum[0] += x[i];
      lo[0] = std::min(lo[0], x[i]);
      hi[0] = std::max(hi[0], x[i]);
    }
    const double x_lo = *std::min_element(lo, lo + kLanes);
    const double x_hi = *std::max_element(hi, hi + kLanes);
    const double nd = static_cast<double>(n);
    // A constant chunk centres on its value, so its centred sums are
    // exactly zero.
    const double shift = x_lo == x_hi ? x_lo : lane_total(sum) / nd;

    // Pass 2: centred power sums about `shift`, plus their residual s1.
    double s1[kLanes] = {}, s2[kLanes] = {}, s3[kLanes] = {}, s4[kLanes] = {};
    for (size_t i = 0; i < n_lanes; i += kLanes) {
#pragma GCC unroll 4
      for (size_t l = 0; l < kLanes; ++l) {
        const double d = x[i + l] - shift;
        const double d2 = d * d;
        s1[l] += d;
        s2[l] += d2;
        s3[l] += d2 * d;
        s4[l] += d2 * d2;
      }
    }
    for (size_t i = n_lanes; i < n; ++i) {
      const double d = x[i] - shift;
      const double d2 = d * d;
      s1[0] += d;
      s2[0] += d2;
      s3[0] += d2 * d;
      s4[0] += d2 * d2;
    }
    const double t1 = lane_total(s1);
    const double t2 = lane_total(s2);
    const double t3 = lane_total(s3);
    const double t4 = lane_total(s4);

    // Shift the sums onto the chunk's exact mean, shift + c (the corrected
    // two-pass algorithm of Chan, Golub and LeVeque); c is a rounding-level
    // residual, so the correction cancels nothing significant.
    const double c = t1 / nd;
    MomentAccumulator part;
    part.n_ = n;
    part.mean_ = shift + c;
    part.m2_ = t2 - c * t1;
    part.m3_ = t3 - 3.0 * c * t2 + 2.0 * c * c * t1;
    part.m4_ = t4 - 4.0 * c * t3 + 6.0 * c * c * t2 - 3.0 * c * c * c * t1;
    part.min_ = x_lo;
    part.max_ = x_hi;
    combine(part);
  }
}

void MomentAccumulator::combine(const MomentAccumulator& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }

  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double n = na + nb;
  const double delta = other.mean_ - mean_;
  const double delta2 = delta * delta;

  const double new_mean = mean_ + delta * nb / n;
  const double new_m2 = m2_ + other.m2_ + delta2 * na * nb / n;
  const double new_m3 = m3_ + other.m3_ +
                        delta * delta2 * na * nb * (na - nb) / (n * n) +
                        3.0 * delta * (na * other.m2_ - nb * m2_) / n;
  const double new_m4 =
      m4_ + other.m4_ +
      delta2 * delta2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n) +
      6.0 * delta2 * (na * na * other.m2_ + nb * nb * m2_) / (n * n) +
      4.0 * delta * (na * other.m3_ - nb * m3_) / n;

  n_ += other.n_;
  mean_ = new_mean;
  m2_ = new_m2;
  m3_ = new_m3;
  m4_ = new_m4;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void MomentAccumulator::pack(double out[kPackedSize]) const {
  out[0] = static_cast<double>(n_);
  out[1] = mean_;
  out[2] = m2_;
  out[3] = m3_;
  out[4] = m4_;
  out[5] = min_;
  out[6] = max_;
}

MomentAccumulator MomentAccumulator::unpack(const double in[kPackedSize]) {
  MomentAccumulator acc;
  // Packed models arrive from peers: the count must round into the range
  // a double carries exactly.
  acc.n_ = rounded_below(in[0], size_t{1} << 53, "moment count out of range");
  acc.mean_ = in[1];
  acc.m2_ = in[2];
  acc.m3_ = in[3];
  acc.m4_ = in[4];
  acc.min_ = in[5];
  acc.max_ = in[6];
  return acc;
}

DescriptiveModel derive_descriptive(const MomentAccumulator& primary) {
  DescriptiveModel d;
  d.count = primary.count();
  if (d.count == 0) return d;

  const double n = static_cast<double>(primary.count());
  d.mean = primary.mean();
  d.min = primary.min();
  d.max = primary.max();
  if (d.count > 1) {
    d.variance = primary.m2() / (n - 1.0);
    d.stddev = std::sqrt(d.variance);
  }
  const double m2 = primary.m2() / n;  // biased second moment
  if (m2 > 0.0) {
    const double m3 = primary.m3() / n;
    const double m4 = primary.m4() / n;
    d.skewness = m3 / std::pow(m2, 1.5);
    d.kurtosis_excess = m4 / (m2 * m2) - 3.0;
  }
  return d;
}

}  // namespace hia
