// The benchmark's own arithmetic: medians, nearest-rank percentiles, the
// choice of tail percentile, and span self time. Kept free of any HIA type
// so selftest.cpp can check it against hand-computed values.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const size_t n = v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<long>(n / 2), v.end());
  const double hi = v[n / 2];
  if (n % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + static_cast<long>(n / 2));
  return 0.5 * (lo + hi);
}

/// Percentiles the tail report may pick, in tenths of a percent.
inline constexpr int kTailPermille[] = {999, 990, 900, 500};

/// 1-based nearest rank of percentile `permille`/10 among `n` samples:
/// ceil(n * permille / 1000), at least 1.
inline size_t nearest_rank(size_t n, int permille) {
  const size_t k = (n * static_cast<size_t>(permille) + 999) / 1000;
  return std::max<size_t>(k, 1);
}

/// Samples strictly beyond the nearest-rank percentile.
inline size_t samples_beyond(size_t n, int permille) {
  return n == 0 ? 0 : n - nearest_rank(n, permille);
}

/// The highest of kTailPermille with at least `min_beyond` samples beyond
/// it, or 0 when even the median has fewer.
inline int tail_permille(size_t n, size_t min_beyond = 10) {
  for (const int p : kTailPermille) {
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return 0;
}

/// Nearest-rank percentile value; 0 when empty.
inline double percentile(std::vector<double> v, int permille) {
  if (v.empty()) return 0.0;
  const size_t k = nearest_rank(v.size(), permille);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k - 1), v.end());
  return v[k - 1];
}

struct Interval {
  double t0 = 0.0;
  double t1 = 0.0;
};

/// A span's self time: its duration minus the part of it that child spans
/// cover. Children are clipped to the parent and overlaps count once.
inline double self_time(Interval parent, std::vector<Interval> children) {
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  double covered = 0.0;
  double reach = parent.t0;  // end of the covered prefix so far
  for (const Interval& c : children) {
    const double lo = std::max(c.t0, reach);
    const double hi = std::min(c.t1, parent.t1);
    if (hi > lo) {
      covered += hi - lo;
      reach = hi;
    }
  }
  return std::max(0.0, (parent.t1 - parent.t0) - covered);
}

}  // namespace perfbench
