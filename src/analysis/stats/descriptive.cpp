#include "analysis/stats/descriptive.hpp"

#include <cmath>

namespace hia {

MomentAccumulator stats_learn(std::span<const double> observations) {
  MomentAccumulator acc;
  acc.learn(observations);
  return acc;
}

MomentAccumulator stats_combine(
    std::span<const MomentAccumulator> partials) {
  MomentAccumulator acc;
  for (const MomentAccumulator& p : partials) acc.combine(p);
  return acc;
}

std::vector<double> stats_assess(std::span<const double> observations,
                                 const DescriptiveModel& model) {
  std::vector<double> out;
  out.reserve(observations.size());
  const double sd = model.stddev > 0.0 ? model.stddev : 1.0;
  for (const double x : observations) {
    out.push_back((x - model.mean) / sd);
  }
  return out;
}

TestResult stats_test_normality(const DescriptiveModel& model) {
  TestResult r;
  if (model.count < 2) return r;
  const double n = static_cast<double>(model.count);
  r.statistic = n / 6.0 *
                (model.skewness * model.skewness +
                 model.kurtosis_excess * model.kurtosis_excess / 4.0);
  r.p_value = std::exp(-r.statistic / 2.0);
  return r;
}

}  // namespace hia
