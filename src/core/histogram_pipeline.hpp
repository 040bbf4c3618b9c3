// Hybrid histogramming: per-rank partial histograms (mergeable, fixed
// binning) combined in-transit. Histograms are the workhorse behind
// transfer-function design for the volume renderer and quantile-based
// thresholds for the feature pipelines; like the moment statistics they
// reduce each rank's block to a constant-size summary.
//
// The binning range must be global to be mergeable; unless fixed by the
// user, each invocation opens with one small min/max all-reduce — the same
// "learn is the only communicating stage" structure as Fig. 4.
#pragma once

#include <optional>

#include "analysis/stats/histogram.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

struct HistogramConfig {
  Variable variable = Variable::kTemperature;
  int bins = 64;
  /// When set, fixes the range; otherwise the first invocation computes a
  /// global min/max and pads it by 10%.
  std::optional<std::pair<double, double>> range;
};

/// latest() is the combined global histogram of the newest step.
class HybridHistogram final
    : public Mergeable<Histogram, std::optional<Histogram>> {
 public:
  explicit HybridHistogram(HistogramConfig config)
      : Mergeable("hist", Placement::kHybrid), config_(config) {}

 private:
  Histogram learn(InSituContext& ctx) override;
  std::optional<Histogram> derive(const Histogram& global) const override {
    return global;
  }
  std::vector<std::byte> row(
      const std::optional<Histogram>& global) const override {
    return to_bytes(global->serialize());
  }

  HistogramConfig config_;
};

}  // namespace hia
