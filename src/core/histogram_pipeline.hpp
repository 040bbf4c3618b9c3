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

#include <memory>
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

class HybridHistogram final : public HybridAnalysis {
 public:
  explicit HybridHistogram(HistogramConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "hist-hybrid"; }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return {"hist.partial"};
  }
  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  /// Combined global histogram from the most recent invocation.
  [[nodiscard]] std::optional<Histogram> latest() const {
    return latest_.get();
  }

 private:
  HistogramConfig config_;
  Latest<std::optional<Histogram>> latest_;
};

/// Flat encoding of a histogram for transport:
/// [lo, hi, bins, underflow, overflow, counts...].
std::vector<double> serialize_histogram(const Histogram& h);
Histogram deserialize_histogram(std::span<const double> data);

}  // namespace hia
