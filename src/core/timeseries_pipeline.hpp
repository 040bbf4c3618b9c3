// Temporal statistics across timesteps: per-step global probes (mean and
// maximum of a variable) accumulate on the staging side, and the in-transit
// stage maintains lag-k autocorrelations of the probe series — the time
// dimension of the paper's §VI "auto-correlative statistical technique".
//
// The in-situ stage is one local reduction plus an all-reduce (16 bytes of
// intermediate data per rank); all history lives on the secondary
// resources, so the simulation carries no memory of past steps.
#pragma once

#include <map>
#include <mutex>

#include "analysis/stats/correlation.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

struct TimeSeriesConfig {
  Variable variable = Variable::kTemperature;
  /// Lags (in analysis invocations) reported by autocorrelations().
  std::vector<size_t> lags{1, 2, 4};
};

class TimeSeriesAutocorrelation final : public HybridAnalysis {
 public:
  explicit TimeSeriesAutocorrelation(TimeSeriesConfig config)
      : HybridAnalysis("tseries", {"tseries.probe"}), config_(config) {}

  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  /// The probe series accumulated so far (step-ordered global means).
  [[nodiscard]] std::vector<double> series() const;

  /// Lag -> Pearson autocorrelation of the mean series, for each
  /// configured lag short enough for the current history.
  [[nodiscard]] std::vector<std::pair<size_t, double>> autocorrelations()
      const;

 private:
  TimeSeriesConfig config_;
  mutable std::mutex mutex_;
  std::map<long, double> mean_by_step_;  // in-transit tasks may reorder
};

}  // namespace hia
