// Hybrid auto-/cross-correlative statistics — the paper's §VI future work
// ("we plan to develop a hybrid in-situ/in-transit auto-correlative
// statistical technique"), built from the same learn/derive split as the
// descriptive statistics: each rank learns a bivariate primary model
// between two variables in-situ (6 doubles), and the in-transit stage
// combines and derives covariance / Pearson correlation / a least-squares
// fit.
#pragma once

#include "analysis/stats/correlation.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

class HybridCorrelation final
    : public Mergeable<CovarianceAccumulator, CorrelationModel> {
 public:
  HybridCorrelation(Variable x, Variable y)
      : Mergeable("corr", Placement::kHybrid), x_(x), y_(y) {}

  [[nodiscard]] CorrelationModel latest_model() const { return latest(); }

 private:
  CovarianceAccumulator learn(InSituContext& ctx) override;
  CorrelationModel derive(const CovarianceAccumulator& global) const override {
    return derive_correlation(global);
  }
  std::vector<std::byte> row(const CorrelationModel& model) const override;

  Variable x_, y_;
};

/// `learn` of the bivariate model over the co-located owned regions of two
/// fields (no copies).
CovarianceAccumulator correlation_learn_fields(const Field& x,
                                               const Field& y);

}  // namespace hia
