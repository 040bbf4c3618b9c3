// Hybrid contingency statistics (ref [22]): each rank categorizes a
// variable pair over its block and builds a sparse joint-occurrence table
// in-situ; the in-transit stage adds the tables and derives the
// independence statistics (chi-squared, Cramér's V, mutual information).
// The intermediate data is the sparse table — bounded by bins², typically
// far below it — regardless of grid size.
#pragma once

#include <optional>

#include "analysis/stats/contingency.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

struct ContingencyConfig {
  Variable x = Variable::kTemperature;
  Variable y = Variable::kYH2O;
  double x_lo = 0.0, x_hi = 8.0;
  double y_lo = 0.0, y_hi = 1.0;
  int x_bins = 16, y_bins = 16;
};

class HybridContingency final : public HybridAnalysis {
 public:
  explicit HybridContingency(ContingencyConfig config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "cont-hybrid"; }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return {"cont.partial"};
  }
  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  [[nodiscard]] ContingencyModel latest_model() const {
    return latest_.get().model;
  }
  /// The combined table itself (for marginals / deeper inspection).
  [[nodiscard]] std::optional<ContingencyTable> latest_table() const {
    return latest_.get().table;
  }

 private:
  struct Result {
    ContingencyModel model;
    std::optional<ContingencyTable> table;
  };

  ContingencyConfig config_;
  Latest<Result> latest_;
};

}  // namespace hia
