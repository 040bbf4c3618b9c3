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

/// The derived statistics and the combined table itself (for marginals /
/// deeper inspection).
struct ContingencyResult {
  ContingencyModel model;
  std::optional<ContingencyTable> table;
};

class HybridContingency final
    : public Mergeable<ContingencyTable, ContingencyResult> {
 public:
  explicit HybridContingency(ContingencyConfig config)
      : Mergeable("cont", Placement::kHybrid), config_(config) {}

  [[nodiscard]] ContingencyModel latest_model() const {
    return latest().model;
  }
  [[nodiscard]] std::optional<ContingencyTable> latest_table() const {
    return latest().table;
  }

 private:
  ContingencyTable learn(InSituContext& ctx) override;
  ContingencyResult derive(const ContingencyTable& global) const override;
  std::vector<std::byte> row(const ContingencyResult& result) const override;

  ContingencyConfig config_;
};

}  // namespace hia
