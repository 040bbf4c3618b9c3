#include "core/contingency_pipeline.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

ContingencyTable HybridContingency::learn(InSituContext& ctx) {
  const Field& fx = ctx.sim().field(config_.x);
  const Field& fy = ctx.sim().field(config_.y);
  const Categorizer cx(config_.x_lo, config_.x_hi, config_.x_bins);
  const Categorizer cy(config_.y_lo, config_.y_hi, config_.y_bins);

  ContingencyTable table(config_.x_bins, config_.y_bins);
  const Box3& box = fx.owned();
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
        table.update(cx.category(fx.at(i, j, k)),
                     cy.category(fy.at(i, j, k)));
      }
    }
  }
  return table;
}

ContingencyResult HybridContingency::derive(
    const ContingencyTable& global) const {
  // The fold takes its dimensions from the first pulled table; marginals
  // are sized from them, so they must be the configured ones.
  HIA_REQUIRE(global.x_bins() == config_.x_bins &&
                  global.y_bins() == config_.y_bins,
              "contingency table dimensions differ from the configuration");
  return {derive_contingency(global), global};
}

std::vector<std::byte> HybridContingency::row(
    const ContingencyResult& result) const {
  const ContingencyModel& m = result.model;
  return to_bytes(std::vector{static_cast<double>(m.total), m.chi_squared,
                              m.cramers_v, m.mutual_information});
}

}  // namespace hia
