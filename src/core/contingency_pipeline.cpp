#include "core/contingency_pipeline.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

void HybridContingency::in_situ(InSituContext& ctx) {
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
  ctx.publish("cont.partial", box, table.serialize());
}

void HybridContingency::in_transit(TaskContext& ctx) {
  ContingencyTable global(config_.x_bins, config_.y_bins);
  for (const DataDescriptor& desc : ctx.task().inputs) {
    global.combine(ContingencyTable::deserialize(ctx.pull_doubles(desc)));
  }
  const ContingencyModel model = derive_contingency(global);

  ctx.set_result(to_bytes(std::vector{static_cast<double>(model.total),
                                      model.chi_squared, model.cramers_v,
                                      model.mutual_information}));
  latest_.offer(ctx.task().step, {model, std::move(global)});
}

}  // namespace hia
