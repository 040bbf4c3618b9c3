#include "core/contingency_pipeline.hpp"

#include <cstring>

#include "util/error.hpp"

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

  std::vector<double> flat{static_cast<double>(model.total),
                           model.chi_squared, model.cramers_v,
                           model.mutual_information};
  std::vector<std::byte> bytes(flat.size() * sizeof(double));
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  ctx.set_result(std::move(bytes));

  std::lock_guard lock(mutex_);
  if (!newest_step(latest_step_, ctx.task().step)) return;
  latest_ = model;
  latest_table_ = std::move(global);
}

ContingencyModel HybridContingency::latest_model() const {
  std::lock_guard lock(mutex_);
  return latest_;
}

std::optional<ContingencyTable> HybridContingency::latest_table() const {
  std::lock_guard lock(mutex_);
  return latest_table_;
}

}  // namespace hia
