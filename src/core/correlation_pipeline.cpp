#include "core/correlation_pipeline.hpp"

#include <cstring>

#include "util/error.hpp"

namespace hia {

CovarianceAccumulator correlation_learn_fields(const Field& x,
                                               const Field& y) {
  HIA_REQUIRE(x.owned() == y.owned(), "fields must share the owned box");
  CovarianceAccumulator acc;
  const Box3& box = x.owned();
  if (box.empty()) return acc;
  const auto row = static_cast<size_t>(box.extent(0));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      acc.learn({x.ptr(box.lo[0], j, k), row}, {y.ptr(box.lo[0], j, k), row});
    }
  }
  return acc;
}

void HybridCorrelation::in_situ(InSituContext& ctx) {
  const CovarianceAccumulator acc = correlation_learn_fields(
      ctx.sim().field(x_), ctx.sim().field(y_));
  std::vector<double> packed(CovarianceAccumulator::kPackedSize);
  acc.pack(packed.data());
  ctx.publish("corr.partial", ctx.sim().field(x_).owned(), packed);
}

void HybridCorrelation::in_transit(TaskContext& ctx) {
  CovarianceAccumulator global;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    const auto packed = ctx.pull_doubles(desc);
    HIA_REQUIRE(packed.size() == CovarianceAccumulator::kPackedSize,
                "malformed bivariate model payload");
    global.combine(CovarianceAccumulator::unpack(packed.data()));
  }
  const CorrelationModel model = derive_correlation(global);

  std::vector<double> flat{static_cast<double>(model.count),
                           model.covariance, model.pearson_r, model.slope,
                           model.intercept};
  std::vector<std::byte> bytes(flat.size() * sizeof(double));
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  ctx.set_result(std::move(bytes));

  std::lock_guard lock(mutex_);
  if (!newest_step(latest_step_, ctx.task().step)) return;
  latest_ = model;
}

CorrelationModel HybridCorrelation::latest_model() const {
  std::lock_guard lock(mutex_);
  return latest_;
}

}  // namespace hia
