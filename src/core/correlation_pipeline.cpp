#include "core/correlation_pipeline.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

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

CovarianceAccumulator HybridCorrelation::learn(InSituContext& ctx) {
  return correlation_learn_fields(ctx.sim().field(x_), ctx.sim().field(y_));
}

std::vector<std::byte> HybridCorrelation::row(
    const CorrelationModel& model) const {
  return to_bytes(std::vector{static_cast<double>(model.count),
                              model.covariance, model.pearson_r, model.slope,
                              model.intercept});
}

}  // namespace hia
