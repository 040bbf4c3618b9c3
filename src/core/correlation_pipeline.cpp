#include "core/correlation_pipeline.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

CovarianceAccumulator correlation_learn_fields(const Field& x,
                                               const Field& y) {
  CovarianceAccumulator acc;
  stream_owned<CovarianceAccumulator::kLearnChunk>(
      std::array{&x, &y},
      [&](const std::array<std::span<const double>, 2>& chunk) {
        acc.learn(chunk[0], chunk[1]);
      });
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
