#include "core/timeseries_pipeline.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

void TimeSeriesAutocorrelation::in_situ(InSituContext& ctx) {
  const Field& field = ctx.sim().field(config_.variable);
  double sum = 0.0;
  const Box3& box = field.owned();
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) sum += field.at(i, j, k);

  const double global_sum = ctx.comm().allreduce_sum(sum);
  // One rank publishes the probe; the payload is 2 doubles.
  if (ctx.comm().rank() == 0) {
    const double count =
        static_cast<double>(ctx.sim().params().grid.num_points());
    ctx.publish("tseries.probe", box, {global_sum / count, count});
  }
}

void TimeSeriesAutocorrelation::in_transit(TaskContext& ctx) {
  HIA_REQUIRE(ctx.task().inputs.size() == 1,
              "time-series probe expects one block per step");
  const auto probe = ctx.pull_doubles(ctx.task().inputs[0]);
  HIA_REQUIRE(probe.size() == 2, "malformed probe payload");

  std::lock_guard lock(mutex_);
  mean_by_step_[ctx.task().step] = probe[0];

  // Result blob: the autocorrelations computable so far.
  std::vector<double> flat;
  std::vector<double> s;
  s.reserve(mean_by_step_.size());
  for (const auto& [step, mean] : mean_by_step_) s.push_back(mean);
  for (const size_t lag : config_.lags) {
    if (lag + 1 < s.size()) {
      flat.push_back(static_cast<double>(lag));
      flat.push_back(autocorrelation(s, lag).pearson_r);
    }
  }
  ctx.set_result(to_bytes(flat));
}

std::vector<double> TimeSeriesAutocorrelation::series() const {
  std::lock_guard lock(mutex_);
  std::vector<double> out;
  out.reserve(mean_by_step_.size());
  for (const auto& [step, mean] : mean_by_step_) out.push_back(mean);
  return out;
}

std::vector<std::pair<size_t, double>>
TimeSeriesAutocorrelation::autocorrelations() const {
  const auto s = series();
  std::vector<std::pair<size_t, double>> out;
  for (const size_t lag : config_.lags) {
    if (lag + 1 < s.size()) {
      out.emplace_back(lag, autocorrelation(s, lag).pearson_r);
    }
  }
  return out;
}

}  // namespace hia
