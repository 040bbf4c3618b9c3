#include "core/histogram_pipeline.hpp"

namespace hia {

Histogram HybridHistogram::learn(InSituContext& ctx) {
  const Field& field = ctx.sim().field(config_.variable);
  const Box3& box = field.owned();

  // Binning must be identical on every rank. Either the user fixed it, or
  // the ranks agree per invocation with one small min/max all-reduce —
  // executed unconditionally so the collective sequence never diverges.
  std::pair<double, double> range;
  if (config_.range.has_value()) {
    range = *config_.range;
  } else {
    double lo = field.at(box.lo[0], box.lo[1], box.lo[2]);
    double hi = lo;
    for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
      for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
        for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
          lo = std::min(lo, field.at(i, j, k));
          hi = std::max(hi, field.at(i, j, k));
        }
    lo = ctx.comm().allreduce_min(lo);
    hi = ctx.comm().allreduce_max(hi);
    const double pad = 0.1 * (hi - lo) + 1e-12;
    range = {lo - pad, hi + pad};
  }

  Histogram partial(range.first, range.second, config_.bins);
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        partial.update(field.at(i, j, k));
  return partial;
}

}  // namespace hia
