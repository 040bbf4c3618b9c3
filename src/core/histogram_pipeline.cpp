#include "core/histogram_pipeline.hpp"

#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<double> serialize_histogram(const Histogram& h) {
  std::vector<double> out;
  out.reserve(5 + static_cast<size_t>(h.bins()));
  out.push_back(h.lo());
  out.push_back(h.hi());
  out.push_back(static_cast<double>(h.bins()));
  out.push_back(static_cast<double>(h.underflow()));
  out.push_back(static_cast<double>(h.overflow()));
  for (int b = 0; b < h.bins(); ++b) {
    out.push_back(static_cast<double>(h.count(b)));
  }
  return out;
}

Histogram deserialize_histogram(std::span<const double> data) {
  HIA_REQUIRE(data.size() >= 5, "histogram payload too short");
  const size_t bins = rounded_below(data[2], data.size() - 5 + 1,
                                    "histogram bin count exceeds payload");
  HIA_REQUIRE(data.size() == 5 + bins, "histogram payload size mismatch");
  Histogram h(data[0], data[1], static_cast<int>(bins));
  h.restore(data.subspan(5), round_to<uint64_t>(data[3]),
            round_to<uint64_t>(data[4]));
  return h;
}

void HybridHistogram::in_situ(InSituContext& ctx) {
  const Field& field = ctx.sim().field(config_.variable);

  // Binning must be identical on every rank. Either the user fixed it, or
  // the ranks agree per invocation with one small min/max all-reduce —
  // executed unconditionally so the collective sequence never diverges.
  std::pair<double, double> range;
  if (config_.range.has_value()) {
    range = *config_.range;
  } else {
    double lo = field.at(field.owned().lo[0], field.owned().lo[1],
                         field.owned().lo[2]);
    double hi = lo;
    const Box3& box = field.owned();
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
  const Box3& box = field.owned();
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
      for (int64_t i = box.lo[0]; i < box.hi[0]; ++i)
        partial.update(field.at(i, j, k));

  ctx.publish("hist.partial", box, serialize_histogram(partial));
}

void HybridHistogram::in_transit(TaskContext& ctx) {
  std::optional<Histogram> global;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    Histogram part = deserialize_histogram(ctx.pull_doubles(desc));
    if (!global.has_value()) {
      global = std::move(part);
    } else {
      global->combine(part);
    }
  }
  HIA_REQUIRE(global.has_value(), "histogram task with no inputs");

  ctx.set_result(to_bytes(serialize_histogram(*global)));
  latest_.offer(ctx.task().step, std::move(global));
}

}  // namespace hia
