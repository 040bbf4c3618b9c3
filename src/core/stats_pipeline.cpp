#include "core/stats_pipeline.hpp"

#include <cstring>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<Variable> all_variables() {
  std::vector<Variable> out;
  out.reserve(kNumVariables);
  for (int v = 0; v < kNumVariables; ++v) {
    out.push_back(static_cast<Variable>(v));
  }
  return out;
}

MomentAccumulator learn_field(const Field& field) {
  MomentAccumulator acc;
  const Box3& box = field.owned();
  if (box.empty()) return acc;
  const auto row = static_cast<size_t>(box.extent(0));
  for (int64_t k = box.lo[2]; k < box.hi[2]; ++k) {
    for (int64_t j = box.lo[1]; j < box.hi[1]; ++j) {
      acc.learn({field.ptr(box.lo[0], j, k), row});
    }
  }
  return acc;
}

std::vector<double> pack_accumulators(
    const std::vector<MomentAccumulator>& accs) {
  std::vector<double> out(accs.size() * MomentAccumulator::kPackedSize);
  for (size_t v = 0; v < accs.size(); ++v) {
    accs[v].pack(&out[v * MomentAccumulator::kPackedSize]);
  }
  return out;
}

std::vector<MomentAccumulator> unpack_accumulators(
    std::span<const double> packed) {
  HIA_REQUIRE(packed.size() % MomentAccumulator::kPackedSize == 0,
              "packed accumulator size mismatch");
  std::vector<MomentAccumulator> out(packed.size() /
                                     MomentAccumulator::kPackedSize);
  for (size_t v = 0; v < out.size(); ++v) {
    out[v] = MomentAccumulator::unpack(
        &packed[v * MomentAccumulator::kPackedSize]);
  }
  return out;
}

std::vector<std::byte> serialize_models(
    const std::vector<DescriptiveModel>& models) {
  std::vector<double> flat;
  flat.reserve(models.size() * 8);
  for (const DescriptiveModel& m : models) {
    flat.push_back(static_cast<double>(m.count));
    flat.push_back(m.mean);
    flat.push_back(m.min);
    flat.push_back(m.max);
    flat.push_back(m.variance);
    flat.push_back(m.stddev);
    flat.push_back(m.skewness);
    flat.push_back(m.kurtosis_excess);
  }
  std::vector<std::byte> out(flat.size() * sizeof(double));
  std::memcpy(out.data(), flat.data(), out.size());
  return out;
}

std::vector<DescriptiveModel> deserialize_models(
    std::span<const std::byte> bytes) {
  HIA_REQUIRE(bytes.size() % (8 * sizeof(double)) == 0,
              "model blob size mismatch");
  std::vector<double> flat(bytes.size() / sizeof(double));
  std::memcpy(flat.data(), bytes.data(), bytes.size());
  std::vector<DescriptiveModel> out(flat.size() / 8);
  for (size_t i = 0; i < out.size(); ++i) {
    DescriptiveModel& m = out[i];
    const double* p = &flat[i * 8];
    m.count = round_to<uint64_t>(p[0]);
    m.mean = p[1];
    m.min = p[2];
    m.max = p[3];
    m.variance = p[4];
    m.stddev = p[5];
    m.skewness = p[6];
    m.kurtosis_excess = p[7];
  }
  return out;
}

namespace {
/// Element-wise combine of packed accumulator vectors (reduction operator
/// for the in-situ all-reduce).
void combine_packed(std::span<double> acc, std::span<const double> in) {
  constexpr int kSize = MomentAccumulator::kPackedSize;
  HIA_ASSERT(acc.size() == in.size() && acc.size() % kSize == 0);
  for (size_t v = 0; v < acc.size() / kSize; ++v) {
    MomentAccumulator a = MomentAccumulator::unpack(&acc[v * kSize]);
    const MomentAccumulator b = MomentAccumulator::unpack(&in[v * kSize]);
    a.combine(b);
    a.pack(&acc[v * kSize]);
  }
}
}  // namespace

// ------------------------------------------------------ InSituStatistics --

void InSituStatistics::in_situ(InSituContext& ctx) {
  // learn: per-rank primary models for every variable.
  std::vector<MomentAccumulator> locals;
  locals.reserve(variables_.size());
  {
    obs::Span learn_span("insitu", "stats.learn",
                         {.rank = ctx.comm().rank(), .step = ctx.step()});
    for (const Variable v : variables_) {
      locals.push_back(learn_field(ctx.sim().field(v)));
    }
  }

  // learn epilogue: all-to-all combination so every rank has the global
  // primary model (the only communicating stage, by design).
  const auto packed = pack_accumulators(locals);
  const auto global_packed = ctx.comm().allreduce(packed, combine_packed);
  const auto global = unpack_accumulators(global_packed);

  // derive: every rank derives the detailed model locally.
  obs::Span derive_span("insitu", "stats.derive",
                        {.rank = ctx.comm().rank(), .step = ctx.step()});
  std::vector<DescriptiveModel> models;
  models.reserve(global.size());
  for (const MomentAccumulator& acc : global) {
    models.push_back(derive_descriptive(acc));
  }

  if (ctx.comm().rank() == 0) {
    std::lock_guard lock(mutex_);
    latest_ = std::move(models);
  }
}

std::vector<DescriptiveModel> InSituStatistics::latest_models() const {
  std::lock_guard lock(mutex_);
  return latest_;
}

// ----------------------------------------------------- HybridStatistics --

void HybridStatistics::in_situ(InSituContext& ctx) {
  // learn in-situ; publish the packed primary model (a few hundred bytes
  // per rank, vs. the megabytes of raw data it summarizes).
  std::vector<MomentAccumulator> locals;
  locals.reserve(variables_.size());
  for (const Variable v : variables_) {
    locals.push_back(learn_field(ctx.sim().field(v)));
  }
  ctx.publish("stats.partial", ctx.sim().field(variables_.front()).owned(),
              pack_accumulators(locals));
}

void HybridStatistics::in_transit(TaskContext& ctx) {
  // Aggregate all partial models (serial), then derive.
  obs::Span agg_span("intransit", "stats.aggregate",
                     {.bucket = ctx.bucket(), .step = ctx.task().step});
  std::vector<MomentAccumulator> global;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    const auto packed = ctx.pull_doubles(desc);
    const auto partial = unpack_accumulators(packed);
    if (global.empty()) {
      global = partial;
    } else {
      HIA_REQUIRE(partial.size() == global.size(),
                  "inconsistent variable counts across ranks");
      for (size_t v = 0; v < global.size(); ++v) {
        global[v].combine(partial[v]);
      }
    }
  }

  std::vector<DescriptiveModel> models;
  models.reserve(global.size());
  for (const MomentAccumulator& acc : global) {
    models.push_back(derive_descriptive(acc));
  }

  ctx.set_result(serialize_models(models));
  std::lock_guard lock(mutex_);
  if (!newest_step(latest_step_, ctx.task().step)) return;
  latest_ = std::move(models);
}

std::vector<DescriptiveModel> HybridStatistics::latest_models() const {
  std::lock_guard lock(mutex_);
  return latest_;
}

// --------------------------------------------------- InTransitStatistics --

void InTransitStatistics::in_situ(InSituContext& ctx) {
  // Pure in-transit: publish the raw owned block (no reduction at all).
  const Field& f = ctx.sim().field(variable_);
  ctx.publish("stats.raw", f.owned(), f.pack_owned());
}

void InTransitStatistics::in_transit(TaskContext& ctx) {
  MomentAccumulator acc;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    acc.learn(ctx.pull_doubles(desc));
  }
  const DescriptiveModel model = derive_descriptive(acc);
  ctx.set_result(serialize_models({model}));
  std::lock_guard lock(mutex_);
  if (!newest_step(latest_step_, ctx.task().step)) return;
  latest_ = model;
}

DescriptiveModel InTransitStatistics::latest_model() const {
  std::lock_guard lock(mutex_);
  return latest_;
}

}  // namespace hia
