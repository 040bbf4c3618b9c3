#include "core/stats_pipeline.hpp"

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
  return to_bytes(flat);
}

std::vector<DescriptiveModel> deserialize_models(
    std::span<const std::byte> bytes) {
  const std::vector<double> flat = to_doubles(bytes);
  HIA_REQUIRE(flat.size() % 8 == 0, "model blob size mismatch");
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

std::vector<DescriptiveModel> derive(
    const std::vector<MomentAccumulator>& global) {
  std::vector<DescriptiveModel> models;
  models.reserve(global.size());
  for (const MomentAccumulator& acc : global) {
    models.push_back(derive_descriptive(acc));
  }
  return models;
}
}  // namespace

Statistics::Statistics(Placement placement, std::vector<Variable> variables)
    : placement_(placement), variables_(std::move(variables)) {
  HIA_REQUIRE(!variables_.empty(), "statistics need at least one variable");
}

std::string Statistics::name() const {
  switch (placement_) {
    case Placement::kInSitu: return "stats-insitu";
    case Placement::kHybrid: return "stats-hybrid";
    case Placement::kInTransit: return "stats-intransit";
  }
  return {};
}

std::vector<std::string> Statistics::staged_variables() const {
  switch (placement_) {
    case Placement::kInSitu: return {};
    case Placement::kHybrid: return {"stats.partial"};
    case Placement::kInTransit: return {"stats.raw"};
  }
  return {};
}

void Statistics::in_situ(InSituContext& ctx) {
  const S3DRank& sim = ctx.sim();
  const Box3& box = sim.field(variables_.front()).owned();
  if (placement_ == Placement::kInTransit) {
    // No reduction at all: ship every variable's owned values, one slice
    // per variable.
    std::vector<double> raw;
    raw.reserve(variables_.size() * static_cast<size_t>(box.num_cells()));
    for (const Variable v : variables_) {
      const std::vector<double> values = sim.field(v).pack_owned();
      raw.insert(raw.end(), values.begin(), values.end());
    }
    ctx.publish("stats.raw", box, raw);
    return;
  }

  // learn: per-rank primary models for every variable.
  std::vector<MomentAccumulator> locals;
  locals.reserve(variables_.size());
  {
    obs::Span learn_span("insitu", "stats.learn",
                         {.rank = ctx.comm().rank(), .step = ctx.step()});
    for (const Variable v : variables_) {
      locals.push_back(learn_field(sim.field(v)));
    }
  }
  if (placement_ == Placement::kHybrid) {
    // A few hundred bytes per rank, vs. the megabytes of raw data they
    // summarize; the in-transit stage combines and derives.
    ctx.publish("stats.partial", box, pack_accumulators(locals));
    return;
  }

  // kInSitu: all-to-all combination so every rank holds the global primary
  // model (the only communicating stage, by design), then every rank
  // derives the detailed model locally.
  const auto global = unpack_accumulators(
      ctx.comm().allreduce(pack_accumulators(locals), combine_packed));
  obs::Span derive_span("insitu", "stats.derive",
                        {.rank = ctx.comm().rank(), .step = ctx.step()});
  auto models = derive(global);
  if (ctx.comm().rank() == 0) latest_.offer(ctx.step(), std::move(models));
}

void Statistics::in_transit(TaskContext& ctx) {
  // Serial reduce over every rank's block: combine the partial models
  // (kHybrid) or learn each variable's raw slice (kInTransit); then derive.
  obs::Span agg_span("intransit", "stats.aggregate",
                     {.bucket = ctx.bucket(), .step = ctx.task().step});
  std::vector<MomentAccumulator> global(variables_.size());
  for (const DataDescriptor& desc : ctx.task().inputs) {
    const std::vector<double> block = ctx.pull_doubles(desc);
    if (placement_ == Placement::kHybrid) {
      const auto partial = unpack_accumulators(block);
      HIA_REQUIRE(partial.size() == global.size(),
                  "partial model has the wrong variable count");
      for (size_t v = 0; v < global.size(); ++v) {
        global[v].combine(partial[v]);
      }
    } else {
      HIA_REQUIRE(block.size() % global.size() == 0,
                  "raw block is not one slice per variable");
      const size_t n = block.size() / global.size();
      for (size_t v = 0; v < global.size(); ++v) {
        global[v].learn(std::span(block).subspan(v * n, n));
      }
    }
  }

  auto models = derive(global);
  ctx.set_result(serialize_models(models));
  latest_.offer(ctx.task().step, std::move(models));
}

}  // namespace hia
