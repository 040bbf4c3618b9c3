#include "core/stats_pipeline.hpp"

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

void MomentSet::combine(const MomentSet& other) {
  HIA_REQUIRE(other.vars.size() == vars.size(),
              "partial model has the wrong variable count");
  for (size_t v = 0; v < vars.size(); ++v) vars[v].combine(other.vars[v]);
}

std::vector<double> MomentSet::serialize() const {
  std::vector<double> out(vars.size() * MomentAccumulator::kPackedSize);
  for (size_t v = 0; v < vars.size(); ++v) {
    vars[v].pack(&out[v * MomentAccumulator::kPackedSize]);
  }
  return out;
}

MomentSet MomentSet::deserialize(std::span<const double> packed) {
  constexpr size_t kSize = MomentAccumulator::kPackedSize;
  HIA_REQUIRE(packed.size() % kSize == 0, "packed accumulator size mismatch");
  MomentSet out;
  for (size_t at = 0; at < packed.size(); at += kSize) {
    out.vars.push_back(MomentAccumulator::unpack(&packed[at]));
  }
  return out;
}

std::vector<std::byte> serialize_models(
    const std::vector<DescriptiveModel>& models) {
  std::vector<double> flat;
  flat.reserve(models.size() * 8);
  for (const DescriptiveModel& m : models) {
    flat.insert(flat.end(), {static_cast<double>(m.count), m.mean, m.min,
                             m.max, m.variance, m.stddev, m.skewness,
                             m.kurtosis_excess});
  }
  return to_bytes(flat);
}

std::vector<DescriptiveModel> deserialize_models(
    std::span<const std::byte> bytes) {
  const std::vector<double> flat = to_doubles(bytes);
  HIA_REQUIRE(flat.size() % 8 == 0, "model blob size mismatch");
  std::vector<DescriptiveModel> out;
  for (size_t at = 0; at < flat.size(); at += 8) {
    const double* p = &flat[at];
    out.push_back({rounded_below(p[0], size_t{1} << 53,
                                 "model count out of range"),
                   p[1], p[2], p[3], p[4], p[5], p[6], p[7]});
  }
  return out;
}

Statistics::Statistics(Placement placement, std::vector<Variable> variables)
    : Mergeable("stats", placement), variables_(std::move(variables)) {
  HIA_REQUIRE(!variables_.empty(), "statistics need at least one variable");
}

MomentSet Statistics::learn(InSituContext& ctx) {
  MomentSet local;
  local.vars.reserve(variables_.size());
  for (const Variable v : variables_) {
    local.vars.push_back(learn_field(ctx.sim().field(v)));
  }
  return local;
}

std::vector<DescriptiveModel> Statistics::derive(
    const MomentSet& global) const {
  HIA_REQUIRE(global.vars.size() == variables_.size(),
              "partial model has the wrong variable count");
  std::vector<DescriptiveModel> models;
  models.reserve(global.vars.size());
  for (const MomentAccumulator& acc : global.vars) {
    models.push_back(derive_descriptive(acc));
  }
  return models;
}

std::vector<double> Statistics::raw(InSituContext& ctx) {
  const Box3& box = ctx.sim().field(variables_.front()).owned();
  std::vector<double> out;
  out.reserve(variables_.size() * static_cast<size_t>(box.num_cells()));
  for (const Variable v : variables_) {
    const std::vector<double> values = ctx.sim().field(v).pack_owned();
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

void Statistics::learn_raw(std::span<const double> block,
                           std::optional<MomentSet>& global) const {
  HIA_REQUIRE(block.size() % variables_.size() == 0,
              "raw block is not one slice per variable");
  if (!global.has_value()) {
    global.emplace().vars.resize(variables_.size());
  }
  const size_t n = block.size() / variables_.size();
  for (size_t v = 0; v < variables_.size(); ++v) {
    global->vars[v].learn(block.subspan(v * n, n));
  }
}

}  // namespace hia
