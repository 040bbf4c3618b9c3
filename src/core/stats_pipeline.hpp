// Descriptive statistics (paper §III) as one Mergeable analysis under the
// three placements of Table II: "stats-insitu" (all-reduce of the primary
// models, the paper's "all-to-all communication ... to guarantee a
// consistent model"), "stats-hybrid" (each rank publishes 7 doubles per
// variable: cardinality, extrema and centered aggregates up to order 4)
// and "stats-intransit" (each rank ships its raw owned values; learn runs
// in transit). The learn and derive kernels are the same under all three.
#pragma once

#include <vector>

#include "analysis/stats/descriptive.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

/// Default variable set: all 14 solution variables.
std::vector<Variable> all_variables();

/// `learn` over a field's owned region without copying it: one
/// MomentAccumulator::learn per owned x row.
MomentAccumulator learn_field(const Field& field);

/// The statistics partial: one primary model per variable, combined
/// variable by variable. Wire format: MomentAccumulator::kPackedSize
/// doubles per variable.
struct MomentSet {
  std::vector<MomentAccumulator> vars;

  void combine(const MomentSet& other);
  [[nodiscard]] std::vector<double> serialize() const;
  static MomentSet deserialize(std::span<const double> packed);
};

/// Serializes derived models for result blobs ([count, mean, min, max,
/// variance, stddev, skewness, kurtosis] per variable).
std::vector<std::byte> serialize_models(
    const std::vector<DescriptiveModel>& models);
std::vector<DescriptiveModel> deserialize_models(
    std::span<const std::byte> bytes);

/// Descriptive statistics of `variables` (at least one) under any
/// placement: names "stats-insitu", "stats-hybrid", "stats-intransit".
class Statistics : public Mergeable<MomentSet, std::vector<DescriptiveModel>> {
 public:
  explicit Statistics(Placement placement,
                      std::vector<Variable> variables = all_variables());

  /// Global models (one per variable, in construction order) from the
  /// newest finished step.
  [[nodiscard]] std::vector<DescriptiveModel> latest_models() const {
    return latest();
  }

 private:
  MomentSet learn(InSituContext& ctx) override;
  std::vector<DescriptiveModel> derive(const MomentSet& global) const override;
  std::vector<std::byte> row(
      const std::vector<DescriptiveModel>& models) const override {
    return serialize_models(models);
  }
  /// Every variable's owned values, one slice per variable.
  std::vector<double> raw(InSituContext& ctx) override;
  void learn_raw(std::span<const double> block,
                 std::optional<MomentSet>& global) const override;

  std::vector<Variable> variables_;
};

/// The two placements Table II and the benchmark construct by name.
class InSituStatistics final : public Statistics {
 public:
  explicit InSituStatistics(std::vector<Variable> variables = all_variables())
      : Statistics(Placement::kInSitu, std::move(variables)) {}
};

class HybridStatistics final : public Statistics {
 public:
  explicit HybridStatistics(std::vector<Variable> variables = all_variables())
      : Statistics(Placement::kHybrid, std::move(variables)) {}
};

}  // namespace hia
