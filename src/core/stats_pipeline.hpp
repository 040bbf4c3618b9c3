// Descriptive statistics (paper §III), written once as learn -> reduce ->
// derive and run under any of the three placements of Table II:
//
//   * kInSitu ("stats-insitu") — learn and derive both run on the
//     simulation ranks; learn's partial models are merged with an
//     all-reduce so every rank holds the consistent global model (the
//     paper's "all-to-all communication ... to guarantee a consistent
//     model").
//   * kHybrid ("stats-hybrid") — learn runs in-situ; each rank publishes
//     its packed primary model (7 doubles per variable — the cardinality,
//     extrema and centered aggregates up to order 4) and a single serial
//     in-transit bucket combines and derives.
//   * kInTransit ("stats-intransit") — the pure in-transit end of the
//     spectrum: each rank ships its raw owned values, and both learn and
//     derive run in-transit.
//
// The placement picks only the reduce step; the learn and derive kernels
// are the same under all three.
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

/// Packs one accumulator per variable into a flat double vector (and back).
std::vector<double> pack_accumulators(
    const std::vector<MomentAccumulator>& accs);
std::vector<MomentAccumulator> unpack_accumulators(
    std::span<const double> packed);

/// Serializes derived models for result blobs ([count, mean, min, max,
/// variance, stddev, skewness, kurtosis] per variable).
std::vector<std::byte> serialize_models(
    const std::vector<DescriptiveModel>& models);
std::vector<DescriptiveModel> deserialize_models(
    std::span<const std::byte> bytes);

/// Descriptive statistics of `variables` (at least one); `placement` picks
/// where the reduce step runs and so the name and the staged variables.
class Statistics : public HybridAnalysis {
 public:
  explicit Statistics(Placement placement,
                      std::vector<Variable> variables = all_variables());

  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::vector<std::string> staged_variables() const override;
  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  /// Global models (one per variable, in construction order) from the
  /// newest finished step.
  [[nodiscard]] std::vector<DescriptiveModel> latest_models() const {
    return latest_.get();
  }

 private:
  Placement placement_;
  std::vector<Variable> variables_;
  Latest<std::vector<DescriptiveModel>> latest_;
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
