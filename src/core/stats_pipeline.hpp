// The two descriptive-statistics deployments compared in the paper (§III):
//
//   * InSituStatistics — learn and derive both run on the simulation
//     ranks; learn's partial models are merged with an all-reduce so every
//     rank holds the consistent global model (the paper's "all-to-all
//     communication ... to guarantee a consistent model").
//   * HybridStatistics — learn runs in-situ; each rank publishes its packed
//     primary model (7 doubles per variable — the cardinality, extrema and
//     centered aggregates up to order 4) and a single serial in-transit
//     bucket combines and derives.
//   * InTransitStatistics — the pure in-transit end of the spectrum: raw
//     field blocks are shipped and both learn and derive run in-transit
//     (used by the spectrum ablation bench).
#pragma once

#include <mutex>
#include <vector>

#include "analysis/stats/descriptive.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

/// Default variable set: all 14 solution variables.
std::vector<Variable> all_variables();

/// `learn` over a field's owned region without copying it.
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

class InSituStatistics final : public HybridAnalysis {
 public:
  explicit InSituStatistics(std::vector<Variable> variables = all_variables())
      : variables_(std::move(variables)) {}

  [[nodiscard]] std::string name() const override { return "stats-insitu"; }
  void in_situ(InSituContext& ctx) override;

  /// Global models from the most recent invocation (identical on every
  /// rank; recorded by rank 0).
  [[nodiscard]] std::vector<DescriptiveModel> latest_models() const;

 private:
  std::vector<Variable> variables_;
  mutable std::mutex mutex_;
  std::vector<DescriptiveModel> latest_;
};

class HybridStatistics final : public HybridAnalysis {
 public:
  explicit HybridStatistics(std::vector<Variable> variables = all_variables())
      : variables_(std::move(variables)) {}

  [[nodiscard]] std::string name() const override { return "stats-hybrid"; }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return {"stats.partial"};
  }
  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  [[nodiscard]] std::vector<DescriptiveModel> latest_models() const;

 private:
  std::vector<Variable> variables_;
  mutable std::mutex mutex_;
  std::vector<DescriptiveModel> latest_;
  long latest_step_ = -1;  // step of the result held in latest_
};

class InTransitStatistics final : public HybridAnalysis {
 public:
  explicit InTransitStatistics(Variable variable = Variable::kTemperature)
      : variable_(variable) {}

  [[nodiscard]] std::string name() const override { return "stats-intransit"; }
  [[nodiscard]] std::vector<std::string> staged_variables() const override {
    return {"stats.raw"};
  }
  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  [[nodiscard]] DescriptiveModel latest_model() const;

 private:
  Variable variable_;
  mutable std::mutex mutex_;
  DescriptiveModel latest_{};
  long latest_step_ = -1;  // step of the result held in latest_
};

}  // namespace hia
