// Hybrid feature-based statistics pipeline: per-ignition-kernel (or any
// superlevel-set feature) statistics of a measure variable, computed with
// the same in-situ/in-transit split as the topology pipeline. Implements
// the paper's §VI plan of combining the merge-tree segmentation with the
// statistics framework (refs [30], [43]).
#pragma once

#include "analysis/topology/feature_stats.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

struct FeatureStatsConfig {
  Variable field = Variable::kTemperature;     // defines the features
  Variable measure = Variable::kYOH;           // statistic per feature
  double threshold = 2.0;                      // superlevel threshold
  int top_features = 16;                       // carried in the result blob
  /// When non-empty, the threshold is read from the steering board under
  /// this key each invocation (falling back to `threshold`), enabling
  /// closed-loop threshold adaptation by an in-transit stage.
  std::string threshold_steering_key;
};

class HybridFeatureStatistics final : public HybridAnalysis {
 public:
  explicit HybridFeatureStatistics(FeatureStatsConfig config)
      : HybridAnalysis("fstats-hybrid", {"fstats.partial"}), config_(config) {}

  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  /// Global feature table from the most recent invocation, sorted by
  /// descending voxel count.
  [[nodiscard]] std::vector<GlobalFeature> latest_features() const {
    return latest_.get();
  }

  [[nodiscard]] const FeatureStatsConfig& config() const { return config_; }

 private:
  FeatureStatsConfig config_;
  Latest<std::vector<GlobalFeature>> latest_;
};

}  // namespace hia
