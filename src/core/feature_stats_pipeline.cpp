#include "core/feature_stats_pipeline.hpp"

#include "analysis/topology/local_tree.hpp"
#include "sim/halo.hpp"
#include "util/numeric.hpp"

namespace hia {

void HybridFeatureStatistics::in_situ(InSituContext& ctx) {
  S3DRank& sim = ctx.sim();
  const GlobalGrid& grid = sim.params().grid;
  Field& field = sim.field(config_.field);
  Field& measure = sim.field(config_.measure);

  // Both fields need current +1 ghosts for the cross-face links.
  std::vector<Field*> fields{&field, &measure};
  exchange_halos(ctx.comm(), sim.decomp(), fields, /*ghost=*/1);

  double threshold = config_.threshold;
  if (!config_.threshold_steering_key.empty()) {
    // Rank 0 reads the board; the value is broadcast so every rank
    // segments with the same threshold even if a post lands mid-step.
    if (ctx.comm().rank() == 0) {
      threshold = ctx.steering().read_or(config_.threshold_steering_key,
                                         config_.threshold);
    }
    threshold = ctx.comm().broadcast_value(0, threshold);
  }

  const Box3 block = field.owned();
  const Box3 ext = extended_block(grid, block);
  const LocalFeatureData local = compute_local_features(
      grid, block, ext, field.pack(ext), measure.pack(ext), threshold);

  ctx.publish("fstats.partial", block, local.serialize());
}

void HybridFeatureStatistics::in_transit(TaskContext& ctx) {
  std::vector<LocalFeatureData> parts;
  parts.reserve(ctx.task().inputs.size());
  for (const DataDescriptor& desc : ctx.task().inputs) {
    parts.push_back(LocalFeatureData::deserialize(ctx.pull_doubles(desc)));
  }
  auto features = combine_features(parts);

  // Result blob: the top features' id, size, max, centroid, mean/stddev.
  std::vector<double> flat;
  const size_t top =
      std::min<size_t>(features.size(), static_cast<size_t>(config_.top_features));
  flat.push_back(static_cast<double>(features.size()));
  for (size_t f = 0; f < top; ++f) {
    const auto& feat = features[f];
    const auto model = derive_descriptive(feat.measure);
    flat.push_back(static_cast<double>(feat.id));
    flat.push_back(static_cast<double>(feat.voxels));
    flat.push_back(feat.max_value);
    flat.insert(flat.end(), {feat.centroid[0], feat.centroid[1],
                             feat.centroid[2], model.mean, model.stddev});
  }
  ctx.set_result(to_bytes(flat));
  latest_.offer(ctx.task().step, std::move(features));
}

}  // namespace hia
