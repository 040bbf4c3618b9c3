// The two visualization deployments compared in the paper (§III, Fig. 2):
//
//   * InSituVisualization — every rank volume-renders its full-resolution
//     brick against the shared camera; partial images are gathered and
//     composited on rank 0 (sort-last parallel rendering, as in Yu et al.).
//   * HybridVisualization — every rank down-samples its brick in-situ
//     (default: every 8th point, configurable); a single serial in-transit
//     bucket receives all blocks, builds the block look-up table, and ray
//     casts the down-sampled data.
#pragma once

#include <mutex>
#include <optional>
#include <string>

#include "analysis/viz/block_lut.hpp"
#include "analysis/viz/camera.hpp"
#include "analysis/viz/compositor.hpp"
#include "analysis/viz/raycast.hpp"
#include "analysis/viz/transfer_function.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

struct VizConfig {
  Variable variable = Variable::kTemperature;
  int image_size = 128;          // square output image
  double tf_lo = 0.8, tf_hi = 6.0;  // transfer-function range
  int downsample_stride = 8;     // hybrid variant only (paper: 8)
  double step_scale = 1.0;       // ray step relative to one grid cell
  std::string output_dir;        // when set, PPMs are written per step
};

/// Builds the shared camera/renderer state for a grid.
struct RenderSetup {
  OrthoCamera camera;
  TransferFunction tf;
  RenderParams params;
  static RenderSetup make(const GlobalGrid& grid, const VizConfig& cfg);
};

class InSituVisualization final : public HybridAnalysis {
 public:
  explicit InSituVisualization(VizConfig config)
      : HybridAnalysis("viz-insitu", {}), config_(config) {}

  void in_situ(InSituContext& ctx) override;

  /// Composited frame from the most recent invocation (recorded by rank 0).
  [[nodiscard]] std::optional<Image> latest_image() const {
    return latest_.get();
  }

 private:
  VizConfig config_;
  Latest<std::optional<Image>> latest_;
};

class HybridVisualization final : public HybridAnalysis {
 public:
  explicit HybridVisualization(VizConfig config)
      : HybridAnalysis("viz-hybrid", {"viz.block"}), config_(config) {}

  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  [[nodiscard]] std::optional<Image> latest_image() const {
    return latest_.get();
  }

 private:
  VizConfig config_;
  std::once_flag grid_once_;
  std::optional<GlobalGrid> grid_;  // captured in-situ for the renderer
  Latest<std::optional<Image>> latest_;
};

}  // namespace hia
