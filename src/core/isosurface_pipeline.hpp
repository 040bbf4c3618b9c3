// Hybrid isosurface extraction: each rank marches the cells of its
// extended block in-situ (the cell sets tile the domain exactly, so no
// triangle is produced twice and the Kuhn subdivision keeps the surface
// crack-free across ranks); the in-transit stage concatenates the partial
// meshes, reports surface statistics, and optionally writes an OBJ per
// step for external viewers — the "on-the-fly visualization" product that
// post-processing pipelines would otherwise compute from checkpoints.
#pragma once

#include <optional>
#include <string>

#include "analysis/viz/isosurface.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

struct IsosurfaceConfig {
  Variable variable = Variable::kTemperature;
  double iso = 2.0;
  std::string output_dir;  // when set, OBJ files are written per step
};

class HybridIsosurface final : public HybridAnalysis {
 public:
  explicit HybridIsosurface(IsosurfaceConfig config)
      : HybridAnalysis("iso-hybrid", {"iso.mesh"}), config_(config) {}

  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  /// The assembled surface from the most recent invocation.
  [[nodiscard]] std::optional<TriangleMesh> latest_mesh() const {
    return latest_.get();
  }

 private:
  IsosurfaceConfig config_;
  Latest<std::optional<TriangleMesh>> latest_;
};

}  // namespace hia
