// Volume ray casting: the one marcher both visualization placements use.
// The in-situ variant renders each rank's full-resolution brick
// (BrickSampler) and composites; the hybrid variant renders the
// down-sampled blocks through the block look-up table (BlockLut) on a
// single in-transit core.
//
// Both samplers reduce to the same thing: trilinear lattices in global
// index space. Per frame the marcher builds
//   * a TransferTable: the transfer function with its opacity corrected
//     for the ray step, so no sample pays for a std::pow or a search of the
//     control points;
//   * per lattice: origin, stride, clamp limits and the value offsets of a
//     cell's far corners (0 on a one-point axis, so no neighbour clamp
//     remains).
// Per ray it keeps the lattice the last sample fell in, samples a chunk of
// 16 steps, then runs the transfer function, front-to-back compositing and
// early exit over the chunk: the lattice lookups of a chunk do not wait on
// the compositing chain. Every sample uses the arithmetic of the old
// per-sample renderer (the reference in tests/test_viz.cpp), so images are
// unchanged.
#pragma once

#include <span>

#include "analysis/viz/camera.hpp"
#include "analysis/viz/image.hpp"
#include "analysis/viz/transfer_function.hpp"
#include "sim/box.hpp"
#include "sim/grid.hpp"
#include "util/vec3.hpp"

namespace hia {

class BlockLut;

/// Physical-space axis-aligned bounds.
struct Aabb {
  Vec3 lo, hi;

  /// Ray-box intersection; returns false on miss, else [t_enter, t_exit].
  [[nodiscard]] bool intersect(const Ray& ray, double& t_enter,
                               double& t_exit) const;
};

/// Physical bounds of an index-space box on the given grid (cell-centered
/// samples: the box of point positions, padded half a cell outward).
Aabb physical_bounds(const GlobalGrid& grid, const Box3& box);

/// One full-resolution brick for trilinear sampling. Positions beyond its
/// outermost points clamp to them, so brick edges extrapolate flat.
class BrickSampler {
 public:
  BrickSampler(const GlobalGrid& grid, const Box3& box,
               std::span<const double> values);

  [[nodiscard]] const GlobalGrid& grid() const { return grid_; }
  [[nodiscard]] const Box3& box() const { return box_; }
  [[nodiscard]] std::span<const double> values() const { return values_; }

 private:
  const GlobalGrid& grid_;
  Box3 box_;
  std::span<const double> values_;
};

struct RenderParams {
  double step = 0.004;          // ray-march step, physical units
  double reference_step = 0.004;  // step the transfer function assumes
  float early_exit_alpha = 0.99f;
};

/// Marches all camera rays through `bounds`, sampling the volume and
/// compositing front-to-back into `image` (premultiplied). Pixels whose
/// rays miss `bounds` are left untouched, so per-brick images can be
/// composited afterwards. Samples in the gaps between down-sampled blocks
/// (no block's points surround them) are skipped.
void render_volume(const OrthoCamera& camera, const BrickSampler& brick,
                   const Aabb& bounds, const TransferFunction& tf,
                   const RenderParams& params, Image& image);
void render_volume(const OrthoCamera& camera, const BlockLut& lut,
                   const Aabb& bounds, const TransferFunction& tf,
                   const RenderParams& params, Image& image);

}  // namespace hia
