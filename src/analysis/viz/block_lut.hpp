// The in-transit half of the hybrid visualization pipeline.
//
// "A single, serial in-transit node receives all blocks of down-sampled
// data and generates a look-up table that records the upper and lower
// bounds of each block to encode their spatial relationship. We use this
// small look-up table to identify voxel positions during the ray casting
// process, avoiding expensive visibility sorting or volume reconstruction
// steps." (paper §III, Visualization)
//
// BlockLut holds the blocks; render_volume (raycast.hpp) walks it. Each
// ray keeps the block its last sample fell in and consults the bounds
// table only when a sample leaves that block; within a block it
// interpolates trilinearly on the block's coarse lattice.
#pragma once

#include <vector>

#include "analysis/viz/downsample.hpp"
#include "sim/grid.hpp"

namespace hia {

class BlockLut {
 public:
  explicit BlockLut(const GlobalGrid& grid) : grid_(grid) {}

  /// Registers a down-sampled block (takes ownership).
  void add_block(DownsampledBlock block);

  [[nodiscard]] const GlobalGrid& grid() const { return grid_; }
  [[nodiscard]] const std::vector<DownsampledBlock>& blocks() const {
    return blocks_;
  }

 private:
  const GlobalGrid& grid_;
  std::vector<DownsampledBlock> blocks_;
};

}  // namespace hia
