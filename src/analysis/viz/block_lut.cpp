#include "analysis/viz/block_lut.hpp"

#include "util/error.hpp"

namespace hia {

void BlockLut::add_block(DownsampledBlock block) {
  HIA_REQUIRE(block.stride >= 1 && !block.bounds.empty(),
              "malformed downsampled block");
  size_t count = 1;
  for (const int64_t n : block.samples) {
    HIA_REQUIRE(n >= 1, "downsampled block needs a sample per axis");
    count *= static_cast<size_t>(n);
  }
  HIA_REQUIRE(block.values.size() == count,
              "downsampled block values do not match its sample counts");
  blocks_.push_back(std::move(block));
}

}  // namespace hia
