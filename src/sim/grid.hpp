// Global structured grid and its block decomposition across simulation
// ranks, mirroring S3D's regular 3-D domain decomposition (Table I: each
// core owns a 100x49x43 or 50x49x43 sub-domain of the 1600x1372x430 grid).
#pragma once

#include <array>

#include "sim/box.hpp"
#include "util/error.hpp"

namespace hia {

/// The global simulation grid: vertex-sampled fields on dims[0..2] points
/// with uniform spacing over a physical domain of size `physical`.
struct GlobalGrid {
  std::array<int64_t, 3> dims{64, 64, 64};
  std::array<double, 3> physical{1.0, 1.0, 1.0};

  [[nodiscard]] Box3 bounds() const {
    return Box3{{0, 0, 0}, {dims[0], dims[1], dims[2]}};
  }
  [[nodiscard]] int64_t num_points() const {
    return dims[0] * dims[1] * dims[2];
  }
  [[nodiscard]] double spacing(int axis) const {
    return physical[axis] / static_cast<double>(dims[axis]);
  }
  /// Physical coordinate of grid point i along axis.
  [[nodiscard]] double coord(int axis, int64_t i) const {
    return spacing(axis) * (static_cast<double>(i) + 0.5);
  }
};

/// Regular block decomposition of a grid over ranks_per_axis blocks.
class Decomposition {
 public:
  Decomposition(const GlobalGrid& grid, std::array<int, 3> ranks_per_axis)
      : grid_(grid), ranks_(ranks_per_axis) {
    for (int a = 0; a < 3; ++a) {
      HIA_REQUIRE(ranks_[a] > 0, "decomposition needs positive rank counts");
      HIA_REQUIRE(grid_.dims[a] >= ranks_[a],
                  "more ranks than grid points along an axis");
    }
  }

  [[nodiscard]] int num_ranks() const {
    return ranks_[0] * ranks_[1] * ranks_[2];
  }
  [[nodiscard]] const GlobalGrid& grid() const { return grid_; }
  [[nodiscard]] std::array<int, 3> ranks_per_axis() const { return ranks_; }

  /// 3-D rank coordinates of linear rank r (x fastest).
  [[nodiscard]] std::array<int, 3> rank_coords(int r) const {
    HIA_REQUIRE(r >= 0 && r < num_ranks(), "rank out of range");
    return {r % ranks_[0], (r / ranks_[0]) % ranks_[1],
            r / (ranks_[0] * ranks_[1])};
  }

  [[nodiscard]] int rank_at(std::array<int, 3> rc) const {
    for (int a = 0; a < 3; ++a) {
      if (rc[a] < 0 || rc[a] >= ranks_[a]) return -1;
    }
    return rc[0] + ranks_[0] * (rc[1] + ranks_[1] * rc[2]);
  }

  /// The block of grid points owned by rank r. Blocks tile the grid
  /// exactly; remainders are spread across the leading blocks.
  [[nodiscard]] Box3 block(int r) const {
    const auto rc = rank_coords(r);
    Box3 b;
    for (int a = 0; a < 3; ++a) {
      const int64_t base = grid_.dims[a] / ranks_[a];
      const int64_t rem = grid_.dims[a] % ranks_[a];
      const int64_t c = rc[a];
      b.lo[a] = c * base + std::min<int64_t>(c, rem);
      b.hi[a] = b.lo[a] + base + (c < rem ? 1 : 0);
    }
    return b;
  }

  /// Neighbor rank in direction (dx, dy, dz) in {-1,0,1}^3, or -1 at the
  /// domain boundary.
  [[nodiscard]] int neighbor(int r, int dx, int dy, int dz) const {
    auto rc = rank_coords(r);
    rc[0] += dx; rc[1] += dy; rc[2] += dz;
    return rank_at(rc);
  }

  /// The rank owning global point (i, j, k).
  [[nodiscard]] int owner(int64_t i, int64_t j, int64_t k) const;

 private:
  [[nodiscard]] int owner_axis(int axis, int64_t idx) const {
    const int64_t base = grid_.dims[axis] / ranks_[axis];
    const int64_t rem = grid_.dims[axis] % ranks_[axis];
    // Leading `rem` blocks have size base+1.
    const int64_t big = (base + 1) * rem;
    if (idx < big) return static_cast<int>(idx / (base + 1));
    return static_cast<int>(rem + (idx - big) / base);
  }

  GlobalGrid grid_;
  std::array<int, 3> ranks_;
};

inline int Decomposition::owner(int64_t i, int64_t j, int64_t k) const {
  HIA_REQUIRE(grid_.bounds().contains(i, j, k), "point outside grid");
  return rank_at({owner_axis(0, i), owner_axis(1, j), owner_axis(2, k)});
}

}  // namespace hia
