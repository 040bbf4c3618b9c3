// In-situ stage of the hybrid topology pipeline: per-rank merge (join)
// subtree computation.
//
// Adapts the low-overhead in-core algorithm of Carr–Snoeyink–Axen [32]
// (sort + union-find, specialized to join trees of superlevel sets) to a
// rank's sub-domain. Following the paper, "special care must be taken to
// include additional boundary vertices to guarantee that neighboring
// subtrees can be glued appropriately":
//
//   * ranks compute over their block *extended by one layer in each
//     positive axis direction* (clamped to the domain), so adjacent blocks
//     share a full plane of vertices — the topological equivalent of
//     simulation ghost cells;
//   * the emitted subtree retains all critical vertices (maxima, merge
//     saddles, the local root) plus every vertex on a shared boundary
//     face, with edges linking each retained vertex to its nearest
//     retained ancestor.
//
// The union of all ranks' subtree edges, glued on shared vertex ids, has
// the same join tree as the full domain (restricted to retained vertices),
// which is what the in-transit streaming combiner computes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/topology/merge_tree.hpp"
#include "sim/box.hpp"
#include "sim/grid.hpp"

namespace hia {

/// The intermediate data a rank ships to the staging area: retained
/// vertices and gluing edges of its local merge subtree.
struct SubtreeData {
  std::vector<uint64_t> vertex_ids;   // global ids (grid linear index)
  std::vector<double> vertex_values;
  // 1 = interior to this block (no other rank's subtree references it, so
  // the streaming combiner may finalize it as soon as this subtree is
  // ingested); 0 = on a shared boundary face.
  std::vector<uint8_t> interior;
  // Edge k connects vertex_ids-index edge_child[k] -> edge_parent[k]
  // (child strictly above parent in (value, id) order).
  std::vector<uint32_t> edge_child;
  std::vector<uint32_t> edge_parent;

  [[nodiscard]] size_t num_vertices() const { return vertex_ids.size(); }
  [[nodiscard]] size_t num_edges() const { return edge_child.size(); }
  [[nodiscard]] size_t byte_size() const {
    return vertex_ids.size() *
               (sizeof(uint64_t) + sizeof(double) + sizeof(uint8_t)) +
           edge_child.size() * 2 * sizeof(uint32_t);
  }

  /// Flat double encoding for Dart transport (ids are < 2^53, exact).
  [[nodiscard]] std::vector<double> serialize() const;
  static SubtreeData deserialize(std::span<const double> data);
};

/// Global linear id of grid point (i, j, k).
inline uint64_t grid_vertex_id(const GlobalGrid& grid, int64_t i, int64_t j,
                               int64_t k) {
  return static_cast<uint64_t>((k * grid.dims[1] + j) * grid.dims[0] + i);
}

/// Computes the fully augmented local join tree of `values` over `box`
/// (x-fastest packed, 6-connectivity, descending sweep). Every vertex of
/// the box appears as a node, in descending (value, id) order; ids are
/// global grid ids.
MergeTree build_local_tree(const GlobalGrid& grid, const Box3& box,
                           std::span<const double> values);

/// The in-situ computation a rank performs per timestep: the join-tree
/// sweep of its extended block, reduced to the glue subtree. Retained are
/// the critical vertices (leaves, saddles, the root) plus all vertices on
/// faces of `extended_box` that are interior to the domain (shared with a
/// neighbor), with nearest-retained-ancestor edges. Vertices and edges
/// appear in descending (value, id) order of their (child) vertex.
SubtreeData compute_rank_subtree(const GlobalGrid& grid, const Box3& block,
                                 std::span<const double> extended_values,
                                 const Box3& extended_box);

/// The extended box a rank computes over: block grown by +1 in each
/// positive direction, clamped to the domain.
Box3 extended_block(const GlobalGrid& grid, const Box3& block);

}  // namespace hia
