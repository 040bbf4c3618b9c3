// The hybrid topology pipeline (paper §III, "Topology"): merge subtrees are
// computed in-situ with the adapted in-core algorithm, shipped as compact
// intermediate data (the paper measures ~87 MB total at 4480 ranks), and
// glued into the global merge tree by the streaming algorithm on a single
// serial in-transit bucket. No fully in-situ variant exists because merge
// tree construction "is inherently not data-parallel" — exactly the class
// of algorithm the hybrid formulation unlocks.
#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "analysis/topology/local_tree.hpp"
#include "analysis/topology/merge_tree.hpp"
#include "analysis/topology/stream_combine.hpp"
#include "core/analysis.hpp"
#include "sim/species.hpp"

namespace hia {

struct TopologyConfig {
  Variable variable = Variable::kTemperature;
  /// Persistence threshold applied in-transit before reporting features;
  /// 0 = no simplification.
  double simplify_threshold = 0.0;
  /// Number of top-persistence pairs carried in the task result.
  int top_pairs = 16;
  /// When set, evicted (finalized regular) arcs are streamed to a BP-lite
  /// file per step — the paper's "writes those vertices and edges to disk
  /// that have been finalized, removing them from memory".
  std::string arc_output_dir;
};

/// Result summary of one in-transit combination.
struct TreeSummary {
  long step = 0;
  size_t tree_nodes = 0;        // reduced (critical-point) tree size
  size_t tree_leaves = 0;       // maxima count after simplification
  size_t peak_live_nodes = 0;   // streaming-memory footprint
  size_t evicted = 0;
  std::vector<PersistencePair> top_pairs;

  [[nodiscard]] std::vector<std::byte> serialize() const;
  static TreeSummary deserialize(std::span<const std::byte> bytes);
};

class HybridTopology final : public HybridAnalysis {
 public:
  explicit HybridTopology(TopologyConfig config)
      : HybridAnalysis("topo-hybrid", {"topo.subtree"}), config_(config) {}

  void in_situ(InSituContext& ctx) override;
  void in_transit(TaskContext& ctx) override;

  [[nodiscard]] TreeSummary latest_summary() const {
    return latest_.get().summary;
  }
  /// The most recent full reduced merge tree (for tests/examples).
  [[nodiscard]] MergeTree latest_tree() const { return latest_.get().tree; }

 private:
  struct Result {
    TreeSummary summary;
    MergeTree tree;
  };

  TopologyConfig config_;
  std::once_flag grid_once_;
  std::optional<GlobalGrid> grid_;  // captured in-situ for the stream driver
  Latest<Result> latest_;
};

}  // namespace hia
