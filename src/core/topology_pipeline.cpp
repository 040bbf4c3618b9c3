#include "core/topology_pipeline.hpp"

#include <cstdio>

#include "io/bp_lite.hpp"
#include "obs/trace.hpp"
#include "sim/halo.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

std::vector<std::byte> TreeSummary::serialize() const {
  std::vector<double> flat;
  flat.reserve(5 + top_pairs.size() * 4);
  flat.push_back(static_cast<double>(step));
  flat.push_back(static_cast<double>(tree_nodes));
  flat.push_back(static_cast<double>(tree_leaves));
  flat.push_back(static_cast<double>(peak_live_nodes));
  flat.push_back(static_cast<double>(evicted));
  for (const PersistencePair& p : top_pairs) {
    flat.push_back(static_cast<double>(p.max_id));
    flat.push_back(p.max_value);
    flat.push_back(static_cast<double>(p.saddle_id));
    flat.push_back(p.saddle_value);
  }
  return to_bytes(flat);
}

TreeSummary TreeSummary::deserialize(std::span<const std::byte> bytes) {
  const std::vector<double> flat = to_doubles(bytes);
  HIA_REQUIRE(flat.size() >= 5, "tree summary blob malformed");
  TreeSummary s;
  s.step = round_to<long>(flat[0]);
  s.tree_nodes = round_to<size_t>(flat[1]);
  s.tree_leaves = round_to<size_t>(flat[2]);
  s.peak_live_nodes = round_to<size_t>(flat[3]);
  s.evicted = round_to<size_t>(flat[4]);
  HIA_REQUIRE((flat.size() - 5) % 4 == 0, "tree summary pair data malformed");
  for (size_t off = 5; off + 3 < flat.size(); off += 4) {
    PersistencePair p;
    p.max_id = round_to<uint64_t>(flat[off]);
    p.max_value = flat[off + 1];
    p.saddle_id = round_to<uint64_t>(flat[off + 2]);
    p.saddle_value = flat[off + 3];
    s.top_pairs.push_back(p);
  }
  return s;
}

void HybridTopology::in_situ(InSituContext& ctx) {
  S3DRank& sim = ctx.sim();
  const GlobalGrid& grid = sim.params().grid;
  std::call_once(grid_once_, [&] { grid_ = grid; });
  Field& field = sim.field(config_.variable);

  // Refresh ghosts so the +1 extension sees the neighbors' current values
  // (the topological equivalent of simulation ghost cells).
  exchange_halos(ctx.comm(), sim.decomp(), field, /*ghost=*/1);

  const Box3 block = field.owned();
  const Box3 ext = extended_block(grid, block);
  const auto values = field.pack(ext);
  obs::Span subtree_span("insitu", "topo.subtree",
                         {.rank = ctx.comm().rank(), .step = ctx.step()});
  const SubtreeData subtree = compute_rank_subtree(grid, block, values, ext);

  ctx.publish("topo.subtree", ext, subtree.serialize());
}

void HybridTopology::in_transit(TaskContext& ctx) {
  // Geometry-aware streaming ingestion: the task descriptors list every
  // rank's extended block before any payload is pulled, so each vertex is
  // finalized (and, if regular, evicted) the moment the last subtree
  // containing it arrives — peak memory tracks the open boundary, not the
  // whole intermediate stream.
  HIA_REQUIRE(grid_.has_value(), "in_transit before any in_situ stage");
  const GlobalGrid& grid = *grid_;
  std::vector<Box3> blocks;
  blocks.reserve(ctx.task().inputs.size());
  for (const DataDescriptor& desc : ctx.task().inputs) {
    blocks.push_back(desc.box);
  }
  StreamingCombiner combiner;
  // Evicted-arc sink: finalized regular vertices leave memory and stream
  // into a BP-lite record ([id, value, child, parent] rows).
  std::vector<double> evicted_rows;
  if (!config_.arc_output_dir.empty()) {
    combiner.set_eviction_sink([&evicted_rows](const EvictedArc& arc) {
      evicted_rows.push_back(static_cast<double>(arc.id));
      evicted_rows.push_back(arc.value);
      evicted_rows.push_back(static_cast<double>(arc.child_id));
      evicted_rows.push_back(static_cast<double>(arc.parent_id));
    });
  }
  SubtreeStreamDriver driver(grid, std::move(blocks));
  {
    obs::Span ingest_span("intransit", "topo.ingest",
                          {.bucket = ctx.bucket(), .step = ctx.task().step});
    for (const DataDescriptor& desc : ctx.task().inputs) {
      driver.ingest(combiner,
                    SubtreeData::deserialize(ctx.pull_doubles(desc)));
    }
  }

  TreeSummary summary;
  summary.step = ctx.task().step;
  summary.peak_live_nodes = combiner.peak_live_nodes();

  MergeTree tree = combiner.finish();
  summary.evicted = combiner.evicted_count();
  if (!config_.arc_output_dir.empty()) {
    char path[512];
    std::snprintf(path, sizeof(path), "%s/%s.step%06ld.arcs.bp",
                  config_.arc_output_dir.c_str(), name().c_str(),
                  ctx.task().step);
    bp_write_file(path, {BpEntry{"evicted_arcs", Box3{},
                                 std::move(evicted_rows)}});
  }
  if (config_.simplify_threshold > 0.0) {
    tree = simplify(tree, config_.simplify_threshold);
  }
  summary.tree_nodes = tree.size();
  summary.tree_leaves = tree.leaves().size();

  auto pairs = persistence_pairs(tree);
  if (static_cast<int>(pairs.size()) > config_.top_pairs) {
    pairs.resize(static_cast<size_t>(config_.top_pairs));
  }
  summary.top_pairs = pairs;

  ctx.set_result(summary.serialize());
  latest_.offer(ctx.task().step, {std::move(summary), std::move(tree)});
}

}  // namespace hia
