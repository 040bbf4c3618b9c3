#include "core/isosurface_pipeline.hpp"

#include <cstdio>

#include "analysis/topology/local_tree.hpp"  // extended_block
#include "sim/halo.hpp"
#include "util/numeric.hpp"

namespace hia {

void HybridIsosurface::in_situ(InSituContext& ctx) {
  S3DRank& sim = ctx.sim();
  const GlobalGrid& grid = sim.params().grid;
  Field& field = sim.field(config_.variable);

  // Ghost refresh so the +1-extended cells see current neighbor values.
  exchange_halos(ctx.comm(), sim.decomp(), field, /*ghost=*/1);

  const Box3 block = field.owned();
  const Box3 ext = extended_block(grid, block);
  const TriangleMesh mesh =
      extract_isosurface(grid, ext, field.pack(ext), config_.iso);

  ctx.publish("iso.mesh", ext, mesh.serialize());
}

void HybridIsosurface::in_transit(TaskContext& ctx) {
  TriangleMesh surface;
  for (const DataDescriptor& desc : ctx.task().inputs) {
    surface.append(TriangleMesh::deserialize(ctx.pull_doubles(desc)));
  }

  if (!config_.output_dir.empty()) {
    char path[512];
    std::snprintf(path, sizeof(path), "%s/%s.step%06ld.obj",
                  config_.output_dir.c_str(), name().c_str(),
                  ctx.task().step);
    write_obj(surface, path);
  }

  // Result blob: triangle count + total area.
  ctx.set_result(to_bytes(std::vector{
      static_cast<double>(surface.num_triangles()), surface.area()}));
  latest_.offer(ctx.task().step, std::move(surface));
}

}  // namespace hia
