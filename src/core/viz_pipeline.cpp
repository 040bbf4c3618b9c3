#include "core/viz_pipeline.hpp"

#include <cstdio>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/numeric.hpp"

namespace hia {

RenderSetup RenderSetup::make(const GlobalGrid& grid, const VizConfig& cfg) {
  const Vec3 size{grid.physical[0], grid.physical[1], grid.physical[2]};
  OrthoCamera camera =
      OrthoCamera::default_view(size, cfg.image_size, cfg.image_size);
  TransferFunction tf = TransferFunction::flame(cfg.tf_lo, cfg.tf_hi);
  RenderParams params;
  // One ray step per grid cell: the opacity table's reference step.
  params.step = grid.spacing(0);
  params.reference_step = grid.spacing(0);
  return RenderSetup{std::move(camera), std::move(tf), params};
}

namespace {
void maybe_write_ppm(const std::string& dir, const std::string& stem,
                     long step, const Image& image) {
  if (dir.empty()) return;
  char path[512];
  std::snprintf(path, sizeof(path), "%s/%s.step%06ld.ppm", dir.c_str(),
                stem.c_str(), step);
  write_ppm(image, path);
}
}  // namespace

// -------------------------------------------------- InSituVisualization --

void InSituVisualization::in_situ(InSituContext& ctx) {
  const GlobalGrid& grid = ctx.sim().params().grid;
  const RenderSetup setup = RenderSetup::make(grid, config_);

  // Render this rank's full-resolution brick.
  const Field& field = ctx.sim().field(config_.variable);
  const Box3& box = field.owned();
  const auto values = field.pack_owned();
  const BrickSampler sampler(grid, box, values);

  Image partial(config_.image_size, config_.image_size);
  {
    obs::Span render_span("insitu", "viz.render",
                          {.rank = ctx.comm().rank(), .step = ctx.step()});
    render_volume(setup.camera, sampler, physical_bounds(grid, box), setup.tf,
                  setup.params, partial);
  }

  // Sort-last composite: gather (image, depth) to rank 0.
  auto payload = serialize_image(partial);
  payload.push_back(brick_depth(grid, box, setup.camera));
  const auto gathered = ctx.comm().gather(0, to_bytes(payload));

  if (ctx.comm().rank() == 0) {
    obs::Span composite_span("insitu", "viz.composite",
                             {.rank = 0, .step = ctx.step()});
    std::vector<BrickImage> bricks;
    bricks.reserve(gathered.size());
    for (const auto& blob : gathered) {
      std::vector<double> flat = to_doubles(blob);
      HIA_ASSERT(!flat.empty());
      const double depth = flat.back();
      flat.pop_back();
      bricks.push_back(BrickImage{deserialize_image(flat), depth});
    }
    Image frame = composite(std::move(bricks));
    maybe_write_ppm(config_.output_dir, name(), ctx.step(), frame);
    latest_.offer(ctx.step(), std::move(frame));
  }
}

// ------------------------------------------------- HybridVisualization --

void HybridVisualization::in_situ(InSituContext& ctx) {
  const GlobalGrid& grid = ctx.sim().params().grid;
  std::call_once(grid_once_, [&] { grid_ = grid; });

  const Field& field = ctx.sim().field(config_.variable);
  const Box3& box = field.owned();
  const DownsampledBlock block =
      downsample_block(box, field.pack_owned(), config_.downsample_stride);
  ctx.publish("viz.block", box, block.serialize());
}

void HybridVisualization::in_transit(TaskContext& ctx) {
  HIA_REQUIRE(grid_.has_value(), "in_transit before any in_situ stage");
  const GlobalGrid& grid = *grid_;
  const RenderSetup setup = RenderSetup::make(grid, config_);

  // Build the block look-up table from all down-sampled blocks.
  BlockLut lut(grid);
  for (const DataDescriptor& desc : ctx.task().inputs) {
    lut.add_block(DownsampledBlock::deserialize(ctx.pull_doubles(desc)));
  }

  Image frame(config_.image_size, config_.image_size);
  {
    obs::Span render_span("intransit", "viz.render",
                          {.bucket = ctx.bucket(), .step = ctx.task().step});
    render_volume(setup.camera, lut, physical_bounds(grid, grid.bounds()),
                  setup.tf, setup.params, frame);
  }

  maybe_write_ppm(config_.output_dir, name(), ctx.task().step, frame);

  ctx.set_result(to_bytes(serialize_image(frame)));
  latest_.offer(ctx.task().step, std::move(frame));
}

}  // namespace hia
