#include "core/viz_pipeline.hpp"

#include <cstdio>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace hia {

RenderSetup RenderSetup::make(const GlobalGrid& grid, const VizConfig& cfg) {
  const Vec3 size{grid.physical[0], grid.physical[1], grid.physical[2]};
  OrthoCamera camera =
      OrthoCamera::default_view(size, cfg.image_size, cfg.image_size);
  TransferFunction tf = TransferFunction::flame(cfg.tf_lo, cfg.tf_hi);
  RenderParams params;
  params.step = cfg.step_scale * grid.spacing(0);
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
  std::vector<std::byte> bytes(payload.size() * sizeof(double));
  std::memcpy(bytes.data(), payload.data(), bytes.size());
  auto gathered = ctx.comm().gather(0, bytes);

  if (ctx.comm().rank() == 0) {
    obs::Span composite_span("insitu", "viz.composite",
                             {.rank = 0, .step = ctx.step()});
    std::vector<BrickImage> bricks;
    bricks.reserve(gathered.size());
    for (const auto& blob : gathered) {
      HIA_ASSERT(blob.size() % sizeof(double) == 0 && !blob.empty());
      std::vector<double> flat(blob.size() / sizeof(double));
      std::memcpy(flat.data(), blob.data(), blob.size());
      const double depth = flat.back();
      flat.pop_back();
      bricks.push_back(BrickImage{deserialize_image(flat), depth});
    }
    Image frame = composite(std::move(bricks));
    maybe_write_ppm(config_.output_dir, name(), ctx.step(), frame);
    std::lock_guard lock(mutex_);
    latest_ = std::move(frame);
  }
}

std::optional<Image> InSituVisualization::latest_image() const {
  std::lock_guard lock(mutex_);
  return latest_;
}

// ------------------------------------------------- HybridVisualization --

void HybridVisualization::in_situ(InSituContext& ctx) {
  const GlobalGrid& grid = ctx.sim().params().grid;
  {
    std::lock_guard lock(mutex_);
    if (!grid_.has_value()) grid_ = grid;
  }

  const Field& field = ctx.sim().field(config_.variable);
  const Box3& box = field.owned();
  const DownsampledBlock block =
      downsample_block(box, field.pack_owned(), config_.downsample_stride);
  ctx.publish("viz.block", box, block.serialize());
}

void HybridVisualization::in_transit(TaskContext& ctx) {
  GlobalGrid grid;
  {
    std::lock_guard lock(mutex_);
    HIA_REQUIRE(grid_.has_value(), "in_transit before any in_situ stage");
    grid = *grid_;
  }
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

  const auto flat = serialize_image(frame);
  std::vector<std::byte> bytes(flat.size() * sizeof(double));
  std::memcpy(bytes.data(), flat.data(), bytes.size());
  ctx.set_result(std::move(bytes));

  std::lock_guard lock(mutex_);
  if (!newest_step(latest_step_, ctx.task().step)) return;
  latest_ = std::move(frame);
}

std::optional<Image> HybridVisualization::latest_image() const {
  std::lock_guard lock(mutex_);
  return latest_;
}

}  // namespace hia
