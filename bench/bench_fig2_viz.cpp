// Reproduces Fig. 2: visual comparison of the fully in-situ rendering of
// the temperature field with the hybrid rendering of data down-sampled at
// every 8th (and other) grid points. Writes the PPM image pairs and prints
// PSNR and data-reduction factors for a stride sweep.
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <mutex>
#include <vector>

#include "analysis/viz/block_lut.hpp"
#include "util/stopwatch.hpp"
#include "analysis/viz/compositor.hpp"
#include "analysis/viz/raycast.hpp"
#include "bench_common.hpp"
#include "runtime/comm.hpp"
#include "sim/s3d.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  hia::bench::ObsCli obs_cli =
      hia::bench::ObsCli::parse(argc, argv, "fig2_viz");
  using namespace hia;
  using namespace hia::bench;

  ::mkdir("fig2_out", 0755);

  S3DParams params;
  params.grid = GlobalGrid{{64, 48, 48}, {1.0, 0.75, 0.75}};
  params.ranks_per_axis = {2, 2, 2};
  params.chemistry.kernel_rate = 2.0;
  const long steps = 6;

  // Advance the simulation and collect each rank's temperature brick.
  Decomposition decomp(params.grid, params.ranks_per_axis);
  std::vector<std::vector<double>> bricks(
      static_cast<size_t>(decomp.num_ranks()));
  {
    World world(decomp.num_ranks());
    std::mutex m;
    world.run([&](Comm& comm) {
      S3DRank sim(params, comm.rank());
      sim.initialize();
      for (long s = 0; s < steps; ++s) sim.advance(comm);
      auto values = sim.field(Variable::kTemperature).pack_owned();
      std::lock_guard lock(m);
      bricks[static_cast<size_t>(comm.rank())] = std::move(values);
    });
  }

  const int image_size = 160;
  const OrthoCamera camera = OrthoCamera::default_view(
      Vec3{params.grid.physical[0], params.grid.physical[1],
           params.grid.physical[2]},
      image_size, image_size);
  const TransferFunction tf = TransferFunction::flame(0.9, 5.0);
  RenderParams rp;
  rp.step = params.grid.spacing(0);
  rp.reference_step = rp.step;

  // In-situ reference: render every brick at full resolution, composite.
  Stopwatch insitu_watch;
  std::vector<BrickImage> partials;
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    const Box3 box = decomp.block(r);
    Image img(image_size, image_size);
    render_volume(camera,
                  BrickSampler(params.grid, box,
                               bricks[static_cast<size_t>(r)]),
                  physical_bounds(params.grid, box), tf, rp, img);
    partials.push_back(
        {std::move(img), brick_depth(params.grid, box, camera)});
  }
  const Image reference = composite(std::move(partials));
  const double insitu_seconds = insitu_watch.seconds();
  write_ppm(reference, "fig2_out/insitu_fullres.ppm");

  print_header("Fig. 2: in-situ full resolution vs. hybrid down-sampled");
  Table table({"variant", "stride", "data kept", "PSNR vs in-situ (dB)",
               "render time (s)", "output"});
  table.add_row({"in-situ", "1", "100%", "inf", fmt_fixed(insitu_seconds, 3),
                 "fig2_out/insitu_fullres.ppm"});

  double psnr8 = 0.0;
  std::vector<double> psnrs;  // by increasing stride
  for (const int stride : {2, 4, 8}) {
    Stopwatch watch;
    BlockLut lut(params.grid);
    size_t kept = 0, total = 0;
    for (int r = 0; r < decomp.num_ranks(); ++r) {
      auto block = downsample_block(decomp.block(r),
                                    bricks[static_cast<size_t>(r)], stride);
      kept += block.values.size();
      total += static_cast<size_t>(decomp.block(r).num_cells());
      lut.add_block(std::move(block));
    }
    Image hybrid(image_size, image_size);
    render_volume(camera, lut,
                  physical_bounds(params.grid, params.grid.bounds()), tf, rp,
                  hybrid);
    const double seconds = watch.seconds();
    const double psnr = image_psnr(reference, hybrid);
    if (stride == 8) psnr8 = psnr;
    psnrs.push_back(psnr);
    const std::string path =
        "fig2_out/hybrid_stride" + std::to_string(stride) + ".ppm";
    write_ppm(hybrid, path);
    table.add_row({"hybrid", std::to_string(stride),
                   fmt_fixed(100.0 * static_cast<double>(kept) /
                                 static_cast<double>(total),
                             1) + "%",
                   fmt_fixed(psnr, 1), fmt_fixed(seconds, 3), path});
  }
  std::printf("%s\n", table.render().c_str());

  // Fig. 2 (c)/(d): the zoom-in views. A narrower film over the flame base
  // rendered both ways, completing the figure's four panels.
  {
    const Vec3 center{0.35 * params.grid.physical[0],
                      0.5 * params.grid.physical[1],
                      0.5 * params.grid.physical[2]};
    const Vec3 size{params.grid.physical[0], params.grid.physical[1],
                    params.grid.physical[2]};
    const Vec3 eye = center + Vec3{-0.9, -0.7, -1.2} * size.norm();
    const double extent = 0.4 * size.norm();  // ~3x zoom
    const OrthoCamera zoom(eye, center, Vec3{0, 1, 0}, extent, extent,
                           image_size, image_size);

    std::vector<BrickImage> zoom_partials;
    for (int r = 0; r < decomp.num_ranks(); ++r) {
      const Box3 box = decomp.block(r);
      Image img(image_size, image_size);
      render_volume(zoom,
                    BrickSampler(params.grid, box,
                                 bricks[static_cast<size_t>(r)]),
                    physical_bounds(params.grid, box), tf, rp, img);
      zoom_partials.push_back(
          {std::move(img), brick_depth(params.grid, box, zoom)});
    }
    const Image zoom_ref = composite(std::move(zoom_partials));
    write_ppm(zoom_ref, "fig2_out/insitu_zoom.ppm");

    BlockLut lut(params.grid);
    for (int r = 0; r < decomp.num_ranks(); ++r) {
      lut.add_block(downsample_block(decomp.block(r),
                                     bricks[static_cast<size_t>(r)], 8));
    }
    Image zoom_hybrid(image_size, image_size);
    render_volume(zoom, lut,
                  physical_bounds(params.grid, params.grid.bounds()), tf, rp,
                  zoom_hybrid);
    write_ppm(zoom_hybrid, "fig2_out/hybrid_zoom_stride8.ppm");
    std::printf("zoom views (panels c/d): insitu_zoom.ppm vs "
                "hybrid_zoom_stride8.ppm, PSNR %.1f dB\n\n",
                image_psnr(zoom_ref, zoom_hybrid));
  }

  shape_check("hybrid images remain usable for monitoring at stride 8 "
              "(paper Fig. 2 judges them sufficient)",
              psnr8 > 12.0);
  shape_check("finer strides converge toward the in-situ image",
              std::is_sorted(psnrs.rbegin(), psnrs.rend()) &&
                  psnrs.front() > psnrs.back());
  std::printf("\nimages written to fig2_out/\n");
  obs_cli.finish();
  return 0;
}
