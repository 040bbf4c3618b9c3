#include "analysis/viz/raycast.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "analysis/viz/block_lut.hpp"
#include "util/error.hpp"

namespace hia {

bool Aabb::intersect(const Ray& ray, double& t_enter, double& t_exit) const {
  t_enter = 0.0;
  t_exit = std::numeric_limits<double>::infinity();
  const double o[3] = {ray.origin.x, ray.origin.y, ray.origin.z};
  const double d[3] = {ray.direction.x, ray.direction.y, ray.direction.z};
  const double lo_[3] = {lo.x, lo.y, lo.z};
  const double hi_[3] = {hi.x, hi.y, hi.z};
  for (int a = 0; a < 3; ++a) {
    if (std::abs(d[a]) < 1e-14) {
      if (o[a] < lo_[a] || o[a] > hi_[a]) return false;
      continue;
    }
    double t0 = (lo_[a] - o[a]) / d[a];
    double t1 = (hi_[a] - o[a]) / d[a];
    if (t0 > t1) std::swap(t0, t1);
    t_enter = std::max(t_enter, t0);
    t_exit = std::min(t_exit, t1);
    if (t_enter > t_exit) return false;
  }
  return true;
}

Aabb physical_bounds(const GlobalGrid& grid, const Box3& box) {
  Aabb b;
  b.lo = Vec3{grid.coord(0, box.lo[0]) - 0.5 * grid.spacing(0),
              grid.coord(1, box.lo[1]) - 0.5 * grid.spacing(1),
              grid.coord(2, box.lo[2]) - 0.5 * grid.spacing(2)};
  b.hi = Vec3{grid.coord(0, box.hi[0] - 1) + 0.5 * grid.spacing(0),
              grid.coord(1, box.hi[1] - 1) + 0.5 * grid.spacing(1),
              grid.coord(2, box.hi[2] - 1) + 0.5 * grid.spacing(2)};
  return b;
}

BrickSampler::BrickSampler(const GlobalGrid& grid, const Box3& box,
                           std::span<const double> values)
    : grid_(grid), box_(box), values_(values) {
  HIA_REQUIRE(!box.empty() &&
                  values.size() == static_cast<size_t>(box.num_cells()),
              "value buffer does not match brick box");
}

namespace {

// Steps sampled ahead of the compositing chain.
constexpr int kChunk = 16;

// One lattice as the marcher walks it: `samples` points per axis, `stride`
// cells apart from the global index `lo`, values x-fastest. A sample at
// index coordinates idx has lattice coordinate m = (idx - lo) / stride,
// clamped into [0, samples - 1]; its cell corner is min(floor(m), top).
struct Lattice {
  double lo[3];
  double stride;
  double inv_stride;
  bool exact_inverse;      // a power-of-two stride: multiplying by its
                           // reciprocal rounds exactly like dividing
  double last[3];          // samples - 1
  int64_t top[3];          // max(samples - 2, 0)
  int64_t pitch[3];        // value offset of one point along each axis
  int64_t far[3];          // offset of the cell's far corner: 0 when
                           // samples == 1, where top keeps m0 + 1 in range
  double support_lo[3];    // the index box this lattice answers for
  double support_hi[3];
  const double* values;
};

// `bounded` lattices answer only inside their points' box; an unbounded
// one (a brick) answers everywhere, clamping flat beyond its edges.
Lattice make_lattice(const Box3& bounds, int stride,
                     const std::array<int64_t, 3>& samples,
                     const double* values, bool bounded) {
  Lattice l{};
  int64_t pitch = 1;
  for (int a = 0; a < 3; ++a) {
    l.lo[a] = static_cast<double>(bounds.lo[a]);
    l.last[a] = static_cast<double>(samples[a] - 1);
    l.top[a] = std::max<int64_t>(samples[a] - 2, 0);
    l.pitch[a] = pitch;
    l.far[a] = samples[a] == 1 ? 0 : pitch;
    pitch *= samples[a];
    constexpr double kInf = std::numeric_limits<double>::infinity();
    l.support_lo[a] = bounded ? static_cast<double>(bounds.lo[a]) : -kInf;
    l.support_hi[a] = bounded ? static_cast<double>(bounds.hi[a] - 1) : kInf;
  }
  l.stride = static_cast<double>(stride);
  l.inv_stride = 1.0 / l.stride;
  l.exact_inverse = (stride & (stride - 1)) == 0;
  l.values = values;
  return l;
}

// Trilinear value at global index coordinates `idx` from the lattice that
// answers for them; false in the gaps no lattice covers. `cur` is the
// lattice of the ray's previous sample, tried first.
inline bool sample(std::span<const Lattice> lattices, const Lattice*& cur,
                   const double idx[3], double& value) {
  auto holds = [idx](const Lattice& l) {
    return idx[0] >= l.support_lo[0] && idx[0] <= l.support_hi[0] &&
           idx[1] >= l.support_lo[1] && idx[1] <= l.support_hi[1] &&
           idx[2] >= l.support_lo[2] && idx[2] <= l.support_hi[2];
  };
  if (cur == nullptr || !holds(*cur)) {
    cur = nullptr;
    for (const Lattice& l : lattices) {
      if (holds(l)) {
        cur = &l;
        break;
      }
    }
    if (cur == nullptr) return false;
  }
  const Lattice& l = *cur;
  int64_t base = 0;
  double f[3];
  for (int a = 0; a < 3; ++a) {
    const double q = idx[a] - l.lo[a];
    const double m = std::clamp(
        l.exact_inverse ? q * l.inv_stride : q / l.stride, 0.0, l.last[a]);
    const int64_t m0 = std::min(static_cast<int64_t>(m), l.top[a]);
    f[a] = m - static_cast<double>(m0);
    base += m0 * l.pitch[a];
  }
  const double* v = l.values + base;
  const int64_t x = l.far[0], y = l.far[1], z = l.far[2];
  const double c00 = v[0] * (1 - f[0]) + v[x] * f[0];
  const double c10 = v[y] * (1 - f[0]) + v[x + y] * f[0];
  const double c01 = v[z] * (1 - f[0]) + v[x + z] * f[0];
  const double c11 = v[y + z] * (1 - f[0]) + v[x + y + z] * f[0];
  const double c0 = c00 * (1 - f[1]) + c10 * f[1];
  const double c1 = c01 * (1 - f[1]) + c11 * f[1];
  value = c0 * (1 - f[2]) + c1 * f[2];
  return true;
}

void march(const OrthoCamera& camera, const GlobalGrid& grid,
           std::span<const Lattice> lattices, const Aabb& bounds,
           const TransferFunction& tf, const RenderParams& params,
           Image& image) {
  HIA_REQUIRE(image.width() == camera.pixels_x() &&
                  image.height() == camera.pixels_y(),
              "image dimensions must match the camera");
  const TransferTable table(tf, params.step, params.reference_step);
  const double h[3] = {grid.spacing(0), grid.spacing(1), grid.spacing(2)};

  for (int py = 0; py < camera.pixels_y(); ++py) {
    for (int px = 0; px < camera.pixels_x(); ++px) {
      const Ray ray = camera.ray(px, py);
      double t0, t1;
      if (!bounds.intersect(ray, t0, t1)) continue;
      const double o[3] = {ray.origin.x, ray.origin.y, ray.origin.z};
      const double d[3] = {ray.direction.x, ray.direction.y,
                           ray.direction.z};

      const Lattice* cur = nullptr;
      Rgba acc{};  // premultiplied accumulation, front-to-back
      bool opaque = false;
      double t = t0 + 0.5 * params.step;
      while (!opaque && t < t1) {
        // Sample a chunk, then composite it: no lattice lookup waits on
        // the compositing chain.
        double ts[kChunk];
        int n = 0;
        for (; n < kChunk && t < t1; ++n, t += params.step) ts[n] = t;
        double idx[kChunk][3];
        for (int i = 0; i < n; ++i) {
          for (int a = 0; a < 3; ++a) {
            // Point i sits at spacing * (i + 0.5).
            idx[i][a] = (o[a] + d[a] * ts[i]) / h[a] - 0.5;
          }
        }
        double values[kChunk];
        bool hits[kChunk];
        for (int i = 0; i < n; ++i) {
          hits[i] = sample(lattices, cur, idx[i], values[i]);
        }
        for (int i = 0; i < n && !opaque; ++i) {
          if (!hits[i]) continue;
          const Rgba s = table.lookup(values[i]);
          const float w = (1.0f - acc.a) * s.a;
          acc.r += w * s.r;
          acc.g += w * s.g;
          acc.b += w * s.b;
          acc.a += w;
          opaque = acc.a >= params.early_exit_alpha;
        }
      }
      image.at(px, py) = acc;
    }
  }
}

}  // namespace

void render_volume(const OrthoCamera& camera, const BrickSampler& brick,
                   const Aabb& bounds, const TransferFunction& tf,
                   const RenderParams& params, Image& image) {
  const Box3& box = brick.box();
  const Lattice lattice =
      make_lattice(box, 1, {box.extent(0), box.extent(1), box.extent(2)},
                   brick.values().data(), /*bounded=*/false);
  march(camera, brick.grid(), {&lattice, 1}, bounds, tf, params, image);
}

void render_volume(const OrthoCamera& camera, const BlockLut& lut,
                   const Aabb& bounds, const TransferFunction& tf,
                   const RenderParams& params, Image& image) {
  std::vector<Lattice> lattices;
  lattices.reserve(lut.blocks().size());
  for (const DownsampledBlock& b : lut.blocks()) {
    lattices.push_back(make_lattice(b.bounds, b.stride, b.samples,
                                    b.values.data(), /*bounded=*/true));
  }
  march(camera, lut.grid(), lattices, bounds, tf, params, image);
}

}  // namespace hia
