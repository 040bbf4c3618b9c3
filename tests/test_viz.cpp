// Tests for the visualization stack: ray/AABB intersection, the camera,
// transfer functions and their per-frame table, rendering, compositing,
// down-sampling, the block look-up table, and image metrics. The ray
// marcher is held against the per-sample renderer it replaced, kept below
// as the reference.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <mutex>

#include "analysis/viz/block_lut.hpp"
#include "analysis/viz/compositor.hpp"
#include "analysis/viz/raycast.hpp"
#include "core/viz_pipeline.hpp"
#include "runtime/comm.hpp"
#include "sim/analytic_fields.hpp"
#include "sim/s3d.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace hia {
namespace {

// The per-sample renderer: a virtual sampler call, a linear search of the
// control points and a std::pow per sample. The marcher must reproduce its
// images.
namespace reference {

Rgba tf_sample(const TransferFunction& tf, double v) {
  const auto& points = tf.points();
  if (v <= points.front().value) return points.front().color;
  if (v >= points.back().value) return points.back().color;
  size_t hi = 1;
  while (points[hi].value < v) ++hi;
  const TransferFunction::ControlPoint& a = points[hi - 1];
  const TransferFunction::ControlPoint& b = points[hi];
  const float t = static_cast<float>((v - a.value) / (b.value - a.value));
  return Rgba{a.color.r + t * (b.color.r - a.color.r),
              a.color.g + t * (b.color.g - a.color.g),
              a.color.b + t * (b.color.b - a.color.b),
              a.color.a + t * (b.color.a - a.color.a)};
}

float corrected_alpha(float alpha, double dt, double reference_dt) {
  return 1.0f - static_cast<float>(std::pow(1.0 - static_cast<double>(alpha),
                                            dt / reference_dt));
}

class Sampler {
 public:
  virtual ~Sampler() = default;
  virtual bool sample(const Vec3& pos, double& value) const = 0;
};

class Brick final : public Sampler {
 public:
  Brick(const GlobalGrid& grid, const Box3& box,
        std::span<const double> values)
      : grid_(grid), box_(box), values_(values) {}

  bool sample(const Vec3& pos, double& value) const override {
    const double c[3] = {pos.x / grid_.spacing(0) - 0.5,
                         pos.y / grid_.spacing(1) - 0.5,
                         pos.z / grid_.spacing(2) - 0.5};
    int64_t i0[3];
    double f[3];
    for (int a = 0; a < 3; ++a) {
      const double clamped =
          std::clamp(c[a], static_cast<double>(box_.lo[a]),
                     static_cast<double>(box_.hi[a] - 1));
      i0[a] = std::min(static_cast<int64_t>(clamped), box_.hi[a] - 2);
      i0[a] = std::max(i0[a], box_.lo[a]);
      f[a] = box_.extent(a) == 1 ? 0.0 : clamped - static_cast<double>(i0[a]);
    }
    auto v = [&](int64_t di, int64_t dj, int64_t dk) {
      const int64_t i = std::min(i0[0] + di, box_.hi[0] - 1);
      const int64_t j = std::min(i0[1] + dj, box_.hi[1] - 1);
      const int64_t k = std::min(i0[2] + dk, box_.hi[2] - 1);
      return values_[box_.offset(i, j, k)];
    };
    const double c00 = v(0, 0, 0) * (1 - f[0]) + v(1, 0, 0) * f[0];
    const double c10 = v(0, 1, 0) * (1 - f[0]) + v(1, 1, 0) * f[0];
    const double c01 = v(0, 0, 1) * (1 - f[0]) + v(1, 0, 1) * f[0];
    const double c11 = v(0, 1, 1) * (1 - f[0]) + v(1, 1, 1) * f[0];
    const double c0 = c00 * (1 - f[1]) + c10 * f[1];
    const double c1 = c01 * (1 - f[1]) + c11 * f[1];
    value = c0 * (1 - f[2]) + c1 * f[2];
    return true;
  }

 private:
  const GlobalGrid& grid_;
  Box3 box_;
  std::span<const double> values_;
};

class Blocks final : public Sampler {
 public:
  explicit Blocks(const BlockLut& lut) : lut_(lut) {}

  bool sample(const Vec3& pos, double& value) const override {
    const GlobalGrid& grid = lut_.grid();
    const double idx[3] = {pos.x / grid.spacing(0) - 0.5,
                           pos.y / grid.spacing(1) - 0.5,
                           pos.z / grid.spacing(2) - 0.5};
    const DownsampledBlock* b = locate(idx);
    if (b == nullptr) return false;
    int64_t m0[3];
    double f[3];
    for (int a = 0; a < 3; ++a) {
      const double m =
          (idx[a] - static_cast<double>(b->bounds.lo[a])) / b->stride;
      const double clamped =
          std::clamp(m, 0.0, static_cast<double>(b->samples[a] - 1));
      m0[a] = std::min(static_cast<int64_t>(clamped), b->samples[a] - 2);
      m0[a] = std::max<int64_t>(m0[a], 0);
      f[a] = b->samples[a] == 1 ? 0.0 : clamped - static_cast<double>(m0[a]);
    }
    auto v = [&](int64_t di, int64_t dj, int64_t dk) {
      const int64_t i = std::min(m0[0] + di, b->samples[0] - 1);
      const int64_t j = std::min(m0[1] + dj, b->samples[1] - 1);
      const int64_t k = std::min(m0[2] + dk, b->samples[2] - 1);
      return b->values[static_cast<size_t>(
          (k * b->samples[1] + j) * b->samples[0] + i)];
    };
    const double c00 = v(0, 0, 0) * (1 - f[0]) + v(1, 0, 0) * f[0];
    const double c10 = v(0, 1, 0) * (1 - f[0]) + v(1, 1, 0) * f[0];
    const double c01 = v(0, 0, 1) * (1 - f[0]) + v(1, 0, 1) * f[0];
    const double c11 = v(0, 1, 1) * (1 - f[0]) + v(1, 1, 1) * f[0];
    const double c0 = c00 * (1 - f[1]) + c10 * f[1];
    const double c1 = c01 * (1 - f[1]) + c11 * f[1];
    value = c0 * (1 - f[2]) + c1 * f[2];
    return true;
  }

 private:
  const DownsampledBlock* locate(const double idx[3]) const {
    auto inside = [&](const DownsampledBlock& b) {
      for (int a = 0; a < 3; ++a) {
        if (idx[a] < static_cast<double>(b.bounds.lo[a]) ||
            idx[a] > static_cast<double>(b.bounds.hi[a] - 1)) {
          return false;
        }
      }
      return true;
    };
    if (cache_ != nullptr && inside(*cache_)) return cache_;
    for (const auto& b : lut_.blocks()) {
      if (inside(b)) {
        cache_ = &b;
        return cache_;
      }
    }
    return nullptr;
  }

  const BlockLut& lut_;
  mutable const DownsampledBlock* cache_ = nullptr;
};

void render(const OrthoCamera& camera, const Sampler& sampler,
            const Aabb& bounds, const TransferFunction& tf,
            const RenderParams& params, Image& image) {
  for (int y = 0; y < camera.pixels_y(); ++y) {
    for (int x = 0; x < camera.pixels_x(); ++x) {
      const Ray ray = camera.ray(x, y);
      double t0, t1;
      if (!bounds.intersect(ray, t0, t1)) continue;
      Rgba acc{};
      for (double t = t0 + 0.5 * params.step; t < t1; t += params.step) {
        const Vec3 pos = ray.origin + ray.direction * t;
        double value;
        if (!sampler.sample(pos, value)) continue;
        Rgba s = tf_sample(tf, value);
        const float alpha =
            corrected_alpha(s.a, params.step, params.reference_step);
        const float w = (1.0f - acc.a) * alpha;
        acc.r += w * s.r;
        acc.g += w * s.g;
        acc.b += w * s.b;
        acc.a += w;
        if (acc.a >= params.early_exit_alpha) break;
      }
      image.at(x, y) = acc;
    }
  }
}

}  // namespace reference

/// Largest per-channel difference between two images; a NaN channel
/// matches only a NaN channel.
double max_channel_diff(const Image& a, const Image& b) {
  EXPECT_EQ(a.pixels().size(), b.pixels().size());
  double worst = 0.0;
  for (size_t i = 0; i < a.pixels().size(); ++i) {
    const Rgba& p = a.pixels()[i];
    const Rgba& q = b.pixels()[i];
    for (const auto& [u, v] : {std::pair{p.r, q.r}, std::pair{p.g, q.g},
                               std::pair{p.b, q.b}, std::pair{p.a, q.a}}) {
      if (std::isnan(u) || std::isnan(v)) {
        if (std::isnan(u) != std::isnan(v)) {
          return std::numeric_limits<double>::infinity();
        }
        continue;
      }
      worst = std::max(worst, std::abs(static_cast<double>(u) - v));
    }
  }
  return worst;
}

/// Renders `volume` with the marcher and `ref` with the reference; returns
/// the largest per-channel difference.
template <class Volume, class Reference>
double diff_from_reference(const OrthoCamera& cam, const Volume& volume,
                           const Reference& ref, const Aabb& bounds,
                           const TransferFunction& tf,
                           const RenderParams& params) {
  Image marched(cam.pixels_x(), cam.pixels_y());
  Image expected(cam.pixels_x(), cam.pixels_y());
  render_volume(cam, volume, bounds, tf, params, marched);
  reference::render(cam, ref, bounds, tf, params, expected);
  return max_channel_diff(marched, expected);
}

TEST(Aabb, IntersectHitAndMiss) {
  const Aabb box{{0, 0, 0}, {1, 1, 1}};
  double t0, t1;
  Ray hit{{-1, 0.5, 0.5}, {1, 0, 0}};
  ASSERT_TRUE(box.intersect(hit, t0, t1));
  EXPECT_NEAR(t0, 1.0, 1e-12);
  EXPECT_NEAR(t1, 2.0, 1e-12);

  Ray miss{{-1, 2.0, 0.5}, {1, 0, 0}};
  EXPECT_FALSE(box.intersect(miss, t0, t1));

  Ray parallel_inside{{0.5, 0.5, 0.5}, {0, 0, 1}};
  EXPECT_TRUE(box.intersect(parallel_inside, t0, t1));

  Ray diagonal{{-1, -1, -1}, Vec3{1, 1, 1}.normalized()};
  EXPECT_TRUE(box.intersect(diagonal, t0, t1));
}

TEST(Camera, RaysAreParallelAndCoverFilm) {
  const OrthoCamera cam({0, 0, -2}, {0, 0, 0}, {0, 1, 0}, 2.0, 2.0, 8, 8);
  const Ray r1 = cam.ray(0, 0);
  const Ray r2 = cam.ray(7, 7);
  EXPECT_NEAR((r1.direction - r2.direction).norm(), 0.0, 1e-12);
  EXPECT_NEAR(r1.direction.z, 1.0, 1e-12);
  // Film corners span the requested extent. A viewer facing +z with +y up
  // has -x to their right, so pixel x increases toward world -x.
  EXPECT_GT(r1.origin.x, r2.origin.x);
  EXPECT_NEAR(r1.origin.x - r2.origin.x, 2.0 * 7.0 / 8.0, 1e-12);
  EXPECT_NEAR(r2.origin.y - r1.origin.y, 2.0 * 7.0 / 8.0, 1e-12);
}

TEST(TransferTable, InterpolatesControlPoints) {
  TransferFunction tf({{0.0, {0, 0, 0, 0}}, {1.0, {1, 0, 0, 0.5}}});
  const TransferTable table(tf, 1.0, 1.0);
  const Rgba mid = table.lookup(0.5);
  EXPECT_NEAR(mid.r, 0.5, 1e-6);
  EXPECT_NEAR(mid.a, 0.25, 1e-6);
  // Clamping outside the range.
  EXPECT_NEAR(table.lookup(-5.0).a, 0.0, 1e-6);
  EXPECT_NEAR(table.lookup(5.0).a, 0.5, 1e-6);
  EXPECT_TRUE(std::isnan(table.lookup(std::nan("")).r));
}

TEST(TransferFunction, RejectsBadControlPoints) {
  std::vector<TransferFunction::ControlPoint> one{{0.0, Rgba{}}};
  EXPECT_THROW(TransferFunction{one}, Error);
  std::vector<TransferFunction::ControlPoint> unsorted{{1.0, Rgba{}},
                                                       {0.5, Rgba{}}};
  EXPECT_THROW(TransferFunction{unsorted}, Error);
  std::vector<TransferFunction::ControlPoint> opaque{{0.0, {0, 0, 0, 0}},
                                                     {1.0, {1, 1, 1, 1.5}}};
  EXPECT_THROW(TransferFunction{opaque}, Error);
  std::vector<TransferFunction::ControlPoint> unbounded{
      {0.0, Rgba{}}, {INFINITY, Rgba{}}};
  EXPECT_THROW(TransferFunction{unbounded}, Error);
}

TEST(TransferTable, MatchesPerSampleTransferFunction) {
  // Every value across and beyond the flame map's range, including values
  // on the control points: exact at the reference step, and within the
  // table's interpolation error at half of it.
  const TransferFunction tf = TransferFunction::flame(0.8, 6.0);
  const TransferTable same(tf, 0.01, 0.01);
  const TransferTable half(tf, 0.005, 0.01);
  std::vector<double> values;
  for (const auto& p : tf.points()) values.push_back(p.value);
  Xoshiro256 rng(11);
  for (int i = 0; i < 20000; ++i) values.push_back(rng.uniform(0.0, 7.0));
  for (const double v : values) {
    const Rgba s = reference::tf_sample(tf, v);
    const Rgba a = same.lookup(v);
    EXPECT_EQ(a.r, s.r);
    EXPECT_EQ(a.g, s.g);
    EXPECT_EQ(a.b, s.b);
    EXPECT_EQ(a.a, reference::corrected_alpha(s.a, 0.01, 0.01)) << v;
    const Rgba b = half.lookup(v);
    EXPECT_EQ(b.r, s.r);
    EXPECT_NEAR(b.a, reference::corrected_alpha(s.a, 0.005, 0.01), 1e-6);
  }
}

TEST(TransferTable, AlphaCorrectionIdentityAndHalving) {
  TransferFunction tf({{0.0, {0, 0, 0, 0.4f}}, {1.0, {0, 0, 0, 0.4f}}});
  EXPECT_NEAR(TransferTable(tf, 0.01, 0.01).lookup(0.5).a, 0.4f, 1e-6f);
  // Halving the step: compositing two corrected steps equals one original.
  const float half = TransferTable(tf, 0.005, 0.01).lookup(0.5).a;
  const float two_steps = 1.0f - (1.0f - half) * (1.0f - half);
  EXPECT_NEAR(two_steps, 0.4f, 1e-5f);
}

TEST(ReferenceSampler, ReproducesLinearFieldExactly) {
  GlobalGrid grid{{10, 10, 10}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  Field f("v", box);
  fill_from_function(f, grid, [](const Vec3& x) {
    return 2.0 * x.x - 3.0 * x.y + 0.5 * x.z + 1.0;
  });
  const auto values = f.pack_owned();
  const reference::Brick sampler(grid, box, values);

  Xoshiro256 rng(4);
  for (int trial = 0; trial < 50; ++trial) {
    // Stay inside the sample lattice (trilinear is exact for linear
    // fields only between sample points).
    const Vec3 p{rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9),
                 rng.uniform(0.1, 0.9)};
    double v = 0.0;
    ASSERT_TRUE(sampler.sample(p, v));
    EXPECT_NEAR(v, 2.0 * p.x - 3.0 * p.y + 0.5 * p.z + 1.0, 1e-10);
  }
}

TEST(RenderVolume, EmptyTransferFunctionGivesBlankImage) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  Field f("v", grid.bounds());
  f.fill(0.0);
  const auto values = f.pack_owned();
  const BrickSampler sampler(grid, grid.bounds(), values);
  TransferFunction tf({{0.0, {0, 0, 0, 0}}, {1.0, {1, 1, 1, 0.9}}});
  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 16, 16);
  Image img(16, 16);
  render_volume(cam, sampler, physical_bounds(grid, grid.bounds()), tf,
                RenderParams{}, img);
  for (const Rgba& p : img.pixels()) EXPECT_EQ(p.a, 0.0f);
}

TEST(RenderVolume, OpaqueFieldCoversCenterPixels) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  Field f("v", grid.bounds());
  f.fill(1.0);
  const auto values = f.pack_owned();
  const BrickSampler sampler(grid, grid.bounds(), values);
  TransferFunction tf({{0.0, {1, 0, 0, 0.0}}, {1.0, {1, 0, 0, 0.95}}});
  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 17, 17);
  Image img(17, 17);
  render_volume(cam, sampler, physical_bounds(grid, grid.bounds()), tf,
                RenderParams{}, img);
  const Rgba center = img.at(8, 8);
  EXPECT_GT(center.a, 0.9f);
  EXPECT_GT(center.r, 0.8f);
  EXPECT_EQ(center.g, 0.0f);
}

TEST(Compositor, FrontOccludesBack) {
  Image red(4, 4), blue(4, 4);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 4; ++x) {
      red.at(x, y) = {1, 0, 0, 1};   // opaque red
      blue.at(x, y) = {0, 0, 1, 1};  // opaque blue
    }
  }
  std::vector<BrickImage> bricks;
  bricks.push_back({blue, 2.0});  // farther
  bricks.push_back({red, 1.0});   // nearer
  const Image out = composite(std::move(bricks));
  EXPECT_EQ(out.at(2, 2).r, 1.0f);
  EXPECT_EQ(out.at(2, 2).b, 0.0f);
}

TEST(Compositor, TranslucentBlend) {
  Image a(1, 1), b(1, 1);
  a.at(0, 0) = {0.5f, 0, 0, 0.5f};  // premultiplied half-red in front
  b.at(0, 0) = {0, 0.8f, 0, 0.8f};  // premultiplied green behind
  std::vector<BrickImage> bricks{{a, 0.0}, {b, 1.0}};
  const Image out = composite(std::move(bricks));
  EXPECT_NEAR(out.at(0, 0).r, 0.5f, 1e-6f);
  EXPECT_NEAR(out.at(0, 0).g, 0.4f, 1e-6f);  // 0.8 * (1 - 0.5)
  EXPECT_NEAR(out.at(0, 0).a, 0.9f, 1e-6f);
}

TEST(Downsample, StrideGridAndValues) {
  const Box3 box{{0, 0, 0}, {9, 9, 9}};
  std::vector<double> values(729);
  for (size_t i = 0; i < values.size(); ++i) values[i] = static_cast<double>(i);
  const auto block = downsample_block(box, values, 4);
  EXPECT_EQ(block.samples[0], 3);  // indices 0, 4, 8
  EXPECT_EQ(block.values.size(), 27u);
  EXPECT_DOUBLE_EQ(block.values[0], 0.0);
  EXPECT_DOUBLE_EQ(block.values[1], 4.0);            // (4,0,0)
  EXPECT_DOUBLE_EQ(block.values[3], 4.0 * 9.0);      // (0,4,0)
  EXPECT_NEAR(downsample_ratio(block), 729.0 / 27.0, 1e-12);
}

TEST(Downsample, StrideOneIsIdentity) {
  const Box3 box{{2, 2, 2}, {5, 5, 5}};
  std::vector<double> values(27, 3.5);
  const auto block = downsample_block(box, values, 1);
  EXPECT_EQ(block.values.size(), 27u);
  EXPECT_DOUBLE_EQ(downsample_ratio(block), 1.0);
}

TEST(Downsample, SerializeRoundTrip) {
  const Box3 box{{8, 0, 4}, {16, 8, 12}};
  std::vector<double> values(512);
  for (size_t i = 0; i < values.size(); ++i) values[i] = 0.25 * static_cast<double>(i);
  const auto block = downsample_block(box, values, 2);
  const auto r = DownsampledBlock::deserialize(block.serialize());
  EXPECT_EQ(r.bounds, block.bounds);
  EXPECT_EQ(r.stride, block.stride);
  EXPECT_EQ(r.samples, block.samples);
  EXPECT_EQ(r.values, block.values);
}

TEST(BlockLut, SamplesAcrossBlocks) {
  GlobalGrid grid{{16, 8, 8}, {1.0, 0.5, 0.5}};
  // Two abutting blocks covering the domain, constant values 1 and 2.
  const Box3 left{{0, 0, 0}, {8, 8, 8}}, right{{8, 0, 0}, {16, 8, 8}};
  BlockLut lut(grid);
  lut.add_block(downsample_block(
      left, std::vector<double>(static_cast<size_t>(left.num_cells()), 1.0), 2));
  lut.add_block(downsample_block(
      right, std::vector<double>(static_cast<size_t>(right.num_cells()), 2.0),
      2));
  EXPECT_EQ(lut.blocks().size(), 2u);

  const reference::Blocks sampler(lut);
  double v = 0.0;
  ASSERT_TRUE(sampler.sample(Vec3{0.2, 0.25, 0.25}, v));
  EXPECT_DOUBLE_EQ(v, 1.0);
  ASSERT_TRUE(sampler.sample(Vec3{0.8, 0.25, 0.25}, v));
  EXPECT_DOUBLE_EQ(v, 2.0);
  EXPECT_FALSE(sampler.sample(Vec3{2.0, 0.25, 0.25}, v));
}

TEST(BlockLut, RejectsBlocksItCannotSample) {
  GlobalGrid grid{{8, 8, 8}, {1.0, 1.0, 1.0}};
  BlockLut lut(grid);
  DownsampledBlock block = downsample_block(
      grid.bounds(), std::vector<double>(512, 1.0), 2);
  block.values.pop_back();
  EXPECT_THROW(lut.add_block(block), Error);
  block.values.push_back(1.0);
  block.samples[1] = 0;
  EXPECT_THROW(lut.add_block(block), Error);
}

TEST(BlockLut, AgreesWithBrickSamplerAtCoarsePoints) {
  GlobalGrid grid{{12, 12, 12}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  Field f("v", box);
  fill_from_function(f, grid, [](const Vec3& x) {
    return std::sin(5 * x.x) + std::cos(3 * x.y) + x.z;
  });
  const auto values = f.pack_owned();
  BlockLut lut(grid);
  lut.add_block(downsample_block(box, values, 3));
  const reference::Blocks coarse_sampler(lut);
  const reference::Brick fine(grid, box, values);

  // At retained lattice points both samplers agree exactly.
  for (int64_t k = 0; k < 12; k += 3) {
    for (int64_t j = 0; j < 12; j += 3) {
      for (int64_t i = 0; i < 12; i += 3) {
        const Vec3 p{grid.coord(0, i), grid.coord(1, j), grid.coord(2, k)};
        double coarse = 0.0, exact = 0.0;
        ASSERT_TRUE(coarse_sampler.sample(p, coarse));
        ASSERT_TRUE(fine.sample(p, exact));
        EXPECT_NEAR(coarse, exact, 1e-10);
      }
    }
  }
}

TEST(Image, PsnrAndMse) {
  Image a(8, 8), b(8, 8);
  EXPECT_EQ(image_mse(a, b), 0.0);
  EXPECT_TRUE(std::isinf(image_psnr(a, b)));
  b.at(0, 0) = {1, 1, 1, 1};
  EXPECT_GT(image_mse(a, b), 0.0);
  EXPECT_LT(image_psnr(a, b), 100.0);
}

TEST(Image, SerializeRoundTrip) {
  Image img(3, 2);
  img.at(1, 0) = {0.25f, 0.5f, 0.75f, 1.0f};
  const Image r = deserialize_image(serialize_image(img));
  EXPECT_EQ(r.width(), 3);
  EXPECT_EQ(r.height(), 2);
  EXPECT_EQ(r.at(1, 0).g, 0.5f);
  EXPECT_EQ(image_mse(img, r), 0.0);
}

TEST(Image, WritesValidPpm) {
  Image img(4, 4);
  img.at(0, 0) = {1, 0, 0, 1};
  const std::string path = ::testing::TempDir() + "/hia_test_" +
                           std::to_string(::getpid()) + ".ppm";
  write_ppm(img, path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  int w, h, maxval;
  in >> w >> h >> maxval;
  EXPECT_EQ(w, 4);
  EXPECT_EQ(h, 4);
  EXPECT_EQ(maxval, 255);
  std::remove(path.c_str());
}

TEST(Image, WritesNanPixelsAsBlack) {
  Image img(2, 1);
  img.at(0, 0) = {std::nanf(""), 0.5f, 2.0f, 1.0f};
  img.at(1, 0) = {0.0f, 0.0f, 0.0f, std::nanf("")};
  const std::string path = ::testing::TempDir() + "/hia_nan_" +
                           std::to_string(::getpid()) + ".ppm";
  write_ppm(img, path, 0.5f);
  std::ifstream in(path, std::ios::binary);
  std::string header;
  for (int i = 0; i < 3; ++i) std::getline(in, header);
  unsigned char rgb[6] = {};
  in.read(reinterpret_cast<char*>(rgb), 6);
  EXPECT_EQ(rgb[0], 0);
  EXPECT_EQ(rgb[1], 128);
  EXPECT_EQ(rgb[2], 255);
  EXPECT_EQ(rgb[3], 0);
  std::remove(path.c_str());
}

TEST(HybridApproximatesInSitu, PsnrImprovesWithFinerStride) {
  // Fig. 2 quality relationship: smaller down-sampling stride -> image
  // closer to the full-resolution rendering.
  GlobalGrid grid{{32, 32, 32}, {1.0, 1.0, 1.0}};
  const Box3 box = grid.bounds();
  Field f("v", box);
  fill_gaussian_mixture(f, grid, GaussianMixture::well_separated(5, 0.08, 2));
  const auto values = f.pack_owned();

  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 48, 48);
  TransferFunction tf = TransferFunction::grayscale(0.0, 1.2);
  RenderParams params;
  params.step = grid.spacing(0);
  params.reference_step = params.step;

  const Aabb bounds = physical_bounds(grid, box);
  Image reference(48, 48);
  render_volume(cam, BrickSampler(grid, box, values), bounds, tf, params,
                reference);

  double prev_psnr = -1.0;
  for (const int stride : {8, 4, 2}) {
    BlockLut lut(grid);
    lut.add_block(downsample_block(box, values, stride));
    Image approx(48, 48);
    render_volume(cam, lut, bounds, tf, params, approx);
    const double psnr = image_psnr(reference, approx);
    EXPECT_GT(psnr, prev_psnr);
    prev_psnr = psnr;
  }
  EXPECT_GT(prev_psnr, 25.0);  // stride 2 is a close approximation
}

// -------------------------------------- the marcher against the reference

// The marcher's images may differ from the reference's by this much per
// channel. At the reference step every frame below is reproduced bit for
// bit; off it the opacity table interpolates.
constexpr double kTolerance = 1e-5;

/// A smooth field with structure at several scales whose values run below,
/// through and above [0, 1].
std::vector<double> wavy_values(const GlobalGrid& grid, const Box3& box) {
  Field f("v", box);
  fill_from_function(f, grid, [](const Vec3& x) {
    return 0.5 + 0.45 * std::sin(7 * x.x) * std::cos(5 * x.y) +
           0.3 * std::sin(11 * x.z + 3 * x.x);
  });
  return f.pack_owned();
}

/// Bricks of a 2x2x2 decomposition of `grid`, with their values.
struct Bricks {
  std::vector<Box3> boxes;
  std::vector<std::vector<double>> values;
};

Bricks wavy_bricks(const GlobalGrid& grid) {
  const Decomposition decomp(grid, {2, 2, 2});
  Bricks out;
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    out.boxes.push_back(decomp.block(r));
    out.values.push_back(wavy_values(grid, decomp.block(r)));
  }
  return out;
}

BlockLut lut_of(const GlobalGrid& grid, const Bricks& bricks, int stride) {
  BlockLut lut(grid);
  for (size_t r = 0; r < bricks.boxes.size(); ++r) {
    lut.add_block(downsample_block(bricks.boxes[r], bricks.values[r], stride));
  }
  return lut;
}

/// Largest difference over every brick (in-situ placement) and over the
/// blocks at each stride (hybrid placement).
double worst_diff(const GlobalGrid& grid, const Bricks& bricks,
                  const OrthoCamera& cam, const TransferFunction& tf,
                  const RenderParams& params,
                  std::initializer_list<int> strides) {
  double worst = 0.0;
  for (size_t r = 0; r < bricks.boxes.size(); ++r) {
    const Box3& box = bricks.boxes[r];
    worst = std::max(
        worst, diff_from_reference(
                   cam, BrickSampler(grid, box, bricks.values[r]),
                   reference::Brick(grid, box, bricks.values[r]),
                   physical_bounds(grid, box), tf, params));
  }
  for (const int stride : strides) {
    const BlockLut lut = lut_of(grid, bricks, stride);
    worst = std::max(worst, diff_from_reference(
                                cam, lut, reference::Blocks(lut),
                                physical_bounds(grid, grid.bounds()), tf,
                                params));
  }
  return worst;
}

RenderParams cell_step(const GlobalGrid& grid, double scale = 1.0) {
  RenderParams params;
  params.step = scale * grid.spacing(0);
  params.reference_step = grid.spacing(0);
  return params;
}

TEST(Marcher, MatchesReferenceInBothPlacements) {
  // Strides 3 and 5 leave partial cells at block edges, where the lattice
  // coordinate clamps; blocks leave gaps at every seam.
  const GlobalGrid grid{{24, 20, 16}, {1.0, 20.0 / 24.0, 16.0 / 24.0}};
  const Bricks bricks = wavy_bricks(grid);
  const OrthoCamera cam = OrthoCamera::default_view({1.0, 20.0 / 24.0,
                                                     16.0 / 24.0}, 40, 40);
  EXPECT_EQ(worst_diff(grid, bricks, cam, TransferFunction::flame(0.0, 1.0),
                       cell_step(grid), {1, 2, 3, 4, 5}),
            0.0);
  EXPECT_LE(worst_diff(grid, bricks, cam,
                       TransferFunction::grayscale(-0.2, 1.3),
                       cell_step(grid, 0.7), {2, 3}),
            kTolerance);
}

TEST(Marcher, OneSampleOnAnAxis) {
  // Stride 4 over 3 points keeps one sample in z; the flat grid's bricks
  // are one point thick.
  const GlobalGrid grid{{16, 12, 6}, {1.0, 0.75, 0.375}};
  const Bricks bricks = wavy_bricks(grid);
  const OrthoCamera cam =
      OrthoCamera::default_view({1.0, 0.75, 0.375}, 32, 32);
  const BlockLut lut = lut_of(grid, bricks, 4);
  EXPECT_EQ(lut.blocks()[0].samples[2], 1);
  EXPECT_LE(worst_diff(grid, bricks, cam, TransferFunction::flame(0.0, 1.0),
                       cell_step(grid), {4, 8}),
            kTolerance);

  const GlobalGrid flat{{12, 10, 2}, {1.0, 10.0 / 12.0, 2.0 / 12.0}};
  EXPECT_LE(worst_diff(flat, wavy_bricks(flat), cam,
                       TransferFunction::flame(0.0, 1.0), cell_step(flat),
                       {1, 2}),
            kTolerance);
}

TEST(Marcher, AxisParallelRays) {
  const GlobalGrid grid{{16, 16, 16}, {1.0, 1.0, 1.0}};
  const Bricks bricks = wavy_bricks(grid);
  // Looking down z, then down x: two direction components are exactly 0.
  const OrthoCamera down_z({0.5, 0.5, -2.0}, {0.5, 0.5, 0.5}, {0, 1, 0},
                           1.3, 1.3, 32, 32);
  const OrthoCamera down_x({-2.0, 0.5, 0.5}, {0.5, 0.5, 0.5}, {0, 1, 0},
                           1.3, 1.3, 32, 32);
  ASSERT_EQ(down_z.ray(3, 5).direction.x, 0.0);
  ASSERT_EQ(down_x.ray(3, 5).direction.z, 0.0);
  for (const OrthoCamera& cam : {down_z, down_x}) {
    EXPECT_LE(worst_diff(grid, bricks, cam, TransferFunction::flame(0.0, 1.0),
                         cell_step(grid), {1, 3, 4}),
              kTolerance);
  }
}

TEST(Marcher, HalfStepCorrectsOpacity) {
  // step / reference_step = 0.5: the table's power is not the identity.
  const GlobalGrid grid{{20, 16, 16}, {1.0, 0.8, 0.8}};
  const Bricks bricks = wavy_bricks(grid);
  const OrthoCamera cam = OrthoCamera::default_view({1.0, 0.8, 0.8}, 32, 32);
  EXPECT_LE(worst_diff(grid, bricks, cam, TransferFunction::flame(0.0, 1.0),
                       cell_step(grid, 0.5), {2, 4}),
            kTolerance);
}

TEST(Marcher, RaysCrossingSeamsAndGaps) {
  // A zoomed film centred on the corner where all eight blocks meet.
  const GlobalGrid grid{{24, 24, 24}, {1.0, 1.0, 1.0}};
  const Bricks bricks = wavy_bricks(grid);
  const OrthoCamera cam({-0.4, -0.3, -0.9}, {0.5, 0.5, 0.5}, {0, 1, 0}, 0.3,
                        0.3, 48, 48);
  const BlockLut lut = lut_of(grid, bricks, 4);
  // The gap between blocks is real: the reference skips samples there.
  double v = 0.0;
  EXPECT_FALSE(reference::Blocks(lut).sample(Vec3{0.5, 0.3, 0.3}, v));
  EXPECT_LE(worst_diff(grid, bricks, cam, TransferFunction::flame(0.0, 1.0),
                       cell_step(grid), {2, 4, 5}),
            kTolerance);
}

TEST(Marcher, EarlyExit) {
  const GlobalGrid grid{{16, 16, 16}, {1.0, 1.0, 1.0}};
  const Bricks bricks = wavy_bricks(grid);
  const TransferFunction opaque({{0.0, {1, 0.2f, 0, 0.6f}},
                                 {1.0, {1, 1, 0.5f, 0.98f}}});
  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 32, 32);
  Image img(32, 32);
  render_volume(cam, lut_of(grid, bricks, 2),
                physical_bounds(grid, grid.bounds()), opaque,
                cell_step(grid), img);
  int exited = 0;
  for (const Rgba& p : img.pixels()) exited += p.a >= 0.99f ? 1 : 0;
  EXPECT_GT(exited, 100);
  EXPECT_LE(worst_diff(grid, bricks, cam, opaque, cell_step(grid), {1, 2}),
            kTolerance);
}

TEST(Marcher, InfinitiesTakeTheEndColors) {
  const GlobalGrid grid{{12, 12, 12}, {1.0, 1.0, 1.0}};
  Bricks bricks = wavy_bricks(grid);
  for (auto& values : bricks.values) {
    for (size_t i = 0; i < values.size(); i += 7) {
      values[i] = i % 2 == 0 ? INFINITY : -INFINITY;
    }
  }
  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 24, 24);
  EXPECT_LE(worst_diff(grid, bricks, cam, TransferFunction::flame(0.0, 1.0),
                       cell_step(grid), {1}),
            kTolerance);
  // A brick of +inf alone composites the top color.
  const Box3 box = bricks.boxes[0];
  const std::vector<double> hot(static_cast<size_t>(box.num_cells()),
                                INFINITY);
  const TransferFunction tf = TransferFunction::flame(0.0, 1.0);
  EXPECT_EQ(diff_from_reference(cam, BrickSampler(grid, box, hot),
                                reference::Brick(grid, box, hot),
                                physical_bounds(grid, box), tf,
                                cell_step(grid)),
            0.0);
}

TEST(Marcher, NanSamplesPropagateWithoutFault) {
  // A NaN value reaches no table index as a conversion (the sanitizer
  // build checks this); its rays turn NaN exactly where the reference's do.
  const GlobalGrid grid{{12, 12, 12}, {1.0, 1.0, 1.0}};
  Bricks bricks = wavy_bricks(grid);
  bricks.values[3][40] = std::nan("");
  const OrthoCamera cam = OrthoCamera::default_view({1, 1, 1}, 24, 24);
  EXPECT_LE(worst_diff(grid, bricks, cam, TransferFunction::flame(0.0, 1.0),
                       cell_step(grid), {1}),
            kTolerance);
}

/// Temperature bricks of a MiniS3D run after `steps` steps.
std::vector<std::vector<double>> temperature_bricks(const S3DParams& params,
                                                    long steps) {
  const Decomposition decomp(params.grid, params.ranks_per_axis);
  std::vector<std::vector<double>> bricks(
      static_cast<size_t>(decomp.num_ranks()));
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
  return bricks;
}

TEST(Marcher, ReproducesFig2Frames) {
  // bench_fig2_viz's frames: both views, every stride, both placements.
  S3DParams params;
  params.grid = GlobalGrid{{64, 48, 48}, {1.0, 0.75, 0.75}};
  params.ranks_per_axis = {2, 2, 2};
  params.chemistry.kernel_rate = 2.0;
  const Decomposition decomp(params.grid, params.ranks_per_axis);
  Bricks bricks;
  bricks.values = temperature_bricks(params, 6);
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    bricks.boxes.push_back(decomp.block(r));
  }

  const Vec3 size{1.0, 0.75, 0.75};
  const OrthoCamera full = OrthoCamera::default_view(size, 160, 160);
  const Vec3 center{0.35, 0.375, 0.375};
  const OrthoCamera zoom(center + Vec3{-0.9, -0.7, -1.2} * size.norm(),
                         center, Vec3{0, 1, 0}, 0.4 * size.norm(),
                         0.4 * size.norm(), 160, 160);
  const TransferFunction tf = TransferFunction::flame(0.9, 5.0);
  RenderParams rp;
  rp.step = params.grid.spacing(0);
  rp.reference_step = rp.step;
  EXPECT_EQ(worst_diff(params.grid, bricks, full, tf, rp, {2, 4, 8}), 0.0);
  EXPECT_EQ(worst_diff(params.grid, bricks, zoom, tf, rp, {8}), 0.0);
}

TEST(Marcher, ReproducesTheBenchmarkWorkloadFrame) {
  // One MiniS3D step at perfbench's hybrid-topo-viz configuration, rendered
  // as its viz pipelines set the frame up.
  S3DParams params;
  params.grid = GlobalGrid{{96, 64, 48}, {1.0, 64.0 / 96.0, 48.0 / 96.0}};
  params.ranks_per_axis = {2, 2, 1};
  SplitMix64 mix(1);
  params.turbulence.seed = mix.next();
  params.chemistry.seed = mix.next();
  const Decomposition decomp(params.grid, params.ranks_per_axis);
  Bricks bricks;
  bricks.values = temperature_bricks(params, 1);
  for (int r = 0; r < decomp.num_ranks(); ++r) {
    bricks.boxes.push_back(decomp.block(r));
  }

  VizConfig cfg;
  cfg.downsample_stride = 4;
  const RenderSetup setup = RenderSetup::make(params.grid, cfg);
  EXPECT_EQ(worst_diff(params.grid, bricks, setup.camera, setup.tf,
                       setup.params, {4}),
            0.0);
}

}  // namespace
}  // namespace hia
