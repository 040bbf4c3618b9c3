#include "sim/turbulence.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"
#include "util/simd.hpp"

namespace hia {

namespace {

/// Cells of an x row summed together in registers by sample().
constexpr size_t kBlock = 8;

/// cos and sin of k * grid.coord(axis, lo + n) + shift for n < count.
void axis_phasors(const GlobalGrid& grid, int axis, int64_t lo, size_t count,
                  double k, double shift, double* c, double* s) {
  for (size_t n = 0; n < count; ++n) {
    const double a =
        k * grid.coord(axis, lo + static_cast<int64_t>(n)) + shift;
    c[n] = std::cos(a);
    s[n] = std::sin(a);
  }
}

/// One x row of sample(): cell n < nx gets the sum over modes m of
/// amp[m] * (xc[m][n] cb[m] - xs[m][n] sb[m]), where xc and xs are
/// mode-major tables of row stride nxp (a whole number of blocks). Cloned
/// for AVX2 and the baseline ISA with the same bits (util/simd.hpp).
HIA_CLONE_AVX2
void sum_row(size_t nx, size_t nxp, size_t nm, const double* xc,
             const double* xs, const double* cb, const double* sb,
             const Vec3* amp, double* ur, double* vr, double* wr) {
  for (size_t i0 = 0; i0 < nx; i0 += kBlock) {
    // Modes are summed in the order velocity() sums them.
    double bu[kBlock] = {}, bv[kBlock] = {}, bw[kBlock] = {};
    for (size_t m = 0; m < nm; ++m) {
      const double* ca = &xc[m * nxp + i0];
      const double* sa = &xs[m * nxp + i0];
      const Vec3 a = amp[m];
      // Unrolled, the block's sums live in registers across the mode loop
      // rather than in memory, and GCC vectorizes the unrolled lanes.
#pragma GCC unroll 8
      for (size_t l = 0; l < kBlock; ++l) {
        const double c = ca[l] * cb[m] - sa[l] * sb[m];
        bu[l] += a.x * c;
        bv[l] += a.y * c;
        bw[l] += a.z * c;
      }
    }
    const size_t n = std::min(kBlock, nx - i0);
    for (size_t l = 0; l < n; ++l) {
      ur[i0 + l] = bu[l];
      vr[i0 + l] = bv[l];
      wr[i0 + l] = bw[l];
    }
  }
}

}  // namespace

SyntheticTurbulence::SyntheticTurbulence(const TurbulenceParams& params)
    : params_(params) {
  HIA_REQUIRE(params.num_modes > 0, "need at least one mode");
  HIA_REQUIRE(params.k_max > params.k_min && params.k_min > 0.0,
              "need 0 < k_min < k_max");

  Xoshiro256 rng(params.seed, /*stream_id=*/7);
  modes_.reserve(static_cast<size_t>(params.num_modes));

  // Sample wavenumber magnitudes log-uniformly across [k_min, k_max] and
  // weight amplitudes by E(k) ~ k^slope so the inertial range has the right
  // relative energy distribution.
  double energy_sum = 0.0;
  std::vector<double> energies(static_cast<size_t>(params.num_modes));
  std::vector<double> kmags(static_cast<size_t>(params.num_modes));
  for (int m = 0; m < params.num_modes; ++m) {
    const double frac = (static_cast<double>(m) + rng.uniform()) /
                        static_cast<double>(params.num_modes);
    const double kmag =
        params.k_min * std::pow(params.k_max / params.k_min, frac);
    kmags[static_cast<size_t>(m)] = kmag;
    const double e = std::pow(kmag, params.spectrum_slope);
    energies[static_cast<size_t>(m)] = e;
    energy_sum += e;
  }

  for (int m = 0; m < params.num_modes; ++m) {
    // Random direction on the sphere for the wave vector.
    Vec3 khat;
    do {
      khat = Vec3{rng.normal(), rng.normal(), rng.normal()};
    } while (khat.norm() < 1e-12);
    khat = khat.normalized();

    const double kmag = kmags[static_cast<size_t>(m)] * 2.0 *
                        std::numbers::pi;  // physical wavenumber
    // Amplitude direction orthogonal to k (incompressibility).
    Vec3 a;
    do {
      const Vec3 rand_dir{rng.normal(), rng.normal(), rng.normal()};
      a = khat.cross(rand_dir);
    } while (a.norm() < 1e-12);
    a = a.normalized();

    // Scale so the total field RMS matches rms_velocity. Each cosine mode
    // contributes amp^2/2 per component on average.
    const double frac_energy =
        energies[static_cast<size_t>(m)] / energy_sum;
    const double amp =
        params.rms_velocity * std::sqrt(2.0 * 3.0 * frac_energy);

    Mode mode;
    mode.k = khat * kmag;
    mode.amplitude = a * amp;
    mode.omega = 2.0 * std::numbers::pi / params.time_scale *
                 std::sqrt(kmags[static_cast<size_t>(m)] / params.k_min);
    mode.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
    modes_.push_back(mode);
  }
}

Vec3 SyntheticTurbulence::velocity(const Vec3& x, double t) const {
  Vec3 u;
  for (const Mode& m : modes_) {
    const double arg = m.k.dot(x) + m.omega * t + m.phase;
    u += m.amplitude * std::cos(arg);
  }
  return u;
}

void SyntheticTurbulence::sample(const GlobalGrid& grid, const Box3& box,
                                 double t, Field& u, Field& v,
                                 Field& w) const {
  HIA_REQUIRE(u.storage().contains(box) && v.storage().contains(box) &&
                  w.storage().contains(box),
              "turbulence sample box outside field storage");
  if (box.empty()) return;
  const auto nx = static_cast<size_t>(box.extent(0));
  const auto ny = static_cast<size_t>(box.extent(1));
  const auto nz = static_cast<size_t>(box.extent(2));
  const size_t nm = modes_.size();
  // The x table is padded to whole blocks; the padding holds phasors of
  // points past the box, which are summed and then dropped.
  const size_t nxp = (nx + kBlock - 1) / kBlock * kBlock;

  // Per-axis phasor tables, mode-major. The time phase rides on z.
  std::vector<double> xc(nm * nxp), xs(nm * nxp), yc(nm * ny), ys(nm * ny),
      zc(nm * nz), zs(nm * nz);
  for (size_t m = 0; m < nm; ++m) {
    const Mode& mode = modes_[m];
    axis_phasors(grid, 0, box.lo[0], nxp, mode.k.x, 0.0, &xc[m * nxp],
                 &xs[m * nxp]);
    axis_phasors(grid, 1, box.lo[1], ny, mode.k.y, 0.0, &yc[m * ny],
                 &ys[m * ny]);
    axis_phasors(grid, 2, box.lo[2], nz, mode.k.z,
                 mode.omega * t + mode.phase, &zc[m * nz], &zs[m * nz]);
  }

  // cos(a + b) = cos a cos b - sin a sin b, with a = k_x x and b the rest
  // of the phase, which is constant along an x row.
  std::vector<double> cb(nm), sb(nm);
  std::vector<Vec3> amp(nm);
  for (size_t m = 0; m < nm; ++m) amp[m] = modes_[m].amplitude;
  for (size_t k = 0; k < nz; ++k) {
    for (size_t j = 0; j < ny; ++j) {
      for (size_t m = 0; m < nm; ++m) {
        const double cy = yc[m * ny + j], sy = ys[m * ny + j];
        const double cz = zc[m * nz + k], sz = zs[m * nz + k];
        cb[m] = cy * cz - sy * sz;
        sb[m] = sy * cz + cy * sz;
      }
      const int64_t gj = box.lo[1] + static_cast<int64_t>(j);
      const int64_t gk = box.lo[2] + static_cast<int64_t>(k);
      sum_row(nx, nxp, nm, xc.data(), xs.data(), cb.data(), sb.data(),
              amp.data(), u.ptr(box.lo[0], gj, gk), v.ptr(box.lo[0], gj, gk),
              w.ptr(box.lo[0], gj, gk));
    }
  }
}

}  // namespace hia
