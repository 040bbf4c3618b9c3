// Synthetic turbulence: a divergence-free velocity field assembled from
// random Fourier modes with a prescribed energy spectrum.
//
// The paper's S3D case is a turbulent lifted H2 jet; what the analyses need
// from the flow is multi-scale structure that advects and strains the
// scalar fields so ignition kernels appear, move, and dissipate on short
// timescales. A Kraichnan-style synthetic field provides exactly that
// structure deterministically and cheaply.
#pragma once

#include <vector>

#include "sim/field.hpp"
#include "sim/grid.hpp"
#include "util/rng.hpp"
#include "util/vec3.hpp"

namespace hia {

struct TurbulenceParams {
  int num_modes = 48;          // random Fourier modes
  double k_min = 2.0;          // lowest wavenumber (units of 2*pi/L)
  double k_max = 16.0;         // highest wavenumber
  double spectrum_slope = -5.0 / 3.0;  // Kolmogorov inertial range
  double rms_velocity = 1.0;   // target RMS of each component
  double time_scale = 0.5;     // eddy-turnover time for phase drift
  uint64_t seed = 42;
};

/// Deterministic synthetic turbulent velocity field u(x, t).
///
/// Each mode is u_m * cos(k_m . x + w_m t + phi_m) with u_m orthogonal to
/// k_m (divergence-free by construction) and |u_m| following the prescribed
/// spectrum. Evaluation is independent per point: ranks evaluate their own
/// sub-domains with no communication.
class SyntheticTurbulence {
 public:
  explicit SyntheticTurbulence(const TurbulenceParams& params = {});

  /// Velocity at physical position x and time t: the direct sum, one cos()
  /// per mode. The reference that sample() is tested against.
  [[nodiscard]] Vec3 velocity(const Vec3& x, double t) const;

  /// Writes the velocity at time t at every grid point of `box` into u, v
  /// and w, whose storage must cover `box`. The field is velocity() at
  /// grid.coord(), evaluated separably: cos(k.x + w t + phi) is the real
  /// part of e^{i k_x x} e^{i k_y y} e^{i (k_z z + w t + phi)}, so a call
  /// costs O(modes * (nx + ny + nz)) sin/cos plus O(modes * cells)
  /// multiply-adds instead of O(modes * cells) cos() calls.
  void sample(const GlobalGrid& grid, const Box3& box, double t, Field& u,
              Field& v, Field& w) const;

  [[nodiscard]] const TurbulenceParams& params() const { return params_; }

 private:
  struct Mode {
    Vec3 k;          // wave vector
    Vec3 amplitude;  // orthogonal to k
    double omega;    // temporal frequency
    double phase;
  };

  TurbulenceParams params_;
  std::vector<Mode> modes_;
};

}  // namespace hia
