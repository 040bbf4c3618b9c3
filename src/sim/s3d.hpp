// MiniS3D: a structured-grid advection–diffusion–reaction proxy for the S3D
// turbulent-combustion DNS code.
//
// What the hybrid-analytics framework needs from "the simulation" is:
//   * a regular 3-D domain decomposition with per-rank sub-domains,
//   * 14 double-precision solution variables (Table I accounting),
//   * combustion-like field structure: a lifted fuel jet in which ignition
//     kernels appear intermittently, advect with the turbulence, and either
//     stabilize or dissipate within ~10 steps (the paper's motivating
//     intermittent phenomenon, Fig. 1),
//   * a per-step cost that in-situ analysis time can be compared against.
//
// MiniS3D provides all four with a first-order upwind advection scheme, a
// 7-point Laplacian diffusion term, single-step Arrhenius chemistry, and a
// prescribed synthetic-turbulence + mean-jet velocity field.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "runtime/comm.hpp"
#include "sim/chemistry.hpp"
#include "sim/field.hpp"
#include "sim/grid.hpp"
#include "sim/species.hpp"
#include "sim/turbulence.hpp"

namespace hia {

/// Time integration: S3D proper uses a six-stage RK; here the first-order
/// upwind spatial scheme pairs with forward Euler. The prescribed velocity
/// is frozen within a step.
struct S3DParams {
  GlobalGrid grid{{64, 48, 48}, {1.0, 0.75, 0.75}};
  std::array<int, 3> ranks_per_axis{2, 2, 2};
  double dt = 2.0e-3;
  double diffusivity = 3.0e-4;
  double jet_velocity = 0.8;    // mean axial velocity of the fuel jet
  double jet_radius = 0.12;     // radius of the fuel core (physical units)
  TurbulenceParams turbulence{};
  ChemistryParams chemistry{};
};

/// Per-rank MiniS3D state and integrator. One instance per simulation rank;
/// advance() is collective over the simulation communicator (halo
/// exchanges).
class S3DRank {
 public:
  S3DRank(const S3DParams& params, int rank);

  /// Sets the lifted-jet initial condition (no communication).
  void initialize();

  /// Advances one timestep: halo exchange, upwind advection + diffusion +
  /// reaction (explicit Euler), kernel seeding, diagnostic update.
  /// Collective over the simulation ranks.
  void advance(Comm& comm);

  [[nodiscard]] Field& field(Variable v) {
    return fields_[static_cast<size_t>(v)];
  }
  [[nodiscard]] const Field& field(Variable v) const {
    return fields_[static_cast<size_t>(v)];
  }

  /// Heat-release rate: the diagnostic field scientists analyze (not one of
  /// the 14 solution variables, recomputed each step).
  [[nodiscard]] const Field& heat_release() const { return heat_release_; }

  [[nodiscard]] const Decomposition& decomp() const { return decomp_; }
  [[nodiscard]] const S3DParams& params() const { return params_; }
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] long step() const { return step_; }
  [[nodiscard]] double time() const { return time_; }

  /// Wall-clock seconds spent in the last advance() on this rank.
  [[nodiscard]] double last_step_seconds() const { return last_step_seconds_; }

  /// Restart support: sets the clock after field data has been restored
  /// (e.g. from a checkpoint) and recomputes the prescribed velocity and
  /// diagnostic fields for the restored state. Ghost layers are refreshed
  /// by the next advance().
  void restore_clock(long step, double time) {
    step_ = step;
    time_ = time;
    update_velocity_and_diagnostics();
  }

  /// Bytes of solution data owned by this rank (14 variables x 8 bytes).
  [[nodiscard]] size_t solution_bytes() const;

 private:
  void apply_kernels(long step);
  void update_velocity_and_diagnostics();
  /// Evaluates -advection + diffusion + reaction for the transported
  /// scalars on the owned z planes [k0, k1) into `rhs` (kTransported-major,
  /// each scalar's cells of those planes x-fastest).
  void compute_rhs(const std::vector<Field*>& transported, int64_t k0,
                   int64_t k1, double* rhs);
  /// phi += dt * rhs on the owned z planes [k0, k1) (compute_rhs's layout)
  /// with positivity/bound clamps.
  void apply_update(const std::vector<Field*>& transported, int64_t k0,
                    int64_t k1, const double* rhs, double dt);

  S3DParams params_;
  int rank_;
  Decomposition decomp_;
  Box3 owned_;
  Chemistry chemistry_;
  KernelSeeder seeder_;
  SyntheticTurbulence turbulence_;

  std::vector<Field> fields_;       // the 14 solution variables, ghost = 1
  Field heat_release_;              // diagnostic, no ghosts
  std::vector<double> reaction_;    // one row's reaction sources
  std::vector<double> window_;      // RHS of two z planes

  long step_ = 0;
  double time_ = 0.0;
  double last_step_seconds_ = 0.0;
};

}  // namespace hia
