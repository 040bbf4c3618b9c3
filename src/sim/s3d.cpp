#include "sim/s3d.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"
#include "sim/halo.hpp"
#include "util/stopwatch.hpp"

namespace hia {

namespace {
constexpr int kGhost = 1;

/// The scalar variables advanced by the PDE; velocities are prescribed and
/// minor species are diagnostic.
constexpr std::array<Variable, 5> kTransported{
    Variable::kTemperature, Variable::kYH2, Variable::kYO2, Variable::kYH2O,
    Variable::kYN2};

/// Fuel-core indicator of the lifted jet on grid row (j, k): ~1 inside the
/// jet radius, ~0 in the air coflow, joined by a smooth tanh shear layer.
double jet_core(const S3DParams& p, int64_t j, int64_t k) {
  const double y = p.grid.coord(1, j) - p.grid.physical[1] * 0.5;
  const double z = p.grid.coord(2, k) - p.grid.physical[2] * 0.5;
  const double r = std::sqrt(y * y + z * z);
  return 0.5 * (1.0 - std::tanh((r - p.jet_radius) / (0.25 * p.jet_radius)));
}

/// Upwind advection along one axis: velocity times the backward difference
/// when it is positive, else the forward one. Written as a blend, not a
/// branch: the velocity's sign changes from cell to cell in turbulence.
double upwind(double vel, double back, double fwd) {
  return std::max(vel, 0.0) * back + std::min(vel, 0.0) * fwd;
}
}  // namespace

S3DRank::S3DRank(const S3DParams& params, int rank)
    : params_(params),
      rank_(rank),
      decomp_(params.grid, params.ranks_per_axis),
      owned_(decomp_.block(rank)),
      chemistry_(params.chemistry),
      seeder_(params.chemistry),
      turbulence_(params.turbulence),
      heat_release_("hrr", owned_) {
  fields_.reserve(kNumVariables);
  for (int v = 0; v < kNumVariables; ++v) {
    fields_.emplace_back(std::string(kVariableNames[static_cast<size_t>(v)]),
                         owned_, params.grid.bounds(), kGhost);
  }
  // N2 is inert: its row of reaction_ stays zero.
  const auto nx = static_cast<size_t>(owned_.extent(0));
  reaction_.assign(kTransported.size() * nx, 0.0);
  window_.resize(2 * kTransported.size() * nx *
                 static_cast<size_t>(owned_.extent(1)));
}

size_t S3DRank::solution_bytes() const {
  return static_cast<size_t>(owned_.num_cells()) * kNumVariables *
         sizeof(double);
}

void S3DRank::initialize() {
  Field& T = field(Variable::kTemperature);
  Field& h2 = field(Variable::kYH2);
  Field& o2 = field(Variable::kYO2);
  Field& h2o = field(Variable::kYH2O);
  Field& n2 = field(Variable::kYN2);
  Field& P = field(Variable::kPressure);

  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
      const double core = jet_core(params_, j, k);
      const double y_h2 = 0.9 * core;
      const double y_o2 = 0.232 * (1.0 - core);  // air coflow
      for (int64_t i = owned_.lo[0]; i < owned_.hi[0]; ++i) {
        T.at(i, j, k) = params_.chemistry.ambient_temperature;
        h2.at(i, j, k) = y_h2;
        o2.at(i, j, k) = y_o2;
        h2o.at(i, j, k) = 0.0;
        n2.at(i, j, k) = 1.0 - y_h2 - y_o2;
        P.at(i, j, k) = 1.0;
      }
    }
  }
  update_velocity_and_diagnostics();
  step_ = 0;
  time_ = 0.0;
}

void S3DRank::apply_kernels(long step) {
  // All ranks draw the same kernel sequence; each applies the intersection
  // with its own block (see KernelSeeder doc).
  const GlobalGrid& g = params_.grid;
  Field& T = field(Variable::kTemperature);
  for (const IgnitionKernel& kern : seeder_.kernels_for_step(step)) {
    const double cx = kern.cx * g.physical[0];
    const double cy = kern.cy * g.physical[1];
    const double cz = kern.cz * g.physical[2];
    // Bounding box of the 3-sigma support, in index space.
    const double support = 3.0 * kern.radius;
    Box3 bb;
    bb.lo[0] = static_cast<int64_t>((cx - support) / g.spacing(0)) - 1;
    bb.hi[0] = static_cast<int64_t>((cx + support) / g.spacing(0)) + 2;
    bb.lo[1] = static_cast<int64_t>((cy - support) / g.spacing(1)) - 1;
    bb.hi[1] = static_cast<int64_t>((cy + support) / g.spacing(1)) + 2;
    bb.lo[2] = static_cast<int64_t>((cz - support) / g.spacing(2)) - 1;
    bb.hi[2] = static_cast<int64_t>((cz + support) / g.spacing(2)) + 2;
    const Box3 local = bb.intersect(owned_);
    if (local.empty()) continue;

    const double inv2r2 = 1.0 / (2.0 * kern.radius * kern.radius);
    for (int64_t k = local.lo[2]; k < local.hi[2]; ++k) {
      for (int64_t j = local.lo[1]; j < local.hi[1]; ++j) {
        for (int64_t i = local.lo[0]; i < local.hi[0]; ++i) {
          const double dx = g.coord(0, i) - cx;
          const double dy = g.coord(1, j) - cy;
          const double dz = g.coord(2, k) - cz;
          const double r2 = dx * dx + dy * dy + dz * dz;
          T.at(i, j, k) += kern.amplitude * std::exp(-r2 * inv2r2);
        }
      }
    }
  }
}

void S3DRank::update_velocity_and_diagnostics() {
  Field& u = field(Variable::kVelU);
  const Field& T = field(Variable::kTemperature);
  const Field& h2 = field(Variable::kYH2);
  const Field& o2 = field(Variable::kYO2);
  const Field& h2o = field(Variable::kYH2O);

  std::array<Field*, 5> minors{
      &field(Variable::kYH), &field(Variable::kYO), &field(Variable::kYOH),
      &field(Variable::kYHO2), &field(Variable::kYH2O2)};

  turbulence_.sample(params_.grid, owned_, time_, u, field(Variable::kVelV),
                     field(Variable::kVelW));

  const int64_t i0 = owned_.lo[0];
  const int64_t nx = owned_.extent(0);
  for (int64_t k = owned_.lo[2]; k < owned_.hi[2]; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1]; ++j) {
      // Mean jet along +x.
      const double jet = params_.jet_velocity * jet_core(params_, j, k);
      double* ur = u.ptr(i0, j, k);
      const double* tr = T.ptr(i0, j, k);
      const double* h2r = h2.ptr(i0, j, k);
      const double* o2r = o2.ptr(i0, j, k);
      const double* h2or = h2o.ptr(i0, j, k);
      double* hrr = heat_release_.ptr(i0, j, k);
      std::array<double*, 5> mr{};
      for (size_t s = 0; s < minors.size(); ++s) {
        mr[s] = minors[s]->ptr(i0, j, k);
      }
      for (int64_t i = 0; i < nx; ++i) {
        ur[i] += jet;
        // Diagnostics: heat-release rate and equilibrium minor species.
        hrr[i] = params_.chemistry.heat_release *
                 chemistry_.rate(tr[i], h2r[i], o2r[i]);
        const auto ms =
            chemistry_.minor_species(std::min(1.0, h2or[i] / 0.9));
        for (size_t s = 0; s < ms.size(); ++s) mr[s][i] = ms[s];
      }
    }
  }
}

void S3DRank::compute_rhs(const std::vector<Field*>& transported,
                          int64_t k0, int64_t k1, double* rhs) {
  const GlobalGrid& g = params_.grid;
  const Box3 domain = g.bounds();
  const double dx = g.spacing(0), dy = g.spacing(1), dz = g.spacing(2);
  const double idx = 1.0 / dx, idy = 1.0 / dy, idz = 1.0 / dz;
  const double idx2 = 1.0 / (dx * dx), idy2 = 1.0 / (dy * dy),
               idz2 = 1.0 / (dz * dz);
  const double nu = params_.diffusivity;

  const Field& u = field(Variable::kVelU);
  const Field& v = field(Variable::kVelV);
  const Field& w = field(Variable::kVelW);
  const Field& T = *transported[0];   // kTransported order
  const Field& h2 = *transported[1];
  const Field& o2 = *transported[2];

  // Every field has the same ghosted storage, so one pair of strides steps
  // a row pointer to its y and z neighbour rows.
  for (const Field* f : transported) HIA_ASSERT(f->storage() == u.storage());
  const int64_t sy = u.storage().extent(0);
  const int64_t sz = sy * u.storage().extent(1);
  const int64_t i0 = owned_.lo[0];
  const int64_t nx = owned_.extent(0);
  // Cells [x0, x1) of a row have both x neighbours in the domain; the
  // others (at most one per end) sit on a domain face.
  const bool lo_face = owned_.lo[0] == domain.lo[0];
  const bool hi_face = owned_.hi[0] == domain.hi[0];
  const int64_t x0 = lo_face ? 1 : 0;
  const int64_t x1 = std::max(x0, hi_face ? nx - 1 : nx);

  const auto cells = static_cast<size_t>(nx * owned_.extent(1) * (k1 - k0));
  // Reaction sources of one row, kTransported-major.
  double* const react = reaction_.data();
  size_t row = 0;
  for (int64_t k = k0; k < k1; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1];
         ++j, row += static_cast<size_t>(nx)) {
      const double* tr = T.ptr(i0, j, k);
      const double* h2r = h2.ptr(i0, j, k);
      const double* o2r = o2.ptr(i0, j, k);
      for (int64_t i = 0; i < nx; ++i) {
        const auto src = chemistry_.sources(tr[i], h2r[i], o2r[i]);
        react[i] = src.temperature;
        react[nx + i] = src.h2;
        react[2 * nx + i] = src.o2;
        react[3 * nx + i] = src.h2o;
      }

      const double* ur = u.ptr(i0, j, k);
      const double* vr = v.ptr(i0, j, k);
      const double* wr = w.ptr(i0, j, k);
      // Clamped neighbours: outside the domain a neighbour reads the cell
      // itself (zero-gradient outflow boundary), so at a y or z face the
      // neighbour row is the row.
      const int64_t ym = j > domain.lo[1] ? -sy : 0;
      const int64_t yp = j + 1 < domain.hi[1] ? sy : 0;
      const int64_t zm = k > domain.lo[2] ? -sz : 0;
      const int64_t zp = k + 1 < domain.hi[2] ? sz : 0;

      for (size_t f = 0; f < kTransported.size(); ++f) {
        const double* p = transported[f]->ptr(i0, j, k);
        const double* src = react + static_cast<int64_t>(f) * nx;
        double* out = rhs + f * cells + row;
        // The x neighbours are arguments so domain-face cells can pass the
        // cell itself; interior and face cells share every operation, so a
        // cell's value does not depend on the rank layout.
        auto cell = [=](int64_t i, double xm, double xp) {
          const double c = p[i];
          const double cym = p[i + ym], cyp = p[i + yp];
          const double czm = p[i + zm], czp = p[i + zp];
          // First-order upwind advection.
          const double adv = upwind(ur[i], (c - xm) * idx, (xp - c) * idx) +
                             upwind(vr[i], (c - cym) * idy, (cyp - c) * idy) +
                             upwind(wr[i], (c - czm) * idz, (czp - c) * idz);
          // 7-point Laplacian diffusion.
          const double lap = (xm - 2.0 * c + xp) * idx2 +
                             (cym - 2.0 * c + cyp) * idy2 +
                             (czm - 2.0 * c + czp) * idz2;
          out[i] = -adv + nu * lap + src[i];
        };
        for (int64_t i = x0; i < x1; ++i) cell(i, p[i - 1], p[i + 1]);
        auto face = [=](int64_t i) {
          cell(i, lo_face && i == 0 ? p[i] : p[i - 1],
               hi_face && i == nx - 1 ? p[i] : p[i + 1]);
        };
        for (int64_t i = 0; i < x0; ++i) face(i);
        for (int64_t i = x1; i < nx; ++i) face(i);
      }
    }
  }
}

void S3DRank::apply_update(const std::vector<Field*>& transported,
                           int64_t k0, int64_t k1, const double* rhs,
                           double dt) {
  const int64_t i0 = owned_.lo[0];
  const int64_t nx = owned_.extent(0);
  const auto cells = static_cast<size_t>(nx * owned_.extent(1) * (k1 - k0));
  size_t row = 0;
  for (int64_t k = k0; k < k1; ++k) {
    for (int64_t j = owned_.lo[1]; j < owned_.hi[1];
         ++j, row += static_cast<size_t>(nx)) {
      for (size_t f = 0; f < kTransported.size(); ++f) {
        // Mass fractions stay in [0, 1]; temperature stays non-negative.
        const double hi = kTransported[f] == Variable::kTemperature
                              ? std::numeric_limits<double>::infinity()
                              : 1.0;
        double* p = transported[f]->ptr(i0, j, k);
        const double* r = rhs + f * cells + row;
        for (int64_t i = 0; i < nx; ++i) {
          p[i] = std::clamp(p[i] + dt * r[i], 0.0, hi);
        }
      }
    }
  }
}

void S3DRank::advance(Comm& comm) {
  // Step span carries the virtual (simulated) clock; phases nest inside.
  obs::Span step_span("sim", "step",
                      {.rank = rank_, .step = step_, .vtime = time_});
  Stopwatch watch;

  std::vector<Field*> transported;
  transported.reserve(kTransported.size());
  for (Variable v : kTransported) transported.push_back(&field(v));

  const double dt = params_.dt;
  const int64_t k0 = owned_.lo[2];
  const int64_t k1 = owned_.hi[2];

  exchange_halos(comm, decomp_, transported, kGhost);
  {
    // Plane k's slopes go into one half of a two-plane window, and plane
    // k-1 is stepped at once: rhs(k) was the last reader of its old values.
    obs::Span rhs_span("sim", "rhs", {.rank = rank_, .step = step_});
    const size_t plane = window_.size() / 2;
    for (int64_t k = k0; k <= k1; ++k) {
      if (k < k1) {
        compute_rhs(transported, k, k + 1,
                    window_.data() + static_cast<size_t>(k % 2) * plane);
      }
      if (k > k0) {
        apply_update(transported, k - 1, k,
                     window_.data() + static_cast<size_t>((k - 1) % 2) * plane,
                     dt);
      }
    }
  }

  // Intermittent ignition kernels, prescribed velocity, diagnostics.
  apply_kernels(step_);
  time_ += dt;
  ++step_;
  {
    obs::Span diag_span("sim", "chemistry",
                        {.rank = rank_, .step = step_, .vtime = time_});
    update_velocity_and_diagnostics();
  }

  last_step_seconds_ = watch.seconds();
  static obs::Histogram& step_h = obs::histogram("sim_step_s");
  step_h.record(last_step_seconds_);
}

}  // namespace hia
