// Tests for MiniS3D: physical sanity of the initial condition and time
// integration, intermittent kernel generation, turbulence properties, and
// decomposition invariance (the same physics regardless of rank layout).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>

#include "runtime/comm.hpp"
#include "sim/chemistry.hpp"
#include "sim/halo.hpp"
#include "sim/s3d.hpp"
#include "sim/turbulence.hpp"

namespace hia {
namespace {

S3DParams small_params() {
  S3DParams p;
  p.grid = GlobalGrid{{24, 16, 16}, {1.0, 0.75, 0.75}};
  p.ranks_per_axis = {2, 2, 1};
  return p;
}

TEST(Chemistry, RateIncreasesWithTemperature) {
  Chemistry chem;
  const double cold = chem.rate(1.0, 0.5, 0.2);
  const double hot = chem.rate(4.0, 0.5, 0.2);
  EXPECT_GT(hot, cold);
  EXPECT_GT(cold, 0.0);
}

TEST(Chemistry, NoFuelNoReaction) {
  Chemistry chem;
  EXPECT_DOUBLE_EQ(chem.rate(5.0, 0.0, 0.2), 0.0);
  EXPECT_DOUBLE_EQ(chem.rate(5.0, 0.5, 0.0), 0.0);
}

TEST(Chemistry, SourceTermsConserveMass) {
  Chemistry chem;
  const auto s = chem.sources(3.0, 0.4, 0.3);
  // dY_H2 + dY_O2 + dY_H2O must vanish (2 H2 + O2 -> 2 H2O in Y space).
  EXPECT_NEAR(s.h2 + s.o2 + s.h2o, 0.0, 1e-12);
  EXPECT_LT(s.h2, 0.0);
  EXPECT_LT(s.o2, 0.0);
  EXPECT_GT(s.h2o, 0.0);
  EXPECT_GT(s.temperature, 0.0);
}

TEST(Chemistry, MinorSpeciesPeakMidReaction) {
  Chemistry chem;
  const auto at0 = chem.minor_species(0.0);
  const auto mid = chem.minor_species(0.5);
  const auto at1 = chem.minor_species(1.0);
  for (size_t s = 0; s < 3; ++s) {  // H, O, OH vanish at both ends
    EXPECT_DOUBLE_EQ(at0[s], 0.0);
    EXPECT_DOUBLE_EQ(at1[s], 0.0);
    EXPECT_GT(mid[s], 0.0);
  }
}

TEST(KernelSeeder, DeterministicSequence) {
  ChemistryParams p;
  KernelSeeder a(p), b(p);
  for (long step = 0; step < 50; ++step) {
    const auto ka = a.kernels_for_step(step);
    const auto kb = b.kernels_for_step(step);
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      EXPECT_DOUBLE_EQ(ka[i].cx, kb[i].cx);
      EXPECT_DOUBLE_EQ(ka[i].amplitude, kb[i].amplitude);
    }
  }
}

TEST(KernelSeeder, ProducesKernelsAtExpectedRate) {
  ChemistryParams p;
  p.kernel_rate = 1.2;
  KernelSeeder seeder(p);
  size_t total = 0;
  const long steps = 500;
  for (long s = 0; s < steps; ++s) total += seeder.kernels_for_step(s).size();
  const double rate = static_cast<double>(total) / steps;
  EXPECT_NEAR(rate, 1.2, 0.25);
}

TEST(Turbulence, DivergenceFreeByConstruction) {
  SyntheticTurbulence turb;
  // Numerical divergence at random points should be ~0 (analytically 0).
  Xoshiro256 rng(3);
  const double h = 1e-5;
  for (int trial = 0; trial < 20; ++trial) {
    const Vec3 x{rng.uniform(), rng.uniform(), rng.uniform()};
    const double t = rng.uniform(0.0, 2.0);
    const double dudx =
        (turb.velocity(x + Vec3{h, 0, 0}, t).x -
         turb.velocity(x - Vec3{h, 0, 0}, t).x) / (2 * h);
    const double dvdy =
        (turb.velocity(x + Vec3{0, h, 0}, t).y -
         turb.velocity(x - Vec3{0, h, 0}, t).y) / (2 * h);
    const double dwdz =
        (turb.velocity(x + Vec3{0, 0, h}, t).z -
         turb.velocity(x - Vec3{0, 0, h}, t).z) / (2 * h);
    const double scale = turb.velocity(x, t).norm() + 1.0;
    EXPECT_NEAR((dudx + dvdy + dwdz) / scale, 0.0, 1e-4);
  }
}

TEST(Turbulence, RmsNearTarget) {
  TurbulenceParams p;
  p.rms_velocity = 1.0;
  SyntheticTurbulence turb(p);
  Xoshiro256 rng(9);
  double sum2 = 0.0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    const Vec3 u = turb.velocity(
        Vec3{rng.uniform(), rng.uniform(), rng.uniform()}, 0.3);
    sum2 += u.dot(u);
  }
  // Total kinetic energy ~ 3 * rms^2 per point.
  EXPECT_NEAR(std::sqrt(sum2 / (3.0 * n)), 1.0, 0.35);
}

TEST(Turbulence, SeparableSampleMatchesDirectSum) {
  // sample() sums the modes through per-axis phasor tables; on an
  // off-origin block whose x extent is not a whole number of register
  // blocks it must reproduce the direct per-point cos() sum.
  SyntheticTurbulence turb;
  const GlobalGrid g{{40, 28, 20}, {1.0, 0.7, 0.5}};
  const Box3 box{{5, 3, 2}, {29, 20, 15}};
  Field u("u", box, g.bounds(), 1);
  Field v("v", box, g.bounds(), 1);
  Field w("w", box, g.bounds(), 1);
  for (const double t : {0.0, 0.37, 2.0}) {
    turb.sample(g, box, t, u, v, w);
    double max_err = 0.0;
    for (int64_t k = box.lo[2]; k < box.hi[2]; ++k)
      for (int64_t j = box.lo[1]; j < box.hi[1]; ++j)
        for (int64_t i = box.lo[0]; i < box.hi[0]; ++i) {
          const Vec3 ref = turb.velocity(
              Vec3{g.coord(0, i), g.coord(1, j), g.coord(2, k)}, t);
          max_err = std::max({max_err, std::abs(u.at(i, j, k) - ref.x),
                              std::abs(v.at(i, j, k) - ref.y),
                              std::abs(w.at(i, j, k) - ref.z)});
        }
    EXPECT_LT(max_err, 1e-12) << "t = " << t;
  }
}

TEST(S3D, InitialConditionIsPhysical) {
  const S3DParams p = small_params();
  S3DRank sim(p, 0);
  sim.initialize();

  const Box3 owned = sim.decomp().block(0);
  for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k) {
    for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j) {
      for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
        double y_sum = 0.0;
        for (Variable v : {Variable::kYH2, Variable::kYO2, Variable::kYH2O,
                           Variable::kYN2}) {
          const double y = sim.field(v).at(i, j, k);
          EXPECT_GE(y, 0.0);
          EXPECT_LE(y, 1.0);
          y_sum += y;
        }
        EXPECT_NEAR(y_sum, 1.0, 1e-9);
        EXPECT_GT(sim.field(Variable::kTemperature).at(i, j, k), 0.0);
      }
    }
  }
}

TEST(S3D, AdvanceKeepsFieldsFiniteAndBounded) {
  const S3DParams p = small_params();
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < 12; ++s) sim.advance(comm);
    EXPECT_EQ(sim.step(), 12);
    EXPECT_NEAR(sim.time(), 12 * p.dt, 1e-12);

    const Box3 owned = sim.decomp().block(comm.rank());
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k) {
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j) {
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
          for (int v = 0; v < kNumVariables; ++v) {
            const double x = sim.field(static_cast<Variable>(v)).at(i, j, k);
            ASSERT_TRUE(std::isfinite(x))
                << kVariableNames[static_cast<size_t>(v)];
          }
          const double h2 = sim.field(Variable::kYH2).at(i, j, k);
          EXPECT_GE(h2, 0.0);
          EXPECT_LE(h2, 1.0);
          EXPECT_GE(sim.field(Variable::kTemperature).at(i, j, k), 0.0);
        }
      }
    }
  });
}

TEST(S3D, IgnitionKernelsRaiseTemperature) {
  S3DParams p = small_params();
  p.chemistry.kernel_rate = 3.0;  // make kernels near-certain
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  std::atomic<int> hot_ranks{0};
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    double max_t = 0.0;
    for (int s = 0; s < 10; ++s) {
      sim.advance(comm);
      const Box3 owned = sim.decomp().block(comm.rank());
      for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
        for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
          for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i)
            max_t = std::max(max_t,
                             sim.field(Variable::kTemperature).at(i, j, k));
    }
    if (max_t > 1.5 * p.chemistry.ambient_temperature) hot_ranks.fetch_add(1);
  });
  EXPECT_GE(hot_ranks.load(), 1);
}

TEST(S3D, DecompositionInvariance) {
  // The same grid advanced under different rank layouts must produce
  // identical fields (deterministic scheme + exact halo exchange).
  S3DParams p1 = small_params();
  p1.ranks_per_axis = {1, 1, 1};
  S3DParams p2 = small_params();
  p2.ranks_per_axis = {2, 2, 2};

  // Single-rank reference.
  std::vector<double> reference;
  {
    World world(1);
    world.run([&](Comm& comm) {
      S3DRank sim(p1, 0);
      sim.initialize();
      for (int s = 0; s < 5; ++s) sim.advance(comm);
      reference = sim.field(Variable::kTemperature).pack_owned();
    });
  }

  Decomposition d2(p2.grid, p2.ranks_per_axis);
  World world(d2.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p2, comm.rank());
    sim.initialize();
    for (int s = 0; s < 5; ++s) sim.advance(comm);

    // Compare owned values against the single-rank reference.
    const Box3 owned = d2.block(comm.rank());
    const Box3 whole = p1.grid.bounds();
    for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
      for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
        for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
          const double ref = reference[whole.offset(i, j, k)];
          ASSERT_NEAR(sim.field(Variable::kTemperature).at(i, j, k), ref,
                      1e-11)
              << "(" << i << "," << j << "," << k << ")";
        }
  });
}

TEST(S3D, RowLoopStepMatchesClampedStencil) {
  // One Euler step against a per-cell transcription of the scheme (upwind
  // advection + 7-point diffusion + reaction) whose neighbour lookups
  // outside the domain return the cell itself. One rank owns every face.
  S3DParams p = small_params();
  p.ranks_per_axis = {1, 1, 1};
  p.chemistry.kernel_rate = 0.0;
  const std::array<Variable, 5> transported{
      Variable::kTemperature, Variable::kYH2, Variable::kYO2, Variable::kYH2O,
      Variable::kYN2};
  const Box3 dom = p.grid.bounds();
  World world(1);
  world.run([&](Comm& comm) {
    S3DRank sim(p, 0);
    sim.initialize();
    // Temperature structure along every axis, so the x faces see gradients.
    for (int64_t k = dom.lo[2]; k < dom.hi[2]; ++k)
      for (int64_t j = dom.lo[1]; j < dom.hi[1]; ++j)
        for (int64_t i = dom.lo[0]; i < dom.hi[0]; ++i)
          sim.field(Variable::kTemperature).at(i, j, k) =
              2.0 + std::sin(0.7 * static_cast<double>(i) +
                             0.3 * static_cast<double>(j)) *
                        std::cos(0.5 * static_cast<double>(k));
    std::vector<std::vector<double>> before;
    for (const Variable var : transported) {
      before.push_back(sim.field(var).pack_owned());
    }
    const auto u = sim.field(Variable::kVelU).pack_owned();
    const auto v = sim.field(Variable::kVelV).pack_owned();
    const auto w = sim.field(Variable::kVelW).pack_owned();
    sim.advance(comm);

    const Chemistry chem(p.chemistry);
    const double dx = p.grid.spacing(0), dy = p.grid.spacing(1),
                 dz = p.grid.spacing(2);
    for (int64_t k = dom.lo[2]; k < dom.hi[2]; ++k)
      for (int64_t j = dom.lo[1]; j < dom.hi[1]; ++j)
        for (int64_t i = dom.lo[0]; i < dom.hi[0]; ++i) {
          const size_t o = dom.offset(i, j, k);
          const auto src =
              chem.sources(before[0][o], before[1][o], before[2][o]);
          const std::array<double, 5> reaction{src.temperature, src.h2,
                                               src.o2, src.h2o, 0.0};
          for (size_t f = 0; f < transported.size(); ++f) {
            const std::vector<double>& phi = before[f];
            const double c = phi[o];
            auto val = [&](int64_t ii, int64_t jj, int64_t kk) {
              return dom.contains(ii, jj, kk) ? phi[dom.offset(ii, jj, kk)]
                                              : c;
            };
            const double xm = val(i - 1, j, k), xp = val(i + 1, j, k);
            const double ym = val(i, j - 1, k), yp = val(i, j + 1, k);
            const double zm = val(i, j, k - 1), zp = val(i, j, k + 1);
            const double adv =
                u[o] * (u[o] > 0.0 ? (c - xm) / dx : (xp - c) / dx) +
                v[o] * (v[o] > 0.0 ? (c - ym) / dy : (yp - c) / dy) +
                w[o] * (w[o] > 0.0 ? (c - zm) / dz : (zp - c) / dz);
            const double lap = (xm - 2.0 * c + xp) / (dx * dx) +
                               (ym - 2.0 * c + yp) / (dy * dy) +
                               (zm - 2.0 * c + zp) / (dz * dz);
            double next =
                c + p.dt * (-adv + p.diffusivity * lap + reaction[f]);
            next = f == 0 ? std::max(next, 0.0) : std::clamp(next, 0.0, 1.0);
            ASSERT_NEAR(sim.field(transported[f]).at(i, j, k), next, 1e-12)
                << kVariableNames[static_cast<size_t>(transported[f])]
                << " at (" << i << "," << j << "," << k << ")";
          }
        }
  });
}

/// Today's-scheme Euler step transcribed as two whole-block passes: every
/// owned cell's RHS from the pre-step fields (ghosts refreshed), then every
/// update, then the step's ignition kernels. The arithmetic is the row
/// kernel's, operation for operation, so the result must match bit for bit.
std::vector<std::vector<double>> two_pass_euler_step(
    Comm& comm, const S3DRank& sim,
    const std::array<Variable, 5>& transported) {
  const S3DParams& p = sim.params();
  const GlobalGrid& g = p.grid;
  const Box3 owned = sim.decomp().block(comm.rank());
  const Box3 dom = g.bounds();
  std::vector<Field> before;
  for (const Variable var : transported) before.push_back(sim.field(var));
  std::vector<Field*> ptrs;
  for (Field& f : before) ptrs.push_back(&f);
  exchange_halos(comm, sim.decomp(), ptrs, 1);

  const Chemistry chem(p.chemistry);
  const double dx = g.spacing(0), dy = g.spacing(1), dz = g.spacing(2);
  const double idx = 1.0 / dx, idy = 1.0 / dy, idz = 1.0 / dz;
  const double idx2 = 1.0 / (dx * dx), idy2 = 1.0 / (dy * dy),
               idz2 = 1.0 / (dz * dz);
  auto upwind = [](double vel, double back, double fwd) {
    return std::max(vel, 0.0) * back + std::min(vel, 0.0) * fwd;
  };
  const Field& u = sim.field(Variable::kVelU);
  const Field& v = sim.field(Variable::kVelV);
  const Field& w = sim.field(Variable::kVelW);
  const auto cells = static_cast<size_t>(owned.num_cells());
  std::vector<std::vector<double>> rhs(transported.size(),
                                       std::vector<double>(cells));
  for (int64_t k = owned.lo[2]; k < owned.hi[2]; ++k)
    for (int64_t j = owned.lo[1]; j < owned.hi[1]; ++j)
      for (int64_t i = owned.lo[0]; i < owned.hi[0]; ++i) {
        const size_t o = owned.offset(i, j, k);
        const auto src = chem.sources(before[0].at(i, j, k),
                                      before[1].at(i, j, k),
                                      before[2].at(i, j, k));
        const std::array<double, 5> reaction{src.temperature, src.h2, src.o2,
                                             src.h2o, 0.0};
        for (size_t f = 0; f < transported.size(); ++f) {
          const Field& phi = before[f];
          const double c = phi.at(i, j, k);
          auto val = [&](int64_t ii, int64_t jj, int64_t kk) {
            return dom.contains(ii, jj, kk) ? phi.at(ii, jj, kk) : c;
          };
          const double xm = val(i - 1, j, k), xp = val(i + 1, j, k);
          const double ym = val(i, j - 1, k), yp = val(i, j + 1, k);
          const double zm = val(i, j, k - 1), zp = val(i, j, k + 1);
          const double adv =
              upwind(u.at(i, j, k), (c - xm) * idx, (xp - c) * idx) +
              upwind(v.at(i, j, k), (c - ym) * idy, (yp - c) * idy) +
              upwind(w.at(i, j, k), (c - zm) * idz, (zp - c) * idz);
          const double lap = (xm - 2.0 * c + xp) * idx2 +
                             (ym - 2.0 * c + yp) * idy2 +
                             (zm - 2.0 * c + zp) * idz2;
          rhs[f][o] = -adv + p.diffusivity * lap + reaction[f];
        }
      }

  std::vector<std::vector<double>> after(transported.size());
  for (size_t f = 0; f < transported.size(); ++f) {
    after[f] = before[f].pack_owned();
    const double hi = f == 0 ? std::numeric_limits<double>::infinity() : 1.0;
    for (size_t o = 0; o < cells; ++o) {
      after[f][o] = std::clamp(after[f][o] + p.dt * rhs[f][o], 0.0, hi);
    }
  }

  for (const IgnitionKernel& kern :
       KernelSeeder(p.chemistry).kernels_for_step(sim.step())) {
    const double cx = kern.cx * g.physical[0];
    const double cy = kern.cy * g.physical[1];
    const double cz = kern.cz * g.physical[2];
    const std::array<double, 3> centre{cx, cy, cz};
    const double support = 3.0 * kern.radius;
    Box3 bb;
    for (int a = 0; a < 3; ++a) {
      bb.lo[a] = static_cast<int64_t>((centre[a] - support) / g.spacing(a)) - 1;
      bb.hi[a] = static_cast<int64_t>((centre[a] + support) / g.spacing(a)) + 2;
    }
    const Box3 local = bb.intersect(owned);
    if (local.empty()) continue;
    const double inv2r2 = 1.0 / (2.0 * kern.radius * kern.radius);
    for (int64_t k = local.lo[2]; k < local.hi[2]; ++k)
      for (int64_t j = local.lo[1]; j < local.hi[1]; ++j)
        for (int64_t i = local.lo[0]; i < local.hi[0]; ++i) {
          const double ddx = g.coord(0, i) - cx;
          const double ddy = g.coord(1, j) - cy;
          const double ddz = g.coord(2, k) - cz;
          const double r2 = ddx * ddx + ddy * ddy + ddz * ddz;
          after[0][owned.offset(i, j, k)] +=
              kern.amplitude * std::exp(-r2 * inv2r2);
        }
  }
  return after;
}

TEST(S3D, PlaneWindowMatchesTwoPassStep) {
  // The windowed Euler step updates plane k-1 as soon as plane k's slopes
  // exist. Over 5 steps with ignition kernels it must equal the two-pass
  // step exactly: on one rank, across a z rank face (the window meets the
  // ghost plane) and on one-plane-thick rank blocks.
  const std::array<Variable, 5> transported{
      Variable::kTemperature, Variable::kYH2, Variable::kYO2, Variable::kYH2O,
      Variable::kYN2};
  for (const std::array<int, 3> layout :
       {std::array<int, 3>{1, 1, 1}, std::array<int, 3>{1, 1, 2},
        std::array<int, 3>{1, 2, 6}}) {
    S3DParams p;
    p.grid = GlobalGrid{{20, 12, 6}, {1.0, 0.6, 0.3}};
    p.ranks_per_axis = layout;
    p.chemistry.kernel_rate = 3.0;  // three kernels every step
    const Decomposition d(p.grid, layout);
    World world(d.num_ranks());
    std::atomic<int> kernel_cells{0};
    world.run([&](Comm& comm) {
      S3DRank sim(p, comm.rank());
      sim.initialize();
      for (int s = 0; s < 5; ++s) {
        const auto want = two_pass_euler_step(comm, sim, transported);
        sim.advance(comm);
        for (size_t f = 0; f < transported.size(); ++f) {
          const auto got = sim.field(transported[f]).pack_owned();
          ASSERT_EQ(got.size(), want[f].size());
          ASSERT_EQ(std::memcmp(got.data(), want[f].data(),
                                got.size() * sizeof(double)),
                    0)
              << kVariableNames[static_cast<size_t>(transported[f])]
              << " differs after step " << s + 1 << " on rank "
              << comm.rank() << " of layout " << layout[0] << "x"
              << layout[1] << "x" << layout[2];
        }
        for (const double t : want[0]) {
          if (t > 1.5 * p.chemistry.ambient_temperature) ++kernel_cells;
        }
      }
    });
    EXPECT_GT(kernel_cells.load(), 0) << "no ignition kernel landed";
  }
}

TEST(S3D, SolutionBytesMatchTableOneAccounting) {
  const S3DParams p = small_params();
  S3DRank sim(p, 0);
  const Box3 owned = sim.decomp().block(0);
  EXPECT_EQ(sim.solution_bytes(),
            static_cast<size_t>(owned.num_cells()) * 14 * 8);
}

TEST(S3D, HeatReleaseNonNegative) {
  const S3DParams p = small_params();
  Decomposition d(p.grid, p.ranks_per_axis);
  World world(d.num_ranks());
  world.run([&](Comm& comm) {
    S3DRank sim(p, comm.rank());
    sim.initialize();
    for (int s = 0; s < 3; ++s) sim.advance(comm);
    for (const double v : sim.heat_release().data()) EXPECT_GE(v, 0.0);
  });
}

}  // namespace
}  // namespace hia
