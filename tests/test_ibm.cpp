#include "src/ibm/coupling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/rng.hpp"
#include "src/exec/exec.hpp"
#include "src/lbm/boundary.hpp"

namespace apr::ibm {
namespace {

lbm::Lattice linear_velocity_lattice() {
  lbm::Lattice lat(10, 10, 10, Vec3{}, 0.5, 1.0);
  for (int z = 0; z < 10; ++z) {
    for (int y = 0; y < 10; ++y) {
      for (int x = 0; x < 10; ++x) {
        const Vec3 p = lat.position(x, y, z);
        lat.mutable_velocity(lat.idx(x, y, z)) =
            Vec3{0.01 + 0.02 * p.x, 0.03 * p.y, -0.01 * p.z};
      }
    }
  }
  return lat;
}

TEST(IbmInterpolation, ReproducesLinearFieldExactlyWithPeskin3) {
  // The 3-point kernel satisfies the first-moment condition exactly, so
  // linear velocity fields interpolate exactly (away from the edge).
  const lbm::Lattice lat = linear_velocity_lattice();
  Rng rng(5);
  std::vector<Vec3> pos;
  for (int i = 0; i < 50; ++i) {
    pos.push_back(rng.point_in_box({1.0, 1.0, 1.0}, {3.5, 3.5, 3.5}));
  }
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel, DeltaKernel::Peskin3);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    EXPECT_NEAR(vel[i].x, 0.01 + 0.02 * pos[i].x, 1e-10);
    EXPECT_NEAR(vel[i].y, 0.03 * pos[i].y, 1e-10);
    EXPECT_NEAR(vel[i].z, -0.01 * pos[i].z, 1e-10);
  }
}

TEST(IbmInterpolation, Cosine4LinearFieldErrorIsBounded) {
  // The cosine kernel's residual first moment bounds the linear-field
  // interpolation error at ~2% of the local gradient per spacing.
  const lbm::Lattice lat = linear_velocity_lattice();
  Rng rng(6);
  std::vector<Vec3> pos;
  for (int i = 0; i < 50; ++i) {
    pos.push_back(rng.point_in_box({1.0, 1.0, 1.0}, {3.5, 3.5, 3.5}));
  }
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel, DeltaKernel::Cosine4);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    // gradient 0.02/m * dx 0.5 m * m1 bound 0.025 ~ 2.5e-4.
    EXPECT_NEAR(vel[i].x, 0.01 + 0.02 * pos[i].x, 5e-4);
    EXPECT_NEAR(vel[i].y, 0.03 * pos[i].y, 7e-4);
  }
}

TEST(IbmInterpolation, ConstantFieldAtAnyPosition) {
  lbm::Lattice lat(8, 8, 8, Vec3{-1.0, -1.0, -1.0}, 0.25, 1.0);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    lat.mutable_velocity(i) = Vec3{0.07, -0.02, 0.01};
  }
  std::vector<Vec3> pos{{-0.3, -0.4, -0.5}, {0.1, 0.2, 0.0}};
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel);
  for (const auto& v : vel) {
    EXPECT_NEAR(v.x, 0.07, 1e-12);
    EXPECT_NEAR(v.y, -0.02, 1e-12);
    EXPECT_NEAR(v.z, 0.01, 1e-12);
  }
}

TEST(IbmSpreading, ConservesTotalForce) {
  lbm::Lattice lat(12, 12, 12, Vec3{}, 1.0, 1.0);
  Rng rng(7);
  std::vector<Vec3> pos;
  std::vector<Vec3> forces;
  Vec3 total{};
  for (int i = 0; i < 30; ++i) {
    pos.push_back(rng.point_in_box({3, 3, 3}, {8, 8, 8}));
    forces.push_back(rng.unit_vector() * rng.uniform(0.1, 1.0));
    total += forces.back();
  }
  spread_forces(lat, pos, forces);
  Vec3 spread_total{};
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    spread_total += lat.force(i);
  }
  EXPECT_NEAR(spread_total.x, total.x, 1e-10);
  EXPECT_NEAR(spread_total.y, total.y, 1e-10);
  EXPECT_NEAR(spread_total.z, total.z, 1e-10);
}

TEST(IbmSpreading, LocalizedWithinKernelSupport) {
  lbm::Lattice lat(12, 12, 12, Vec3{}, 1.0, 1.0);
  const std::vector<Vec3> pos{{6.0, 6.0, 6.0}};
  const std::vector<Vec3> forces{{1.0, 0.0, 0.0}};
  spread_forces(lat, pos, forces);
  for (int z = 0; z < 12; ++z) {
    for (int y = 0; y < 12; ++y) {
      for (int x = 0; x < 12; ++x) {
        const double f = norm(lat.force(lat.idx(x, y, z)));
        const double d = std::max(
            {std::abs(x - 6.0), std::abs(y - 6.0), std::abs(z - 6.0)});
        if (d >= 2.0) {
          EXPECT_EQ(f, 0.0) << x << "," << y << "," << z;
        }
      }
    }
  }
}

TEST(IbmSpreading, SkipsWallAndExteriorNodes) {
  lbm::Lattice lat(8, 8, 8, Vec3{}, 1.0, 1.0);
  lbm::mark_box_walls(lat);
  const std::vector<Vec3> pos{{1.2, 4.0, 4.0}};  // near the x-min wall
  const std::vector<Vec3> forces{{1.0, 0.0, 0.0}};
  spread_forces(lat, pos, forces);
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (lat.type(i) != lbm::NodeType::Fluid) {
      EXPECT_EQ(norm(lat.force(i)), 0.0);
    }
  }
}

/// Multi-tile lattice (3 x 3 x 3 tiles of 16^3, the last ones partial):
/// an x-aligned Fluid duct wrapped in Wall nodes, Exterior elsewhere.
/// Every tile with y >= 32 or z >= 32 is left all-Exterior and released,
/// so kernel supports straddle tile seams, Wall nodes, vacant tiles and
/// the x domain edges. Resident nodes carry a smooth nonzero velocity.
lbm::Lattice duct_lattice() {
  lbm::Lattice lat(36, 40, 40, Vec3{}, 1.0, 1.0);
  for (int z = 0; z < lat.nz(); ++z) {
    for (int y = 0; y < lat.ny(); ++y) {
      for (int x = 0; x < lat.nx(); ++x) {
        const int dy = std::abs(y - 20);
        const int dz = std::abs(z - 20);
        lbm::NodeType t = lbm::NodeType::Exterior;
        if (dy < 8 && dz < 8) {
          t = lbm::NodeType::Fluid;
        } else if (dy <= 8 && dz <= 8) {
          t = lbm::NodeType::Wall;
        }
        lat.set_type(x, y, z, t);
      }
    }
  }
  lat.shrink_to_fit();
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    if (lat.type(i) == lbm::NodeType::Exterior) continue;
    const double k = static_cast<double>(i % 97);
    lat.set_velocity(i, Vec3{0.01 + 1e-4 * k, -2e-4 * k, 3e-4 * (k - 48.0)});
  }
  return lat;
}

/// Large random vertex cloud (above the parallel-spread threshold) around
/// and beyond the duct of duct_lattice(). Forces are O(1) with mixed signs
/// so cancellation would expose any ordering bug.
void make_spread_workload(std::vector<Vec3>& pos, std::vector<Vec3>& forces) {
  Rng rng(91);
  pos.clear();
  forces.clear();
  for (int i = 0; i < 2000; ++i) {
    pos.push_back(rng.point_in_box({-1.5, 9, 9}, {37.5, 35, 35}));
    forces.push_back(rng.unit_vector() * rng.uniform(-1.0, 1.0));
  }
}

double max_force(const lbm::Lattice& lat) {
  double fmax = 0.0;
  for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
    fmax = std::max(fmax, norm(lat.force(i)));
  }
  return fmax;
}

TEST(IbmSpreading, ParallelIsDeterministicAndNearSerialAcrossWorkerCounts) {
  std::vector<Vec3> pos, forces;
  make_spread_workload(pos, forces);

  lbm::Lattice ref = duct_lattice();
  spread_forces_serial(ref, pos, forces);
  const double fmax = max_force(ref);
  ASSERT_GT(fmax, 0.0);

  const int saved = exec::num_workers();
  for (int workers : {1, 2, 4}) {
    exec::set_num_workers(workers);
    lbm::Lattice a = duct_lattice();
    spread_forces(a, pos, forces);
    lbm::Lattice b = duct_lattice();
    spread_forces(b, pos, forces);
    EXPECT_EQ(a.num_tiles(), ref.num_tiles()) << workers << " workers";
    for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
      // Same worker count twice: bit-for-bit reproducible.
      ASSERT_EQ(a.force(i).x, b.force(i).x) << "node " << i;
      ASSERT_EQ(a.force(i).y, b.force(i).y) << "node " << i;
      ASSERT_EQ(a.force(i).z, b.force(i).z) << "node " << i;
      if (workers == 1) {
        // One worker scatters in vertex order, exactly like the reference.
        ASSERT_EQ(a.force(i).x, ref.force(i).x) << "node " << i;
        ASSERT_EQ(a.force(i).y, ref.force(i).y) << "node " << i;
        ASSERT_EQ(a.force(i).z, ref.force(i).z) << "node " << i;
      } else {
        // Per-worker accumulators: only the per-node summation order
        // differs, so the deviation stays at rounding level.
        EXPECT_NEAR(a.force(i).x, ref.force(i).x, 1e-14 * fmax);
        EXPECT_NEAR(a.force(i).y, ref.force(i).y, 1e-14 * fmax);
        EXPECT_NEAR(a.force(i).z, ref.force(i).z, 1e-14 * fmax);
      }
    }
  }
  exec::set_num_workers(saved);
}

TEST(IbmStencil, ClipsSupportToTheLattice) {
  const lbm::Lattice lat = duct_lattice();
  // Interior, both x edges, a tile seam (y = 16) and outside the lattice.
  const std::vector<Vec3> probes{{10.3, 20.6, 19.1}, {0.4, 15.5, 16.0},
                                 {35.2, 31.9, 32.5}, {-1.7, 20.0, 20.0},
                                 {37.9, 39.5, 0.2},  {-5.0, 20.0, 20.0}};
  for (const Vec3& p : probes) {
    const Stencil s = make_stencil(lat, p);
    const int n[3] = {lat.nx(), lat.ny(), lat.nz()};
    const double c[3] = {p.x, p.y, p.z};
    const int first[3] = {s.fx, s.fy, s.fz};
    const int count[3] = {s.nx, s.ny, s.nz};
    const std::array<double, 4>* w[3] = {&s.wx, &s.wy, &s.wz};
    for (int a = 0; a < 3; ++a) {
      int f = 0;
      std::array<double, 4> raw{};
      const int m = delta_weights(DeltaKernel::Cosine4, c[a], &f, raw);
      int kept = 0;
      for (int k = 0; k < m; ++k) {
        if (f + k < 0 || f + k >= n[a]) continue;
        if (kept == 0) {
          EXPECT_EQ(first[a], f + k);
        }
        ASSERT_LT(kept, count[a]);
        EXPECT_EQ((*w[a])[kept], raw[k]);
        ++kept;
      }
      EXPECT_EQ(count[a], kept) << "axis " << a << " at " << c[a];
    }
  }
}

TEST(IbmStencil, InterpolateMatchesScalarOracleBitwise) {
  const lbm::Lattice lat = duct_lattice();
  std::vector<Vec3> pos, forces;
  make_spread_workload(pos, forces);

  // Scalar per-position oracle: raw 1-D weights, bounds-checked nodes,
  // flat-index addressing, the same product and summation order.
  std::vector<Vec3> oracle(pos.size());
  for (std::size_t v = 0; v < pos.size(); ++v) {
    const Vec3 lc = lat.to_lattice(pos[v]);
    int fx = 0, fy = 0, fz = 0;
    std::array<double, 4> wx{}, wy{}, wz{};
    const int nx = delta_weights(DeltaKernel::Cosine4, lc.x, &fx, wx);
    const int ny = delta_weights(DeltaKernel::Cosine4, lc.y, &fy, wy);
    const int nz = delta_weights(DeltaKernel::Cosine4, lc.z, &fz, wz);
    Vec3 u{};
    for (int kz = 0; kz < nz; ++kz) {
      for (int ky = 0; ky < ny; ++ky) {
        const double wyz = wy[ky] * wz[kz];
        for (int kx = 0; kx < nx; ++kx) {
          const int x = fx + kx, y = fy + ky, z = fz + kz;
          if (!lat.in_domain(x, y, z)) continue;
          u += lat.velocity(lat.idx(x, y, z)) * (wx[kx] * wyz);
        }
      }
    }
    oracle[v] = u;
  }

  std::vector<Stencil> stencils;
  const int saved = exec::num_workers();
  for (int workers : {1, 2, 4}) {
    exec::set_num_workers(workers);
    build_stencils(lat, pos, stencils);
    std::vector<Vec3> vel;
    interpolate_velocities(lat, stencils, vel);
    ASSERT_EQ(vel.size(), pos.size());
    for (std::size_t v = 0; v < pos.size(); ++v) {
      ASSERT_EQ(vel[v].x, oracle[v].x) << "vertex " << v;
      ASSERT_EQ(vel[v].y, oracle[v].y) << "vertex " << v;
      ASSERT_EQ(vel[v].z, oracle[v].z) << "vertex " << v;
    }
  }
  exec::set_num_workers(saved);
}

TEST(IbmStencil, SpreadOverPrebuiltStencilsIsReproducibleAndNearSerial) {
  std::vector<Vec3> pos, forces;
  make_spread_workload(pos, forces);
  lbm::Lattice ref = duct_lattice();
  spread_forces_serial(ref, pos, forces);
  const double fmax = max_force(ref);
  std::vector<Stencil> stencils;
  build_stencils(ref, pos, stencils);

  const int saved = exec::num_workers();
  for (int workers : {2, 4}) {
    exec::set_num_workers(workers);
    // One stencil set spread twice, and the position-taking form.
    lbm::Lattice a = duct_lattice();
    spread_forces(a, stencils, forces);
    lbm::Lattice b = duct_lattice();
    spread_forces(b, stencils, forces);
    lbm::Lattice c = duct_lattice();
    spread_forces(c, pos, forces);
    for (std::size_t i = 0; i < ref.num_nodes(); ++i) {
      ASSERT_EQ(a.force(i).x, b.force(i).x) << "node " << i;
      ASSERT_EQ(a.force(i).y, b.force(i).y) << "node " << i;
      ASSERT_EQ(a.force(i).z, b.force(i).z) << "node " << i;
      ASSERT_EQ(a.force(i).x, c.force(i).x) << "node " << i;
      ASSERT_EQ(a.force(i).y, c.force(i).y) << "node " << i;
      ASSERT_EQ(a.force(i).z, c.force(i).z) << "node " << i;
      EXPECT_NEAR(a.force(i).x, ref.force(i).x, 1e-14 * fmax);
      EXPECT_NEAR(a.force(i).y, ref.force(i).y, 1e-14 * fmax);
      EXPECT_NEAR(a.force(i).z, ref.force(i).z, 1e-14 * fmax);
    }
  }
  exec::set_num_workers(saved);
}

TEST(IbmStencil, SpreadSkipsWallAndExteriorAndKeepsVacantTilesVacant) {
  std::vector<Vec3> pos, forces;
  make_spread_workload(pos, forces);
  const int saved = exec::num_workers();
  for (int workers : {1, 4}) {
    exec::set_num_workers(workers);
    lbm::Lattice lat = duct_lattice();
    const std::size_t tiles = lat.num_tiles();
    spread_forces(lat, pos, forces);
    EXPECT_EQ(lat.num_tiles(), tiles);
    std::size_t loaded = 0;
    for (std::size_t i = 0; i < lat.num_nodes(); ++i) {
      if (lat.type(i) == lbm::NodeType::Fluid) {
        loaded += norm(lat.force(i)) > 0.0 ? 1 : 0;
      } else {
        ASSERT_EQ(norm(lat.force(i)), 0.0) << "node " << i;
      }
    }
    EXPECT_GT(loaded, 0u);
  }
  exec::set_num_workers(saved);
}

TEST(IbmStencil, NonFiniteVertexHasAnEmptySupport) {
  lbm::Lattice lat = duct_lattice();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Stencil s = make_stencil(lat, Vec3{10.0, nan, 20.0});
  EXPECT_EQ(s.ny, 0);
  std::vector<Vec3> vel;
  interpolate_velocities(lat, std::vector<Stencil>{s}, vel);
  EXPECT_EQ(norm(vel[0]), 0.0);
  spread_forces(lat, std::vector<Stencil>{s}, {Vec3{1.0, 1.0, 1.0}});
  EXPECT_EQ(max_force(lat), 0.0);
}

TEST(IbmUpdate, MovesVerticesByVelocityTimesSpacing) {
  const lbm::Lattice lat(4, 4, 4, Vec3{}, 0.5, 1.0);
  std::vector<Vec3> pos{{1.0, 1.0, 1.0}};
  const std::vector<Vec3> vel{{0.1, -0.2, 0.0}};
  update_positions(lat, pos, vel);
  EXPECT_NEAR(pos[0].x, 1.0 + 0.1 * 0.5, 1e-15);
  EXPECT_NEAR(pos[0].y, 1.0 - 0.2 * 0.5, 1e-15);
  EXPECT_NEAR(pos[0].z, 1.0, 1e-15);
}

TEST(IbmKernelWeightSum, UnityInInteriorBelowOneAtEdge) {
  lbm::Lattice lat(8, 8, 8, Vec3{}, 1.0, 1.0);
  EXPECT_NEAR(kernel_weight_sum(lat, {4.0, 4.0, 4.0}), 1.0, 1e-12);
  EXPECT_NEAR(kernel_weight_sum(lat, {3.7, 4.2, 4.9}), 1.0, 1e-12);
  EXPECT_LT(kernel_weight_sum(lat, {0.0, 4.0, 4.0}), 1.0);
}

TEST(IbmRoundTrip, SpreadThenInterpolateRecoversStokeslet) {
  // Spread a force, run a few LBM steps, interpolate velocity at the
  // force location: must point along the force (a discrete Stokeslet).
  lbm::Lattice lat(16, 16, 16, Vec3{}, 1.0, 1.0);
  lbm::mark_box_walls(lat);
  lat.init_equilibrium(1.0, Vec3{});
  const std::vector<Vec3> pos{{8.0, 8.0, 8.0}};
  const std::vector<Vec3> force{{1e-3, 0.0, 0.0}};
  for (int s = 0; s < 20; ++s) {
    lat.clear_forces();
    spread_forces(lat, pos, force);
    lat.step();
  }
  std::vector<Vec3> vel;
  interpolate_velocities(lat, pos, vel);
  EXPECT_GT(vel[0].x, 0.0);
  EXPECT_NEAR(vel[0].y, 0.0, 1e-6);
  EXPECT_NEAR(vel[0].z, 0.0, 1e-6);
}

}  // namespace
}  // namespace apr::ibm
