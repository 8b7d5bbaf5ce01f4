#pragma once

/// \file coupling.hpp
/// The three immersed-boundary phases of paper §2.3 (Eqs. 4-6):
/// interpolation of Eulerian velocity to membrane vertices, explicit
/// vertex update, and spreading of membrane forces back to the lattice.
/// All operations work in the fine lattice's coordinates; vertex positions
/// and forces are physical, conversions happen internally.
///
/// The simulations build one Stencil per vertex in the spread phase
/// and reuse it for interpolation in the same sub-step (positions do not
/// move in between), so the kernel weights are evaluated once per vertex
/// per sub-step; see DESIGN.md §16.

#include <array>
#include <vector>

#include "src/common/vec3.hpp"
#include "src/ibm/delta.hpp"
#include "src/lbm/lattice.hpp"

namespace apr::ibm {

/// Kernel support of one vertex, clipped to the lattice: per axis the
/// first support node inside the lattice, the number of support nodes
/// inside, and their 1-D weights. A node's 3-D weight is
/// wx[kx] * (wy[ky] * wz[kz]). Derived from the vertex position and the
/// lattice origin, so it is stale once either moves.
struct Stencil {
  int fx = 0, fy = 0, fz = 0;
  int nx = 0, ny = 0, nz = 0;
  std::array<double, 4> wx{}, wy{}, wz{};
};

/// Stencil of the physical position p on `lat`.
Stencil make_stencil(const lbm::Lattice& lat, const Vec3& p,
                     DeltaKernel kernel = DeltaKernel::Cosine4);

/// Stencils of every position, built in parallel.
void build_stencils(const lbm::Lattice& lat,
                    const std::vector<Vec3>& positions,
                    std::vector<Stencil>& stencils,
                    DeltaKernel kernel = DeltaKernel::Cosine4);

/// Interpolate the lattice's cached velocity field over each stencil
/// (Eq. 4). Velocities are returned in *lattice* units (grid spacings per
/// time step); multiply by dx/dt for physical.
void interpolate_velocities(const lbm::Lattice& lat,
                            const std::vector<Stencil>& stencils,
                            std::vector<Vec3>& velocities);

/// Position-taking form: builds the stencils, then interpolates.
void interpolate_velocities(const lbm::Lattice& lat,
                            const std::vector<Vec3>& positions,
                            std::vector<Vec3>& velocities,
                            DeltaKernel kernel = DeltaKernel::Cosine4);

/// Spread per-vertex forces (given in lattice force units) over their
/// stencils onto the lattice's force field (Eq. 6), skipping Wall and
/// Exterior nodes. Large vertex sets scatter in parallel through
/// per-worker accumulator fields merged in a deterministic order; small
/// ones (or one worker) scatter serially in vertex order, exactly like
/// spread_forces_serial. For a fixed worker count the result is
/// bit-for-bit reproducible; across worker counts it matches the serial
/// reference to rounding (<= 1e-14 relative).
void spread_forces(lbm::Lattice& lat, const std::vector<Stencil>& stencils,
                   const std::vector<Vec3>& forces);

/// Position-taking form: builds the stencils, then spreads.
void spread_forces(lbm::Lattice& lat, const std::vector<Vec3>& positions,
                   const std::vector<Vec3>& forces,
                   DeltaKernel kernel = DeltaKernel::Cosine4);

/// Single-threaded reference scatter (exact vertex-order summation,
/// flat-index addressing); the determinism tests compare spread_forces
/// against this.
void spread_forces_serial(lbm::Lattice& lat,
                          const std::vector<Vec3>& positions,
                          const std::vector<Vec3>& forces,
                          DeltaKernel kernel = DeltaKernel::Cosine4);

/// Explicit no-slip vertex update (Eq. 5): X += V * dt with V in lattice
/// units and dt one fine time step, i.e. a physical displacement of
/// V * dx per step.
void update_positions(const lbm::Lattice& lat, std::vector<Vec3>& positions,
                      const std::vector<Vec3>& lattice_velocities);

/// Sum of the 3D kernel weights at a position (diagnostic; should be 1 in
/// the interior, < 1 if the support leaves the lattice).
double kernel_weight_sum(const lbm::Lattice& lat, const Vec3& position,
                         DeltaKernel kernel = DeltaKernel::Cosine4);

}  // namespace apr::ibm
