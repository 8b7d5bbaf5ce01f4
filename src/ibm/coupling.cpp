#include "src/ibm/coupling.hpp"

#include <algorithm>

#include "src/exec/exec.hpp"
#include "src/obs/trace.hpp"

namespace apr::ibm {

namespace {

/// 1-D weights of lattice coordinate c, clipped to the node range [0, n).
void clipped_weights(DeltaKernel kernel, double c, int n, int& first,
                     int& count, std::array<double, 4>& w) {
  int f = 0;
  std::array<double, 4> raw{};
  const int m = delta_weights(kernel, c, &f, raw);
  const int k0 = std::max(0, -f);
  const int k1 = std::min(m, n - f);
  first = f + k0;
  count = std::max(0, k1 - k0);
  for (int k = 0; k < count; ++k) w[k] = raw[k0 + k];
}

bool receives_force(lbm::NodeType t) {
  return t != lbm::NodeType::Exterior && t != lbm::NodeType::Wall;
}

/// Per-worker spreading accumulator: a force-delta field over the whole
/// lattice plus the touched flat-index range. The field is kept zeroed
/// outside spread_forces (the merge re-zeroes exactly the range it reads),
/// so a slot warms up once per lattice size and then persists.
struct SpreadScratch {
  std::vector<Vec3> df;
  std::size_t lo = 0;
  std::size_t hi = 0;  // touched range is [lo, hi); empty when lo >= hi
};

/// Below this many vertices the per-worker accumulator merge costs more
/// than the scatter saves; scatter serially instead.
constexpr std::size_t kParallelSpreadMinVertices = 512;

/// Vertex-order scatter straight into the lattice: the same per-node
/// summation sequence as spread_forces_serial.
void spread_stencils_serial(lbm::Lattice& lat,
                            const std::vector<Stencil>& stencils,
                            const std::vector<Vec3>& forces) {
  for (std::size_t vi = 0; vi < stencils.size(); ++vi) {
    const Stencil& s = stencils[vi];
    const Vec3 g = forces[vi];
    for (int kz = 0; kz < s.nz; ++kz) {
      const int z = s.fz + kz;
      for (int ky = 0; ky < s.ny; ++ky) {
        const int y = s.fy + ky;
        const double wyz = s.wy[ky] * s.wz[kz];
        for (int kx = 0; kx < s.nx; ++kx) {
          const int x = s.fx + kx;
          if (!receives_force(lat.type(x, y, z))) continue;
          lat.add_force(x, y, z, g * (s.wx[kx] * wyz));
        }
      }
    }
  }
}

}  // namespace

Stencil make_stencil(const lbm::Lattice& lat, const Vec3& p,
                     DeltaKernel kernel) {
  const Vec3 lc = lat.to_lattice(p);
  Stencil s;
  clipped_weights(kernel, lc.x, lat.nx(), s.fx, s.nx, s.wx);
  clipped_weights(kernel, lc.y, lat.ny(), s.fy, s.ny, s.wy);
  clipped_weights(kernel, lc.z, lat.nz(), s.fz, s.nz, s.wz);
  return s;
}

void build_stencils(const lbm::Lattice& lat,
                    const std::vector<Vec3>& positions,
                    std::vector<Stencil>& stencils, DeltaKernel kernel) {
  OBS_SPAN("ibm", "build_stencils");
  stencils.resize(positions.size());
  exec::parallel_for(positions.size(), [&](std::size_t vi) {
    stencils[vi] = make_stencil(lat, positions[vi], kernel);
  });
}

void interpolate_velocities(const lbm::Lattice& lat,
                            const std::vector<Stencil>& stencils,
                            std::vector<Vec3>& velocities) {
  OBS_SPAN("ibm", "interpolate_velocities");
  velocities.resize(stencils.size());
  exec::parallel_for(stencils.size(), [&](std::size_t vi) {
    const Stencil& s = stencils[vi];
    Vec3 u{};
    for (int kz = 0; kz < s.nz; ++kz) {
      const int z = s.fz + kz;
      for (int ky = 0; ky < s.ny; ++ky) {
        const int y = s.fy + ky;
        const double wyz = s.wy[ky] * s.wz[kz];
        for (int kx = 0; kx < s.nx; ++kx) {
          u += lat.velocity(s.fx + kx, y, z) * (s.wx[kx] * wyz);
        }
      }
    }
    velocities[vi] = u;
  });
}

void interpolate_velocities(const lbm::Lattice& lat,
                            const std::vector<Vec3>& positions,
                            std::vector<Vec3>& velocities,
                            DeltaKernel kernel) {
  std::vector<Stencil> stencils;
  build_stencils(lat, positions, stencils, kernel);
  interpolate_velocities(lat, stencils, velocities);
}

void spread_forces_serial(lbm::Lattice& lat,
                          const std::vector<Vec3>& positions,
                          const std::vector<Vec3>& forces,
                          DeltaKernel kernel) {
  for (std::size_t vi = 0; vi < positions.size(); ++vi) {
    const Vec3 lc = lat.to_lattice(positions[vi]);
    int fx = 0, fy = 0, fz = 0;
    std::array<double, 4> wx{}, wy{}, wz{};
    const int nx = delta_weights(kernel, lc.x, &fx, wx);
    const int ny = delta_weights(kernel, lc.y, &fy, wy);
    const int nz = delta_weights(kernel, lc.z, &fz, wz);
    const Vec3 g = forces[vi];
    for (int kz = 0; kz < nz; ++kz) {
      const int z = fz + kz;
      if (z < 0 || z >= lat.nz()) continue;
      for (int ky = 0; ky < ny; ++ky) {
        const int y = fy + ky;
        if (y < 0 || y >= lat.ny()) continue;
        const double wyz = wy[ky] * wz[kz];
        for (int kx = 0; kx < nx; ++kx) {
          const int x = fx + kx;
          if (x < 0 || x >= lat.nx()) continue;
          const std::size_t i = lat.idx(x, y, z);
          if (!receives_force(lat.type(i))) continue;
          lat.add_force(i, g * (wx[kx] * wyz));
        }
      }
    }
  }
}

void spread_forces(lbm::Lattice& lat, const std::vector<Stencil>& stencils,
                   const std::vector<Vec3>& forces) {
  OBS_SPAN("ibm", "spread_forces");
  const std::size_t nv = stencils.size();
  if (!exec::threaded() || exec::num_workers() == 1 ||
      nv < kParallelSpreadMinVertices) {
    spread_stencils_serial(lat, stencils, forces);
    return;
  }

  // Scatter with per-worker force-delta fields, merged over nodes in a
  // deterministic order (ascending node, then ascending worker slot).
  // For a fixed worker count results are bit-for-bit reproducible; across
  // worker counts only the per-node summation order changes (rounding-
  // level differences vs the serial reference; see tests/test_ibm.cpp).
  const std::size_t n = lat.num_nodes();
  // The pool belongs to the calling thread; workers reach it through the
  // captured pointer (a thread_local named directly inside the lambda
  // would resolve to each worker's own, unrelated instance).
  static thread_local exec::WorkerLocal<SpreadScratch> scratch_tls;
  scratch_tls.prepare();
  exec::WorkerLocal<SpreadScratch>* const pool = &scratch_tls;

  exec::parallel_for_chunks(nv, [&, pool](std::size_t b, std::size_t e,
                                          int w) {
    SpreadScratch& s = (*pool)[static_cast<std::size_t>(w)];
    if (s.df.size() != n) {
      s.df.assign(n, Vec3{});
      s.lo = n;
      s.hi = 0;
    }
    std::size_t lo = s.lo >= s.hi ? n : s.lo;
    std::size_t hi = s.lo >= s.hi ? 0 : s.hi;
    for (std::size_t vi = b; vi < e; ++vi) {
      const Stencil& st = stencils[vi];
      const Vec3 g = forces[vi];
      for (int kz = 0; kz < st.nz; ++kz) {
        const int z = st.fz + kz;
        for (int ky = 0; ky < st.ny; ++ky) {
          const int y = st.fy + ky;
          const double wyz = st.wy[ky] * st.wz[kz];
          for (int kx = 0; kx < st.nx; ++kx) {
            const int x = st.fx + kx;
            if (!receives_force(lat.type(x, y, z))) continue;
            const std::size_t i = lat.idx(x, y, z);
            s.df[i] += g * (st.wx[kx] * wyz);
            lo = std::min(lo, i);
            hi = std::max(hi, i + 1);
          }
        }
      }
    }
    s.lo = lo;
    s.hi = hi;
  });

  std::size_t lo = n;
  std::size_t hi = 0;
  for (std::size_t w = 0; w < pool->size(); ++w) {
    const SpreadScratch& s = (*pool)[w];
    if (s.df.size() != n || s.lo >= s.hi) continue;
    lo = std::min(lo, s.lo);
    hi = std::max(hi, s.hi);
  }
  if (lo < hi) {
    // Merge row by row so each node is addressed by coordinates.
    const std::size_t nx = static_cast<std::size_t>(lat.nx());
    const std::size_t ny = static_cast<std::size_t>(lat.ny());
    const std::size_t row_lo = lo / nx;
    const std::size_t row_hi = (hi - 1) / nx + 1;
    exec::parallel_for(row_hi - row_lo, [&, pool](std::size_t r) {
      const std::size_t row = row_lo + r;
      const int y = static_cast<int>(row % ny);
      const int z = static_cast<int>(row / ny);
      const std::size_t base = row * nx;
      const std::size_t end = std::min(hi, base + nx);
      for (std::size_t i = std::max(lo, base); i < end; ++i) {
        Vec3 sum{};
        for (std::size_t w = 0; w < pool->size(); ++w) {
          SpreadScratch& s = (*pool)[w];
          if (s.df.size() != n || i < s.lo || i >= s.hi) continue;
          sum += s.df[i];
          s.df[i] = Vec3{};
        }
        if (sum.x != 0.0 || sum.y != 0.0 || sum.z != 0.0) {
          lat.add_force(static_cast<int>(i - base), y, z, sum);
        }
      }
    });
  }
  for (std::size_t w = 0; w < pool->size(); ++w) {
    (*pool)[w].lo = n;
    (*pool)[w].hi = 0;
  }
}

void spread_forces(lbm::Lattice& lat, const std::vector<Vec3>& positions,
                   const std::vector<Vec3>& forces, DeltaKernel kernel) {
  std::vector<Stencil> stencils;
  build_stencils(lat, positions, stencils, kernel);
  spread_forces(lat, stencils, forces);
}

void update_positions(const lbm::Lattice& lat, std::vector<Vec3>& positions,
                      const std::vector<Vec3>& lattice_velocities) {
  const double dx = lat.dx();
  exec::parallel_for(positions.size(), [&](std::size_t vi) {
    positions[vi] += lattice_velocities[vi] * dx;
  });
}

double kernel_weight_sum(const lbm::Lattice& lat, const Vec3& position,
                         DeltaKernel kernel) {
  const Stencil s = make_stencil(lat, position, kernel);
  double sum = 0.0;
  for (int kz = 0; kz < s.nz; ++kz) {
    for (int ky = 0; ky < s.ny; ++ky) {
      for (int kx = 0; kx < s.nx; ++kx) {
        sum += s.wx[kx] * s.wy[ky] * s.wz[kz];
      }
    }
  }
  return sum;
}

}  // namespace apr::ibm
