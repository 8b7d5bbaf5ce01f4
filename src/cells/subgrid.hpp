#pragma once

/// \file subgrid.hpp
/// Background uniform subgrid (paper §2.4.2): a spatial hash over cell
/// vertices that answers "which cells have vertices near this point" in
/// O(1). Used by the overlap-removal algorithm during tile insertion, which
/// interleaves inserts and queries. The per-sub-step contact search uses
/// the flat ContactGrid (contact_grid.hpp) over the same bucket geometry.

#include <cstdint>
#include <vector>

#include "src/common/aabb.hpp"
#include "src/common/vec3.hpp"

namespace apr::cells {

/// Uniform bucket lattice over a box: ceil(extent / spacing) buckets per
/// axis (at least one), numbered x-fastest. Points outside the box clamp
/// to the edge buckets, so slightly-out-of-range points are safe.
class BucketGeometry {
 public:
  BucketGeometry(const Aabb& bounds, double spacing);

  double spacing() const { return spacing_; }
  std::size_t count() const {
    return static_cast<std::size_t>(nx_) * ny_ * nz_;
  }
  std::size_t index(int x, int y, int z) const {
    return (static_cast<std::size_t>(z) * ny_ + y) * nx_ + x;
  }

  /// Bucket coordinates of p (clamped to the lattice).
  void coords(const Vec3& p, int* out) const;
  /// Inclusive bucket ranges [lo, hi] per axis covering the ball (p, r).
  void range(const Vec3& p, double radius, int* lo, int* hi) const;

 private:
  Aabb bounds_;
  double spacing_;
  int nx_, ny_, nz_;

  static int clampi(int v, int hi) {
    return v < 0 ? 0 : (v >= hi ? hi - 1 : v);
  }
};

class SubGrid {
 public:
  struct Entry {
    Vec3 p;
    std::uint64_t cell_id;
    int vertex;
  };

  /// \param bounds region covered (points outside are clamped to edge
  ///        buckets, so slightly-out-of-range inserts are safe)
  /// \param spacing bucket edge length; choose >= the query radius
  SubGrid(const Aabb& bounds, double spacing);

  void clear();

  void insert(const Vec3& p, std::uint64_t cell_id, int vertex = -1);

  /// Visit all entries in buckets intersecting the ball (p, radius).
  /// Fn: void(const Entry&).
  template <typename Fn>
  void for_neighbors(const Vec3& p, double radius, Fn&& fn) const {
    int lo[3];
    int hi[3];
    geom_.range(p, radius, lo, hi);
    for (int z = lo[2]; z <= hi[2]; ++z) {
      for (int y = lo[1]; y <= hi[1]; ++y) {
        for (int x = lo[0]; x <= hi[0]; ++x) {
          for (const Entry& e : buckets_[geom_.index(x, y, z)]) {
            fn(e);
          }
        }
      }
    }
  }

  std::size_t size() const { return count_; }
  double spacing() const { return geom_.spacing(); }

 private:
  BucketGeometry geom_;
  std::vector<std::vector<Entry>> buckets_;
  std::size_t count_ = 0;
};

}  // namespace apr::cells
