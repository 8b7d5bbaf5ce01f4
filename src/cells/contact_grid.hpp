#pragma once

/// \file contact_grid.hpp
/// Flat bucket grid for the per-sub-step cell-cell contact search, and the
/// short-range contact force that queries it. Same bucket geometry and
/// clamping as SubGrid, but stored in compressed-row (CSR) form and built
/// in one pass by a stable counting sort: the entries of bucket b are
/// entries[start[b], start[b+1]) in cell-list/vertex order, and the
/// buckets of one (z, y) row are adjacent, so a query scans each row of
/// its bucket range as one contiguous run and visits neighbours in exactly
/// the order the incremental SubGrid does. Buffers are reused across
/// rebuilds.

#include <cstdint>
#include <vector>

#include "src/cells/cell_pool.hpp"
#include "src/cells/subgrid.hpp"

namespace apr::cells {

class ContactGrid {
 public:
  struct Entry {
    Vec3 p;
    std::uint64_t cell_id;
  };

  /// Rebuild over every vertex of `cells`, in list then vertex order.
  /// `bounds` and `spacing` define the buckets as in SubGrid (throws
  /// std::invalid_argument on invalid bounds or spacing <= 0).
  void build(const Aabb& bounds, double spacing,
             const std::vector<CellRef>& cells);

  /// Visit all entries in buckets intersecting the ball (p, radius), in
  /// bucket (z, y, x) then insertion order. Fn: void(const Entry&).
  template <typename Fn>
  void for_neighbors(const Vec3& p, double radius, Fn&& fn) const {
    int lo[3];
    int hi[3];
    geom_.range(p, radius, lo, hi);
    for (int z = lo[2]; z <= hi[2]; ++z) {
      for (int y = lo[1]; y <= hi[1]; ++y) {
        const std::size_t row = geom_.index(0, y, z);
        const Entry* e = entries_.data() + start_[row + lo[0]];
        const Entry* const end = entries_.data() + start_[row + hi[0] + 1];
        for (; e != end; ++e) fn(*e);
      }
    }
  }

  std::size_t size() const { return entries_.size(); }

 private:
  // A default-constructed grid is one empty bucket, so queries before the
  // first build() are valid and find nothing.
  BucketGeometry geom_{Aabb({0, 0, 0}, {1, 1, 1}), 1.0};
  std::vector<std::size_t> start_ = {0, 0};  // geom_.count() + 1 offsets
  std::vector<Entry> entries_;
  std::vector<std::size_t> bucket_;  // build scratch: bucket per vertex
  std::vector<std::size_t> cursor_;  // build scratch: next slot per bucket
};

/// Short-range soft-sphere repulsion between vertices of *different* cells:
///   F = k (1 - d/cutoff)^2 * d_hat   for d < cutoff.
/// Accumulated into the force buffers of `cells`; `grid` must have been
/// built over the same cells' current positions with a bucket spacing
/// >= cutoff. Returns the number of interacting pairs (diagnostics).
std::size_t add_contact_forces(const std::vector<CellRef>& cells,
                               double cutoff, double strength,
                               const ContactGrid& grid);

}  // namespace apr::cells
