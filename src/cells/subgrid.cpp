#include "src/cells/subgrid.hpp"

#include <cmath>
#include <stdexcept>

namespace apr::cells {

BucketGeometry::BucketGeometry(const Aabb& bounds, double spacing)
    : bounds_(bounds), spacing_(spacing) {
  if (!bounds.valid()) {
    throw std::invalid_argument("bucket grid: invalid bounds");
  }
  if (spacing <= 0.0) throw std::invalid_argument("bucket grid: spacing <= 0");
  const Vec3 e = bounds.extent();
  nx_ = std::max(1, static_cast<int>(std::ceil(e.x / spacing)));
  ny_ = std::max(1, static_cast<int>(std::ceil(e.y / spacing)));
  nz_ = std::max(1, static_cast<int>(std::ceil(e.z / spacing)));
}

void BucketGeometry::coords(const Vec3& p, int* out) const {
  const Vec3 r = (p - bounds_.lo) / spacing_;
  // Casting a non-finite coordinate to int is UB; a vertex poisoned by an
  // upstream numerical fault parks in the first bucket instead, where the
  // health watchdog can still find the cell.
  out[0] = clampi(std::isfinite(r.x) ? static_cast<int>(std::floor(r.x)) : 0,
                  nx_);
  out[1] = clampi(std::isfinite(r.y) ? static_cast<int>(std::floor(r.y)) : 0,
                  ny_);
  out[2] = clampi(std::isfinite(r.z) ? static_cast<int>(std::floor(r.z)) : 0,
                  nz_);
}

void BucketGeometry::range(const Vec3& p, double radius, int* lo,
                           int* hi) const {
  const Vec3 pl = p - Vec3{radius, radius, radius};
  const Vec3 ph = p + Vec3{radius, radius, radius};
  coords(pl, lo);
  coords(ph, hi);
}

SubGrid::SubGrid(const Aabb& bounds, double spacing)
    : geom_(bounds, spacing), buckets_(geom_.count()) {}

void SubGrid::clear() {
  for (auto& b : buckets_) b.clear();
  count_ = 0;
}

void SubGrid::insert(const Vec3& p, std::uint64_t cell_id, int vertex) {
  int c[3];
  geom_.coords(p, c);
  buckets_[geom_.index(c[0], c[1], c[2])].push_back({p, cell_id, vertex});
  ++count_;
}

}  // namespace apr::cells
