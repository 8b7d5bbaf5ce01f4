#include "src/cells/contact_grid.hpp"

#include <cmath>

#include "src/exec/exec.hpp"

namespace apr::cells {

void ContactGrid::build(const Aabb& bounds, double spacing,
                        const std::vector<CellRef>& cells) {
  geom_ = BucketGeometry(bounds, spacing);
  const std::size_t nb = geom_.count();
  start_.assign(nb + 1, 0);
  bucket_.clear();
  for (const CellRef& c : cells) {
    for (const Vec3& p : c.pool->positions(c.slot)) {
      int b[3];
      geom_.coords(p, b);
      const std::size_t k = geom_.index(b[0], b[1], b[2]);
      bucket_.push_back(k);
      ++start_[k + 1];
    }
  }
  for (std::size_t b = 0; b < nb; ++b) start_[b + 1] += start_[b];

  // Stable scatter: vertices land in their bucket in visiting order.
  cursor_.assign(start_.begin(), start_.end() - 1);
  entries_.resize(bucket_.size());
  std::size_t v = 0;
  for (const CellRef& c : cells) {
    const std::uint64_t id = c.pool->id(c.slot);
    for (const Vec3& p : c.pool->positions(c.slot)) {
      entries_[cursor_[bucket_[v++]]++] = {p, id};
    }
  }
}

std::size_t add_contact_forces(const std::vector<CellRef>& cells,
                               double cutoff, double strength,
                               const ContactGrid& grid) {
  const double c2 = cutoff * cutoff;
  // Each cell writes only its own force block and reads the shared grid,
  // so cells parallelize independently across the pools.
  return exec::parallel_reduce<std::size_t>(
      cells.size(), 0,
      [&](std::size_t b, std::size_t e) {
        std::size_t pairs = 0;
        for (std::size_t k = b; k < e; ++k) {
          const auto x = cells[k].pool->positions(cells[k].slot);
          const auto f = cells[k].pool->forces(cells[k].slot);
          const std::uint64_t id = cells[k].pool->id(cells[k].slot);
          for (std::size_t v = 0; v < x.size(); ++v) {
            Vec3 acc{};
            grid.for_neighbors(
                x[v], cutoff, [&](const ContactGrid::Entry& e2) {
                  if (e2.cell_id == id) return;
                  const Vec3 d = x[v] - e2.p;
                  const double d2 = norm2(d);
                  if (d2 >= c2 || d2 <= 0.0) return;
                  const double dist = std::sqrt(d2);
                  const double overlap = 1.0 - dist / cutoff;
                  acc += d * (strength * overlap * overlap / dist);
                  ++pairs;
                });
            f[v] += acc;
          }
        }
        return pairs;
      },
      [](std::size_t a, std::size_t b) { return a + b; });
}

}  // namespace apr::cells
