#include "src/cells/overlap.hpp"

#include <algorithm>

namespace apr::cells {

bool overlaps_existing(std::span<const Vec3> vertices, std::uint64_t self_id,
                       const SubGrid& grid, double min_distance) {
  const double d2 = min_distance * min_distance;
  for (const Vec3& v : vertices) {
    bool hit = false;
    grid.for_neighbors(v, min_distance, [&](const SubGrid::Entry& e) {
      if (hit || e.cell_id == self_id) return;
      if (norm2(e.p - v) < d2) hit = true;
    });
    if (hit) return true;
  }
  return false;
}

std::vector<std::uint64_t> resolve_overlaps(
    const std::vector<Candidate>& candidates, const SubGrid& existing,
    const Aabb& region, double min_distance) {
  // Sort candidate indices by global ID so acceptance order -- and hence
  // the removal set -- is independent of input order and task count.
  std::vector<std::size_t> order(candidates.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return candidates[a].id < candidates[b].id;
  });

  SubGrid accepted(region, std::max(min_distance, existing.spacing()));
  std::vector<std::uint64_t> dropped;
  for (std::size_t i : order) {
    const Candidate& c = candidates[i];
    const bool bad =
        overlaps_existing(c.vertices, c.id, existing, min_distance) ||
        overlaps_existing(c.vertices, c.id, accepted, min_distance);
    if (bad) {
      dropped.push_back(c.id);
    } else {
      for (std::size_t v = 0; v < c.vertices.size(); ++v) {
        accepted.insert(c.vertices[v], c.id, static_cast<int>(v));
      }
    }
  }
  std::sort(dropped.begin(), dropped.end());
  return dropped;
}

void fill_subgrid(SubGrid& grid,
                  const std::vector<const CellPool*>& pools) {
  grid.clear();
  for (const CellPool* pool : pools) {
    for (std::size_t s = 0; s < pool->size(); ++s) {
      const auto x = pool->positions(s);
      const std::uint64_t id = pool->id(s);
      for (std::size_t v = 0; v < x.size(); ++v) {
        grid.insert(x[v], id, static_cast<int>(v));
      }
    }
  }
}

}  // namespace apr::cells
