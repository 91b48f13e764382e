#include "trees/lca.h"

#include <bit>
#include <utility>

namespace treeaa {

SparseLcaIndex::SparseLcaIndex(std::span<const VertexId> tour,
                               std::vector<std::uint32_t> depth)
    : depth_(std::move(depth)), first_(depth_.size()) {
  const std::size_t m = tour.size();
  for (std::size_t k = m; k-- > 0;) {
    first_[tour[k]] = static_cast<std::uint32_t>(k);
  }
  const auto shallower = [&](VertexId x, VertexId y) {
    return depth_[x] <= depth_[y] ? x : y;
  };

  std::size_t size = 0;
  for (std::size_t len = 2; len <= m; len *= 2) {
    level_begin_.push_back(size);
    size += m - len + 1;
  }
  table_.resize(size);
  for (std::size_t k = 0; k + 1 < m; ++k) {
    table_[k] = shallower(tour[k], tour[k + 1]);
  }
  for (std::size_t j = 2; j <= level_begin_.size(); ++j) {
    const std::size_t half = std::size_t{1} << (j - 1);
    const VertexId* below = table_.data() + level_begin_[j - 2];
    VertexId* level = table_.data() + level_begin_[j - 1];
    for (std::size_t k = 0; k + 2 * half <= m; ++k) {
      level[k] = shallower(below[k], below[k + half]);
    }
  }
}

VertexId SparseLcaIndex::lca(VertexId u, VertexId v) const {
  if (u == v) return u;
  std::size_t a = first_[u];
  std::size_t b = first_[v];
  if (a > b) std::swap(a, b);
  // b - a + 1 >= 2, so j = floor(log2(b - a + 1)) >= 1.
  const std::size_t j = static_cast<std::size_t>(std::bit_width(b - a + 1)) - 1;
  const VertexId* level = table_.data() + level_begin_[j - 1];
  const VertexId x = level[a];
  const VertexId y = level[b + 1 - (std::size_t{1} << j)];
  return depth_[x] <= depth_[y] ? x : y;
}

}  // namespace treeaa
