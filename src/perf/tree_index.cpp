#include "perf/tree_index.h"

#include <algorithm>

#include "common/check.h"

namespace treeaa::perf {

bool TreeIndex::in_hull(std::span<const VertexId> s, VertexId w) const {
  TREEAA_REQUIRE_MSG(!s.empty(), "hull membership against an empty set");
  // <S> is the union of the paths from one fixed element to every other
  // (trees/paths.h), so membership reduces to |S| collinearity tests.
  const VertexId anchor = s.front();
  const std::uint32_t dw = distance(anchor, w);
  for (const VertexId v : s) {
    if (dw + distance(w, v) == distance(anchor, v)) return true;
  }
  return false;
}

std::uint32_t TreeIndex::max_pairwise_distance(
    std::span<const VertexId> a, std::span<const VertexId> b) const {
  std::uint32_t best = 0;
  for (const VertexId u : a) {
    for (const VertexId v : b) {
      best = std::max(best, distance(u, v));
    }
  }
  return best;
}

}  // namespace treeaa::perf
