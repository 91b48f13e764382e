#include "trees/euler.h"

#include "common/check.h"
#include "trees/labeled_tree.h"

namespace treeaa {

EulerList::EulerList(const LabeledTree& tree) {
  const std::size_t n = tree.n();
  list_.reserve(2 * n - 1);
  occ_.resize(2 * n - 1);
  // v occurs once on entry and once after each child returns.
  occ_begin_.resize(n + 1);
  occ_begin_[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    occ_begin_[v + 1] = occ_begin_[v] +
                        static_cast<std::uint32_t>(tree.children(v).size()) +
                        1;
  }
  std::vector<std::uint32_t> next_occ(occ_begin_.begin(),
                                     occ_begin_.end() - 1);
  const auto record = [&](VertexId v) {
    list_.push_back(v);
    occ_[next_occ[v]++] = static_cast<std::uint32_t>(list_.size());
  };

  // Iterative DFS; `next_child[v]` is the index of the next unvisited child.
  std::vector<std::uint32_t> next_child(n, 0);
  std::vector<VertexId> stack{tree.root()};
  record(tree.root());
  while (!stack.empty()) {
    const VertexId v = stack.back();
    const auto kids = tree.children(v);
    if (next_child[v] < kids.size()) {
      const VertexId c = kids[next_child[v]++];
      stack.push_back(c);
      record(c);
    } else {
      stack.pop_back();
      if (!stack.empty()) record(stack.back());
    }
  }

  TREEAA_CHECK(list_.size() == 2 * n - 1);
}

VertexId EulerList::at(std::size_t i) const {
  TREEAA_REQUIRE_MSG(i >= 1 && i <= list_.size(),
                     "list index " << i << " out of [1, " << list_.size()
                                   << "]");
  return list_[i - 1];
}

std::span<const std::uint32_t> EulerList::occurrences(VertexId v) const {
  TREEAA_REQUIRE(v < occ_begin_.size() - 1);
  return std::span<const std::uint32_t>(occ_).subspan(
      occ_begin_[v], occ_begin_[v + 1] - occ_begin_[v]);
}

}  // namespace treeaa
