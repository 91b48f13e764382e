// TreeIndex — the query accelerator view over one LabeledTree.
//
// The tree owns its one index: LabeledTree builds the Euler list of
// ListConstruction and the sparse-table RMQ over it (trees/lca.h) once, at
// construction, so lca / distance / depth / ancestor / median are O(1) on
// the tree itself. TreeIndex is a view over that index — constructing one
// costs nothing — that adds the compound queries the protocols and
// check_agreement need:
//
//   * root-anchored paths: the paths PathsFinder and TreeAA produce are
//     always anchored at the root, so a path is the ancestor chain reversed
//     and the 1-based index of any vertex on it is depth + 1;
//   * hull membership and pairwise-distance maxima with O(1) distances.
//
// Every query agrees exactly with the naive walks of trees/paths.h and the
// parent-climbing reference of the tests (tests/perf pins this across all
// generator families).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "trees/euler.h"
#include "trees/labeled_tree.h"

namespace treeaa::perf {

class TreeIndex {
 public:
  /// A view over `tree`'s index; O(1). `tree` must outlive the view.
  explicit TreeIndex(const LabeledTree& tree) : tree_(&tree) {}

  [[nodiscard]] const LabeledTree& tree() const { return *tree_; }
  /// The Euler list of the tree.
  [[nodiscard]] const EulerList& euler() const { return tree_->euler(); }

  [[nodiscard]] VertexId root() const { return tree_->root(); }
  [[nodiscard]] std::size_t n() const { return tree_->n(); }

  /// Depth of v (root has depth 0). O(1).
  [[nodiscard]] std::uint32_t depth(VertexId v) const {
    return tree_->depth(v);
  }

  /// Lowest common ancestor. O(1).
  [[nodiscard]] VertexId lca(VertexId u, VertexId v) const {
    return tree_->lca(u, v);
  }

  /// d(u, v). O(1).
  [[nodiscard]] std::uint32_t distance(VertexId u, VertexId v) const {
    return tree_->distance(u, v);
  }

  /// True iff `a` is an ancestor of `d` (a vertex is its own ancestor). O(1).
  [[nodiscard]] bool is_ancestor(VertexId a, VertexId d) const {
    return tree_->is_ancestor(a, d);
  }

  /// The median m(a, b, c) — the unique vertex on all three pairwise paths.
  /// O(1).
  [[nodiscard]] VertexId median(VertexId a, VertexId b, VertexId c) const {
    return tree_->median(a, b, c);
  }

  /// proj_P(v) for the path with endpoints `front` and `back`: the vertex of
  /// P closest to v, which is the median m(front, back, v). O(1).
  [[nodiscard]] VertexId project_onto_path(VertexId front, VertexId back,
                                           VertexId v) const {
    return median(front, back, v);
  }

  /// The root-anchored path P(root, tip) as a vertex sequence, root first.
  /// One exact-size allocation, O(depth(tip)).
  [[nodiscard]] std::vector<VertexId> root_path(VertexId tip) const {
    return tree_->path(root(), tip);
  }

  /// 1-based index of `v` on any root-anchored path that contains it (the
  /// paper's v_1 .. v_k with v_1 = root): depth(v) + 1. O(1).
  [[nodiscard]] std::size_t index_on_root_path(VertexId v) const {
    return static_cast<std::size_t>(depth(v)) + 1;
  }

  /// Membership test w ∈ <S> using the anchor decomposition: the hull is
  /// the union of the paths from s.front() to every element, so w is in it
  /// iff it lies on one of those paths. O(|S|) with O(1) distances.
  [[nodiscard]] bool in_hull(std::span<const VertexId> s, VertexId w) const;

  /// max over pairs of d(u, v). O(|a|·|b|) with O(1) distances.
  [[nodiscard]] std::uint32_t max_pairwise_distance(
      std::span<const VertexId> a, std::span<const VertexId> b) const;

 private:
  const LabeledTree* tree_;
};

}  // namespace treeaa::perf
