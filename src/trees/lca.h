// Sparse-table RMQ LCA over the Euler tour (Bender & Farach-Colton, the
// technique the paper cites as [8] and that ListConstruction is based on).
//
// This is the one LCA index of a tree. Lemma 2 property 4 is exactly the
// RMQ-over-Euler-tour correspondence: the LCA of u and v is the shallowest
// vertex of the tour between their first occurrences. LabeledTree builds
// the index once, at construction, over its own Euler list and answers
// lca / distance / median / is_ancestor through it in O(1) after
// O(n log n) preprocessing; perf::TreeIndex is a view over the same index.
// The test suite checks it against an independent parent-climbing
// reference (tests/support/tree_reference.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"

namespace treeaa {

class SparseLcaIndex {
 public:
  SparseLcaIndex() = default;

  /// Builds the index over the 0-based Euler tour `tour` of a tree whose
  /// vertex depths are `depth`.
  SparseLcaIndex(std::span<const VertexId> tour,
                 std::vector<std::uint32_t> depth);

  /// Lowest common ancestor of u and v, O(1). Requires u, v < n.
  [[nodiscard]] VertexId lca(VertexId u, VertexId v) const;

  /// d(u, v), O(1). Requires u, v < n.
  [[nodiscard]] std::uint32_t distance(VertexId u, VertexId v) const {
    return depth_[u] + depth_[v] - 2 * depth_[lca(u, v)];
  }

  /// Depth of v in the rooted view (root has depth 0), O(1).
  [[nodiscard]] std::uint32_t depth(VertexId v) const { return depth_[v]; }

 private:
  std::vector<std::uint32_t> depth_;  // per vertex
  std::vector<std::uint32_t> first_;  // first tour position of each vertex
  /// Level j >= 1 is table_[level_begin_[j - 1] + k] = the shallowest
  /// vertex of tour positions [k, k + 2^j). Level 0 would be the tour
  /// itself; no query needs it, since u == v is answered directly.
  std::vector<VertexId> table_;
  std::vector<std::size_t> level_begin_;
};

}  // namespace treeaa
