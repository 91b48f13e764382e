// An independent reference for the tree's O(1) index: lca, distance, path
// and median by climbing parent pointers, O(depth) per query. It shares
// nothing with the Euler tour or the sparse table (it reads only
// LabeledTree::parent and root), so tests compare the index against it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "trees/labeled_tree.h"

namespace treeaa::reference {

/// Depth of v: parent steps to the root.
inline std::uint32_t depth(const LabeledTree& t, VertexId v) {
  std::uint32_t d = 0;
  for (; v != t.root(); v = t.parent(v)) ++d;
  return d;
}

/// Lowest common ancestor: lift the deeper vertex, then both in step.
inline VertexId lca(const LabeledTree& t, VertexId u, VertexId v) {
  std::uint32_t du = depth(t, u);
  std::uint32_t dv = depth(t, v);
  for (; du > dv; --du) u = t.parent(u);
  for (; dv > du; --dv) v = t.parent(v);
  while (u != v) {
    u = t.parent(u);
    v = t.parent(v);
  }
  return u;
}

inline std::uint32_t distance(const LabeledTree& t, VertexId u, VertexId v) {
  return depth(t, u) + depth(t, v) - 2 * depth(t, lca(t, u, v));
}

/// P(u, v) from u to v: climb from u to the LCA, then down to v.
inline std::vector<VertexId> path(const LabeledTree& t, VertexId u,
                                  VertexId v) {
  const VertexId w = lca(t, u, v);
  std::vector<VertexId> p;
  for (VertexId x = u; x != w; x = t.parent(x)) p.push_back(x);
  p.push_back(w);
  std::vector<VertexId> down;
  for (VertexId x = v; x != w; x = t.parent(x)) down.push_back(x);
  p.insert(p.end(), down.rbegin(), down.rend());
  return p;
}

/// m(a, b, c) by definition: the one vertex on all three pairwise paths.
inline VertexId median(const LabeledTree& t, VertexId a, VertexId b,
                       VertexId c) {
  const auto ab = path(t, a, b);
  const auto bc = path(t, b, c);
  const auto ac = path(t, a, c);
  for (const VertexId x : ab) {
    if (std::find(bc.begin(), bc.end(), x) != bc.end() &&
        std::find(ac.begin(), ac.end(), x) != ac.end()) {
      return x;
    }
  }
  return kNoVertex;
}

}  // namespace treeaa::reference
