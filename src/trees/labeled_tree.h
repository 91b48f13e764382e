// LabeledTree — the input space of Approximate Agreement on trees.
//
// The paper (§2) considers a labeled tree T that is publicly known to all
// parties; each party holds one vertex of T as its input. Labels are strings
// and are significant: the protocol roots T at the vertex with the
// lexicographically smallest label (§7, line 1), and the DFS of
// ListConstruction must visit children in a deterministic order so that all
// honest parties compute the identical Euler list. This class therefore
// canonicalizes the tree at construction:
//
//   * vertices are assigned ids 0..n-1 in lexicographic label order
//     (so the root, the smallest label, is always vertex 0);
//   * adjacency lists are sorted ascending by id (= ascending by label);
//   * the rooted view (parent / depth / children), the Euler list of
//     ListConstruction (trees/euler.h) and the sparse-table RMQ over it
//     (trees/lca.h) are built once, here. That is the tree's one index:
//     lca / distance / median / is_ancestor are O(1), path() is O(length),
//     and perf::TreeIndex, the protocols and check_agreement all query it
//     instead of building their own.
//
// Adjacency and children are stored flat (offsets into one array), and
// labels are interned through one hash of string views and sorted once.
//
// The class is immutable after construction, which is exactly the setting of
// the paper: the input space is fixed and common knowledge.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "trees/euler.h"
#include "trees/lca.h"

namespace treeaa {

class LabeledTree {
 public:
  /// Builds a tree from an undirected edge list over string labels. Isolated
  /// vertices cannot be expressed by edges; use `single` for the one-vertex
  /// tree. Throws std::invalid_argument if the edges do not form a tree
  /// (duplicate edge, self-loop, cycle, or disconnected input).
  static LabeledTree from_edges(
      const std::vector<std::pair<std::string, std::string>>& edges);

  using EdgeView = std::pair<std::string_view, std::string_view>;

  /// The builder behind from_edges and tree_from_text: the same tree from
  /// labels that are views (copied into the tree). Every label of
  /// `mentioned` must also occur in some edge — the text format's redundant
  /// `vertex` lines; the first that does not throws before any check on
  /// the edges. The checks then run in from_edges' order: self-loop, vertex
  /// count, duplicate edge, connectivity.
  static LabeledTree from_edge_views(
      std::span<const EdgeView> edges,
      std::span<const std::string_view> mentioned = {});

  /// The one-vertex tree.
  static LabeledTree single(std::string label);

  /// Number of vertices |V(T)|. Always >= 1.
  [[nodiscard]] std::size_t n() const { return labels_.size(); }

  /// Label of a vertex.
  [[nodiscard]] const std::string& label(VertexId v) const;

  /// Vertex with the given label, if present. O(log n) over the sorted
  /// labels.
  [[nodiscard]] std::optional<VertexId> find(std::string_view label) const;

  /// Neighbors of v, sorted ascending by id (= by label).
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const;

  [[nodiscard]] std::size_t degree(VertexId v) const {
    return neighbors(v).size();
  }

  // --- Rooted view. The root is the lexicographically smallest label, which
  // --- by the id canonicalization is always vertex 0.

  [[nodiscard]] VertexId root() const { return 0; }

  /// Parent of v in the rooted view; kNoVertex for the root.
  [[nodiscard]] VertexId parent(VertexId v) const;

  /// Depth of v (root has depth 0).
  [[nodiscard]] std::uint32_t depth(VertexId v) const;

  /// Children of v in the rooted view, sorted ascending by id.
  [[nodiscard]] std::span<const VertexId> children(VertexId v) const;

  /// True iff `a` is an ancestor of `d` (a vertex is its own ancestor).
  /// O(1).
  [[nodiscard]] bool is_ancestor(VertexId a, VertexId d) const;

  /// Lowest common ancestor in the rooted view, O(1).
  [[nodiscard]] VertexId lca(VertexId u, VertexId v) const;

  /// Length of the unique path P(u, v) — the paper's d(u, v). O(1).
  [[nodiscard]] std::uint32_t distance(VertexId u, VertexId v) const;

  /// The unique path P(u, v) as a vertex sequence starting at u and ending
  /// at v (inclusive). For u == v this is the single-vertex path. One
  /// exact-size allocation, O(d(u, v)).
  [[nodiscard]] std::vector<VertexId> path(VertexId u, VertexId v) const;

  /// The median vertex m(a, b, c): the unique vertex lying on all three
  /// pairwise paths. For a path P(a, b), m(a, b, c) is the projection of c
  /// onto that path (used by §5). O(1).
  [[nodiscard]] VertexId median(VertexId a, VertexId b, VertexId c) const;

  /// Tree diameter D(T): length of the longest path. 0 for a single vertex.
  [[nodiscard]] std::uint32_t diameter() const { return diameter_; }

  /// Endpoints of one longest path (ties broken deterministically).
  [[nodiscard]] std::pair<VertexId, VertexId> diameter_endpoints() const {
    return diameter_ends_;
  }

  /// The Euler list of ListConstruction(T, root) (paper §6, Lemma 2).
  [[nodiscard]] const EulerList& euler() const { return euler_; }

  /// Validates v < n(), throwing std::invalid_argument otherwise.
  void require_vertex(VertexId v) const;

 private:
  LabeledTree() = default;

  /// Builds the rooted view, the diameter, the Euler list and the LCA
  /// index from labels_ and the adjacency. Throws if the graph is not
  /// connected.
  void index();

  std::vector<std::string> labels_;  // id -> label, sorted
  // Neighbours of v: adj_[adj_begin_[v] .. adj_begin_[v + 1]), ascending.
  std::vector<std::uint32_t> adj_begin_;
  std::vector<VertexId> adj_;
  std::vector<VertexId> parent_;
  // Vertices in BFS order from the root. The children of v, ascending, are
  // the degree(v) - [v != root] entries from bfs_order_[child_begin_[v]].
  std::vector<VertexId> bfs_order_;
  std::vector<std::uint32_t> child_begin_;
  EulerList euler_;
  SparseLcaIndex lca_;  // owns the depths
  std::uint32_t diameter_ = 0;
  std::pair<VertexId, VertexId> diameter_ends_{0, 0};
};

}  // namespace treeaa
