// BlockIndex — the precomputed query accelerator for one block graph.
//
// The agreement tree A(G) (blocks.h) turns block-graph metric queries into
// tree queries, and perf::TreeIndex answers those in O(1). On top of the
// shared TreeIndex over A(G) this class adds the one extra potential a
// block graph needs: the number of synthetic block nodes on each root
// path. A geodesic of G decomposes into per-block segments stitched at cut
// vertices, and the A(G) path between two vertices visits exactly those
// blocks, each block of size >= 3 contributing two tree edges where G
// crosses it in one hop (clique) or a closed-form arc (cycle). Hence on a
// block graph (every block an edge or clique, arXiv:2502.05591):
//
//   d_G(u, v) = d_A(u', v') - #(block nodes on the A-path)            O(1)
//
// with the block-node count read off three root potentials, exactly like a
// distance from depths. On a cactus, cycle blocks replace the "-1" by a
// min-arc term and distance walks the A-path instead (O(path)).
//
// The median of three vertices is exact for both families: the A-median
// lands on a vertex node (then that vertex is the unique minimizer of the
// distance sum) or on a block node (then every minimizer lies inside that
// block, which is enumerated). Convex-hull queries — membership, hull
// materialization, geodesics, projections — are geodetic-family queries
// and therefore require every block to be a clique; on clique-block graphs
// hull(S) is exactly the set of vertex nodes of the Steiner tree of S in
// A(G), so membership is TreeIndex::in_hull verbatim.
//
// Every query is validated against naive BFS oracles across all generator
// families in tests/graphs/block_index_test.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "graphs/blocks.h"
#include "graphs/graph.h"
#include "perf/tree_index.h"

namespace treeaa::graphs {

class BlockIndex {
 public:
  /// Builds the decomposition, the agreement tree (which indexes itself),
  /// and the block-node potentials. Requires every block to be an edge,
  /// clique, or cycle (the generator families); throws otherwise.
  explicit BlockIndex(const Graph& g);

  BlockIndex(const BlockIndex&) = delete;
  BlockIndex& operator=(const BlockIndex&) = delete;

  [[nodiscard]] const Graph& graph() const { return graph_; }
  [[nodiscard]] const BlockDecomposition& decomposition() const {
    return decomposition_;
  }
  [[nodiscard]] const AgreementTree& agreement() const { return agreement_; }
  [[nodiscard]] const LabeledTree& agreement_tree() const {
    return agreement_.tree;
  }

  [[nodiscard]] std::size_t n() const { return graph_.n(); }
  /// Every block is an edge or clique: the arXiv:2502.05591 block-graph
  /// family, where distance is O(1) and hull queries apply.
  [[nodiscard]] bool all_cliques() const {
    return decomposition_.all_cliques();
  }

  /// A node id of a G vertex. O(1).
  [[nodiscard]] VertexId to_agreement(VertexId v) const {
    graph_.require_vertex(v);
    return agreement_.vertex_to_node[v];
  }

  /// True iff A node `a` stands for a G vertex (not a synthetic block).
  [[nodiscard]] bool is_vertex_node(VertexId a) const {
    return agreement_.is_vertex_node(a);
  }

  /// G vertex of a vertex node. Requires is_vertex_node(a).
  [[nodiscard]] VertexId to_vertex(VertexId a) const;

  /// Resolves an A node to a G vertex *from the perspective of* `toward`:
  /// a vertex node maps to its vertex; a block node maps to the gate of
  /// its block on the geodesic toward `toward` (which is `toward` itself
  /// when it lies in the block). This per-party gate mapping is how BlockAA
  /// turns the inner TreeAA's A-node outputs back into G vertices without
  /// breaking Validity: gates are cut vertices, so they lie on every
  /// geodesic entering the block.
  [[nodiscard]] VertexId resolve(VertexId a, VertexId toward) const;

  /// d_G(u, v). O(1) on clique-block graphs, O(A-path) with cycle blocks.
  [[nodiscard]] std::uint32_t distance(VertexId u, VertexId v) const;

  /// A vertex minimizing d(·,a) + d(·,b) + d(·,c); ties broken by smallest
  /// id. Exact for clique and cycle blocks (see header comment).
  [[nodiscard]] VertexId median(VertexId a, VertexId b, VertexId c) const;

  /// The unique geodesic from u to v as a vertex sequence (clique-block
  /// graphs are geodetic). Requires all_cliques().
  [[nodiscard]] std::vector<VertexId> geodesic(VertexId u, VertexId v) const;

  /// The vertex of geodesic(a, b) closest to c, smallest id on ties.
  /// Requires all_cliques().
  [[nodiscard]] VertexId project_onto_geodesic(VertexId a, VertexId b,
                                               VertexId c) const;

  /// Membership test w ∈ <S> via TreeIndex::in_hull on A(G). Requires
  /// all_cliques() and S non-empty.
  [[nodiscard]] bool in_hull(std::span<const VertexId> s, VertexId w) const;

  /// The convex hull <S> as a sorted vertex list: the vertex nodes of the
  /// Steiner tree of S in A(G). Requires all_cliques() and S non-empty.
  [[nodiscard]] std::vector<VertexId> hull(std::span<const VertexId> s) const;

  /// max over pairs of d_G(u, v).
  [[nodiscard]] std::uint32_t max_pairwise_distance(
      std::span<const VertexId> a, std::span<const VertexId> b) const;

  /// Graph diameter and one pair of endpoints attaining it (smallest pair
  /// on ties). Precomputed at construction.
  [[nodiscard]] std::uint32_t diameter() const { return diameter_; }
  [[nodiscard]] std::pair<VertexId, VertexId> diameter_endpoints() const {
    return diameter_ends_;
  }

 private:
  [[nodiscard]] std::uint32_t block_crossing(std::size_t block, VertexId x,
                                             VertexId y) const;

  Graph graph_;
  BlockDecomposition decomposition_;
  AgreementTree agreement_;
  perf::TreeIndex index_;
  /// Per A node: synthetic block nodes on the root path, node inclusive.
  std::vector<std::uint32_t> block_potential_;
  /// Per block: vertex -> position on the cycle walk (empty unless kCycle),
  /// parallel to Block::vertices.
  std::vector<std::vector<std::uint32_t>> cycle_pos_;
  std::uint32_t diameter_ = 0;
  std::pair<VertexId, VertexId> diameter_ends_{0, 0};
};

}  // namespace treeaa::graphs
