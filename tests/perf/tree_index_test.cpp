// Property tests pinning perf::TreeIndex — a view over the tree's own O(1)
// index — against the independent parent-climbing reference
// (tests/support/tree_reference.h) and the naive walks of trees/paths.h.
// TreeIndex is consulted on the protocols' hot paths (projection, path
// indexing) and by check_agreement, so every query must agree exactly —
// across every generator family plus the chainy trees, exhaustively on
// small trees and on random samples on larger ones.
#include "perf/tree_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/tree_reference.h"
#include "trees/generators.h"
#include "trees/paths.h"

namespace treeaa {
namespace {

struct Sample {
  std::string name;
  LabeledTree tree;
};

std::vector<Sample> sample_trees() {
  std::vector<Sample> samples;
  samples.push_back({"path_1", make_path(1)});
  samples.push_back({"path_2", make_path(2)});
  samples.push_back({"figure3", make_figure3_tree()});
  Rng rng(20260805);
  for (const TreeFamily family : all_tree_families()) {
    for (const std::size_t size : {5u, 23u, 80u}) {
      samples.push_back({std::string(tree_family_name(family)) + "_" +
                             std::to_string(size),
                         make_family_tree(family, size, rng)});
    }
  }
  for (const std::size_t size : {7u, 41u, 120u}) {
    samples.push_back({"chainy_" + std::to_string(size),
                       make_random_chainy_tree(size, rng, 0.9)});
  }
  return samples;
}

/// Vertices to query: everything on small trees, a random sample otherwise.
std::vector<VertexId> query_vertices(const LabeledTree& tree, Rng& rng) {
  std::vector<VertexId> vs;
  if (tree.n() <= 16) {
    for (VertexId v = 0; v < tree.n(); ++v) vs.push_back(v);
  } else {
    for (int i = 0; i < 12; ++i) {
      vs.push_back(static_cast<VertexId>(rng.index(tree.n())));
    }
  }
  return vs;
}

TEST(TreeIndexTest, PairQueriesMatchNaiveWalks) {
  Rng rng(1);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    EXPECT_EQ(index.n(), s.tree.n());
    EXPECT_EQ(index.root(), s.tree.root());
    const auto vs = query_vertices(s.tree, rng);
    for (const VertexId u : vs) {
      EXPECT_EQ(index.depth(u), reference::depth(s.tree, u));
      for (const VertexId v : vs) {
        EXPECT_EQ(index.lca(u, v), reference::lca(s.tree, u, v));
        EXPECT_EQ(index.distance(u, v), reference::distance(s.tree, u, v));
        EXPECT_EQ(index.is_ancestor(u, v), reference::lca(s.tree, u, v) == u);
      }
    }
  }
}

TEST(TreeIndexTest, MedianAndProjectionMatchNaiveWalks) {
  Rng rng(2);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    const auto vs = query_vertices(s.tree, rng);
    for (const VertexId a : vs) {
      for (const VertexId b : vs) {
        for (const VertexId c : vs) {
          const VertexId want = reference::median(s.tree, a, b, c);
          EXPECT_EQ(index.median(a, b, c), want);
          // proj_P(v) with P = P(a, b) is the same median.
          EXPECT_EQ(index.project_onto_path(a, b, c), want);
        }
      }
    }
  }
}

TEST(TreeIndexTest, RootPathsMatchNaiveWalks) {
  Rng rng(3);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    for (const VertexId tip : query_vertices(s.tree, rng)) {
      const auto got = index.root_path(tip);
      const auto want = reference::path(s.tree, s.tree.root(), tip);
      EXPECT_EQ(got, want);
      // The paper's 1-based v_1 .. v_k indexing along any root-anchored
      // path: index_on_root_path(v) must equal v's position in the walk.
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(index.index_on_root_path(got[i]), i + 1);
      }
    }
  }
}

TEST(TreeIndexTest, HullQueriesMatchNaiveWalks) {
  Rng rng(4);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<VertexId> members;
      const std::size_t k = 1 + rng.index(5);
      for (std::size_t i = 0; i < k; ++i) {
        members.push_back(static_cast<VertexId>(rng.index(s.tree.n())));
      }
      for (const VertexId w : query_vertices(s.tree, rng)) {
        EXPECT_EQ(index.in_hull(members, w), in_hull(s.tree, members, w));
      }
      // Cross-check against the materialized hull as well.
      const auto hull = convex_hull(s.tree, members);
      for (const VertexId w : hull) {
        EXPECT_TRUE(index.in_hull(members, w));
      }
    }
  }
}

TEST(TreeIndexTest, MaxPairwiseDistanceMatchesNaiveWalks) {
  Rng rng(5);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    const auto a = query_vertices(s.tree, rng);
    const auto b = query_vertices(s.tree, rng);
    std::uint32_t want = 0;
    for (const VertexId u : a) {
      for (const VertexId v : b) {
        want = std::max(want, reference::distance(s.tree, u, v));
      }
    }
    EXPECT_EQ(index.max_pairwise_distance(a, b), want);
  }
}

}  // namespace
}  // namespace treeaa
