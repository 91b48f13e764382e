// The tree's O(1) LCA (sparse-table RMQ over its Euler tour) checked
// against the independent parent-climbing reference.
#include "trees/lca.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "support/tree_reference.h"
#include "trees/generators.h"

namespace treeaa {
namespace {

TEST(SparseLca, SingleVertex) {
  const auto t = LabeledTree::single("a");
  EXPECT_EQ(t.lca(0, 0), 0u);
  EXPECT_EQ(t.distance(0, 0), 0u);
}

TEST(SparseLca, Figure3SpotChecks) {
  const auto t = make_figure3_tree();
  const VertexId v2 = *t.find("v2");
  const VertexId v6 = *t.find("v6");
  const VertexId v8 = *t.find("v8");
  EXPECT_EQ(t.lca(v6, v8), v2);
  EXPECT_EQ(t.distance(v6, v8), 4u);
}

TEST(SparseLca, StandaloneIndexOverATour) {
  // The index needs only a tour and depths: the path a - b - c rooted at a.
  const std::vector<VertexId> tour = {0, 1, 2, 1, 0};
  const SparseLcaIndex idx(tour, {0, 1, 2});
  EXPECT_EQ(idx.lca(2, 1), 1u);
  EXPECT_EQ(idx.lca(0, 2), 0u);
  EXPECT_EQ(idx.distance(0, 2), 2u);
  EXPECT_EQ(idx.depth(2), 2u);
}

class SparseLcaRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SparseLcaRandom, AgreesWithParentClimbing) {
  Rng rng(GetParam());
  for (int tree_trial = 0; tree_trial < 5; ++tree_trial) {
    const auto t = make_random_tree(1 + rng.index(120), rng);
    for (int q = 0; q < 200; ++q) {
      const auto u = static_cast<VertexId>(rng.index(t.n()));
      const auto v = static_cast<VertexId>(rng.index(t.n()));
      EXPECT_EQ(t.lca(u, v), reference::lca(t, u, v))
          << "u=" << u << " v=" << v;
      EXPECT_EQ(t.distance(u, v), reference::distance(t, u, v));
    }
  }
}

TEST_P(SparseLcaRandom, ExhaustiveOnSmallTrees) {
  Rng rng(GetParam() ^ 0xBEEF);
  const auto t = make_random_tree(2 + rng.index(16), rng);
  for (VertexId u = 0; u < t.n(); ++u) {
    for (VertexId v = 0; v < t.n(); ++v) {
      EXPECT_EQ(t.lca(u, v), reference::lca(t, u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseLcaRandom,
                         ::testing::Values(3, 14, 15, 92, 65, 35));

}  // namespace
}  // namespace treeaa
