// The paper's worked figures as executable scenarios.
//
// Figure 1 (hull) and Figures 3/4 (Euler list) are covered in the trees
// tests; here Figure 4's PathsFinder consequences and Figure 5's
// ambiguous-last-vertex scenario are exercised end to end.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/api.h"
#include "core/paths_finder.h"
#include "harness/runner.h"
#include "realaa/adversaries.h"
#include "trees/generators.h"
#include "trees/paths.h"

namespace treeaa::core {
namespace {

// Figure 4: honest inputs v3, v6, v5 on the Figure 3 tree. The paper notes
// that RealAA may legitimately land on indices of v4 or v8 — vertices
// *outside* the hull {v5, v2, v3, v6} but inside the subtree of the valid
// vertex v2 — and that the root path then still intersects the hull.
TEST(Figure4, RootPathsThroughV4AndV8IntersectTheHonestHull) {
  const auto tree = make_figure3_tree();
  const std::vector<VertexId> honest{*tree.find("v3"), *tree.find("v6"),
                                     *tree.find("v5")};
  for (const char* outside : {"v4", "v8"}) {
    const VertexId v = *tree.find(outside);
    EXPECT_FALSE(in_hull(tree, honest, v));
    const auto path = tree.path(tree.root(), v);
    const bool intersects =
        std::any_of(path.begin(), path.end(),
                    [&](VertexId w) { return in_hull(tree, honest, w); });
    EXPECT_TRUE(intersects) << outside;
  }
}

// Figure 4 again, via the protocol itself: every index between the extreme
// honest Euler indices yields a root path through the hull (Lemma 3).
TEST(Figure4, Lemma3HoldsForEveryIndexInTheHonestWindow) {
  const auto tree = make_figure3_tree();
  const EulerList& L = tree.euler();
  const std::vector<VertexId> honest{*tree.find("v3"), *tree.find("v6"),
                                     *tree.find("v5")};
  std::size_t lo = L.size(), hi = 1;
  for (const VertexId v : honest) {
    lo = std::min(lo, L.first_occurrence(v));
    hi = std::max(hi, L.last_occurrence(v));
  }
  EXPECT_EQ(lo, 3u);   // min L(v3)
  EXPECT_EQ(hi, 13u);  // L(v5)
  for (std::size_t i = lo; i <= hi; ++i) {
    const auto path = tree.path(tree.root(), L.at(i));
    const bool intersects =
        std::any_of(path.begin(), path.end(),
                    [&](VertexId w) { return in_hull(tree, honest, w); });
    EXPECT_TRUE(intersects) << "index " << i;
  }
}

// Figure 5's topology: a spine v1..v7 where v6 also has a second child (the
// "red vertex") outside the honest hull. A party holding the shorter path
// (v1..v6) that obtains closestInt(j) = 7 cannot know whether position 7
// means v7 or the red vertex; TreeAA outputs v6 instead. We run the
// scenario under phase-2 split attacks and check the outputs never land on
// the red vertex and always satisfy AA.
TEST(Figure5, ShorterPathPartyNeverGuessesTheRedVertex) {
  // Labels chosen so the red vertex sorts after v7 (label "v8red" > "v7").
  const auto tree = LabeledTree::from_edges(
      {{"v1", "v2"}, {"v2", "v3"}, {"v3", "v4"}, {"v4", "v5"},
       {"v5", "v6"}, {"v6", "v7"}, {"v6", "v8red"},
       {"v3", "u1"}, {"v5", "u2"}, {"v7", "u3"}});
  const VertexId red = *tree.find("v8red");
  const std::vector<VertexId> honest_positions{
      *tree.find("u1"), *tree.find("u2"), *tree.find("u3")};

  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const std::size_t n = 7, t = 2;
    Rng rng(seed);
    std::vector<VertexId> inputs(n);
    for (auto& v : inputs) v = rng.pick(honest_positions);

    realaa::SplitAdversary::Options opts;
    opts.config = projection_config(tree, n, t, {});
    opts.corrupt = {5, 6};
    opts.start_round =
        static_cast<Round>(paths_finder_config(tree, n, t, {}).rounds() + 1);
    const auto run = run_tree_aa(
        tree, inputs, t, {},
        std::make_unique<realaa::SplitAdversary>(std::move(opts)));

    std::vector<VertexId> honest_inputs;
    for (PartyId p = 0; p < n; ++p) {
      if (std::find(run.corrupt.begin(), run.corrupt.end(), p) ==
          run.corrupt.end()) {
        honest_inputs.push_back(inputs[p]);
      }
    }
    const auto check =
        check_agreement(tree, honest_inputs, run.honest_outputs());
    EXPECT_TRUE(check.ok()) << "seed " << seed;
    for (const VertexId out : run.honest_outputs()) {
      EXPECT_NE(out, red) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace treeaa::core
