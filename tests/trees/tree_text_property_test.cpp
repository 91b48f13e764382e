// tree_from_text against LabeledTree::from_edges on relabeled, line-shuffled
// text: across every generator family and several sizes, both must give the
// same labels, neighbours, parents, depths, children, diameter endpoints and
// Euler list, and that tree must be the source tree under the relabeling.
// A digest of the parsed trees pins the exact canonical form as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "trees/euler.h"
#include "trees/generators.h"
#include "trees/labeled_tree.h"
#include "trees/serialization.h"

namespace treeaa {
namespace {

std::vector<VertexId> euler_of(const LabeledTree& t) {
  return {t.euler().raw().begin(), t.euler().raw().end()};
}

/// One source tree under a random relabeling, as an edge list and as text.
struct Relabeled {
  std::vector<std::string> label_of;  // source vertex -> new label
  std::vector<std::pair<std::string, std::string>> edges;
  std::string text;
};

/// New labels are unpadded ("x10" sorts before "x2"), so label order, and
/// with it the root and every id, differs from the source tree's. The text
/// shuffles edge lines and endpoint order and mixes separators, line ends,
/// comments, blank lines and redundant vertex lines.
Relabeled relabel(const LabeledTree& src, Rng& rng) {
  Relabeled r;
  std::vector<std::size_t> perm(src.n());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng.shuffle(perm);
  for (VertexId v = 0; v < src.n(); ++v) {
    r.label_of.push_back(std::string("x").append(std::to_string(perm[v])));
  }
  for (VertexId v = 0; v < src.n(); ++v) {
    if (v == src.root()) continue;
    auto e = std::make_pair(r.label_of[src.parent(v)], r.label_of[v]);
    if (rng.index(2) == 0) std::swap(e.first, e.second);
    r.edges.push_back(std::move(e));
  }
  rng.shuffle(r.edges);
  static const char* const kSeps[] = {" ", "\t", "  ", " \v", "\f "};
  static const char* const kEnds[] = {"\n", "\r\n", " # note\n", "#x\r\n"};
  for (const auto& [a, b] : r.edges) {
    if (rng.index(8) == 0) r.text += rng.index(2) == 0 ? "\n" : "# c\n";
    if (rng.index(8) == 0) r.text += "vertex " + a + "\n";
    r.text += std::string(rng.index(2) == 0 ? "" : "\t") + "edge" +
              kSeps[rng.index(5)] + a + kSeps[rng.index(5)] + b +
              kEnds[rng.index(4)];
  }
  if (rng.index(2) == 0) r.text.pop_back();  // no final newline
  return r;
}

std::vector<VertexId> as_vector(std::span<const VertexId> s) {
  return {s.begin(), s.end()};
}

void expect_identical(const LabeledTree& got, const LabeledTree& want) {
  ASSERT_EQ(got.n(), want.n());
  for (VertexId v = 0; v < want.n(); ++v) {
    EXPECT_EQ(got.label(v), want.label(v));
    EXPECT_EQ(as_vector(got.neighbors(v)), as_vector(want.neighbors(v)));
    EXPECT_EQ(got.parent(v), want.parent(v));
    EXPECT_EQ(got.depth(v), want.depth(v));
    EXPECT_EQ(as_vector(got.children(v)), as_vector(want.children(v)));
  }
  EXPECT_EQ(got.diameter(), want.diameter());
  EXPECT_EQ(got.diameter_endpoints(), want.diameter_endpoints());
  EXPECT_EQ(euler_of(got), euler_of(want));
}

/// `got` is `src` with every vertex renamed by `label_of`.
void expect_isomorphic(const LabeledTree& got, const LabeledTree& src,
                       const std::vector<std::string>& label_of) {
  ASSERT_EQ(got.n(), src.n());
  for (VertexId u = 0; u < src.n(); ++u) {
    const auto p = got.find(label_of[u]);
    ASSERT_TRUE(p.has_value()) << label_of[u];
    std::set<std::string> want, have;
    for (const VertexId w : src.neighbors(u)) want.insert(label_of[w]);
    for (const VertexId w : got.neighbors(*p)) have.insert(got.label(w));
    EXPECT_EQ(have, want) << label_of[u];
  }
  EXPECT_EQ(got.diameter(), src.diameter());
}

TEST(TreeTextProperty, ShuffledTextMatchesFromEdgesAcrossFamilies) {
  Rng rng(0x5EED7E47);
  for (const TreeFamily family : all_tree_families()) {
    for (const std::size_t size : {2u, 3u, 9u, 64u, 500u}) {
      SCOPED_TRACE(std::string(tree_family_name(family)) + "_" +
                   std::to_string(size));
      const LabeledTree src = make_family_tree(family, size, rng);
      if (src.n() < 2) continue;
      for (int round = 0; round < 3; ++round) {
        const Relabeled r = relabel(src, rng);
        const LabeledTree parsed = tree_from_text(r.text);
        const LabeledTree built = LabeledTree::from_edges(r.edges);
        expect_identical(parsed, built);
        expect_isomorphic(parsed, src, r.label_of);
      }
    }
  }
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xFF;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Everything the parser and builder decide, folded into one number.
std::uint64_t digest(const LabeledTree& t) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (VertexId v = 0; v < t.n(); ++v) {
    for (const char c : t.label(v)) h = fnv(h, static_cast<unsigned char>(c));
    h = fnv(h, t.parent(v));
    h = fnv(h, t.depth(v));
    for (const VertexId w : t.neighbors(v)) h = fnv(h, w);
    for (const VertexId w : t.children(v)) h = fnv(h, w);
  }
  h = fnv(h, t.diameter_endpoints().first);
  h = fnv(h, t.diameter_endpoints().second);
  for (const VertexId v : euler_of(t)) h = fnv(h, v);
  return h;
}

TEST(TreeTextProperty, ParsedTreesArePinned) {
  // Recorded from the istringstream parser and the binary-lifting tree; a
  // rewrite of either must reproduce these exactly.
  const std::vector<std::uint64_t> want = {
      0x064f68b164bc258cull, 0xe7afc1f1c4c87bd9ull, 0x0104a0341d2266fdull,
      0x246df6a7ba22934full, 0xb83d5b94737a63d1ull, 0xcee909c66fc4f111ull,
      0x5f07521042a45ac9ull, 0x75db1db0c7bfa8c4ull, 0x6e9f00d82f6fe973ull,
      0x5f07521042a45ac9ull, 0x209fe64c56a21e1dull, 0x64ef6c2801d6809aull,
      0xdbfab48f271422c9ull, 0xf0701c8df31c720bull, 0xd926ee5a1c1e25d7ull,
      0x8693e9884c93718bull, 0x836b1305a7e57c11ull, 0xddde66fa6b4e8641ull,
  };
  Rng rng(20261017);
  std::vector<std::uint64_t> got;
  for (const TreeFamily family : all_tree_families()) {
    for (const std::size_t size : {5u, 77u, 1000u}) {
      const LabeledTree src = make_family_tree(family, size, rng);
      got.push_back(digest(tree_from_text(relabel(src, rng).text)));
    }
  }
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace treeaa
