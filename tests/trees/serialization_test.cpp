// Text and DOT serialization: round trips, error reporting, DOT shape.
#include "trees/serialization.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <string_view>

#include "common/rng.h"
#include "trees/generators.h"

namespace treeaa {
namespace {

TEST(TreeText, RoundTripFigure3) {
  const auto tree = make_figure3_tree();
  const auto text = tree_to_text(tree);
  const auto back = tree_from_text(text);
  ASSERT_EQ(back.n(), tree.n());
  for (VertexId v = 0; v < tree.n(); ++v) {
    EXPECT_EQ(back.label(v), tree.label(v));
    EXPECT_EQ(back.parent(v), tree.parent(v));
  }
}

/// Full structural equality, not just spot checks: labels, parents, degrees
/// and derived metrics must all survive the text round trip.
void expect_same_tree(const LabeledTree& tree, const LabeledTree& back) {
  ASSERT_EQ(back.n(), tree.n());
  for (VertexId v = 0; v < tree.n(); ++v) {
    EXPECT_EQ(back.label(v), tree.label(v));
    EXPECT_EQ(back.parent(v), tree.parent(v));
    EXPECT_EQ(back.degree(v), tree.degree(v));
  }
  EXPECT_EQ(back.diameter(), tree.diameter());
}

TEST(TreeText, RoundTripRandomTrees) {
  Rng rng(777);
  for (int trial = 0; trial < 10; ++trial) {
    const auto tree = make_random_tree(1 + rng.index(60), rng);
    expect_same_tree(tree, tree_from_text(tree_to_text(tree)));
  }
}

TEST(TreeText, RoundTripPropertyAcrossGeneratorFamilies) {
  // Property: for every generator family and size, parse(serialize(T)) is
  // structurally identical to T and the canonical text is a fixed point of
  // the round trip (diffable configuration needs a stable canonical form).
  Rng rng(0x7EE5);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = 1 + rng.index(80);
    LabeledTree tree = [&]() -> LabeledTree {
      switch (rng.index(6)) {
        case 0: return make_path(n);
        case 1: return make_star(n + 1);
        case 2: return make_kary(1 + rng.index(4), 1 + rng.index(3));
        case 3: return make_caterpillar(1 + rng.index(12), rng.index(5));
        case 4: return make_spider(1 + rng.index(6), 1 + rng.index(8));
        default:
          return make_random_chainy_tree(n, rng, rng.unit());
      }
    }();
    const auto text = tree_to_text(tree);
    const auto back = tree_from_text(text);
    expect_same_tree(tree, back);
    EXPECT_EQ(tree_to_text(back), text) << "canonical form not a fixed point";
  }
}

TEST(TreeText, RoundTripShuffledLabelRandomTrees) {
  // Shuffled labels decouple label order from structural position, so this
  // exercises parsing where the root is not the generator's vertex 0.
  Rng rng(424242);
  for (int trial = 0; trial < 20; ++trial) {
    const auto tree =
        make_random_tree(1 + rng.index(100), rng, /*shuffle_labels=*/true);
    const auto text = tree_to_text(tree);
    const auto back = tree_from_text(text);
    expect_same_tree(tree, back);
    EXPECT_EQ(tree_to_text(back), text);
  }
}

TEST(TreeText, SingleVertex) {
  const auto tree = LabeledTree::single("solo");
  const auto back = tree_from_text(tree_to_text(tree));
  EXPECT_EQ(back.n(), 1u);
  EXPECT_EQ(back.label(0), "solo");
}

TEST(TreeText, ParsesCommentsAndBlankLines) {
  const auto tree = tree_from_text(
      "# a comment\n"
      "\n"
      "edge a b   # trailing comment\n"
      "edge b c\n");
  EXPECT_EQ(tree.n(), 3u);
  EXPECT_EQ(tree.diameter(), 2u);
}

TEST(TreeText, RedundantVertexDirectiveIsAccepted) {
  const auto tree = tree_from_text("vertex a\nedge a b\n");
  EXPECT_EQ(tree.n(), 2u);
}

TEST(TreeText, VertexLinePerVertexOnALargeTree) {
  // A `vertex` line for every vertex of a 20k-vertex tree: each line is
  // one lookup in the interned labels, not a scan of every edge.
  Rng rng(2026);
  const auto tree = make_random_tree(20000, rng);
  std::string text;
  for (VertexId v = 0; v < tree.n(); ++v) {
    text += "vertex " + tree.label(v) + "\n";
  }
  text += tree_to_text(tree);
  expect_same_tree(tree, tree_from_text(text));
}

TEST(TreeText, ErrorsCarryLineNumbers) {
  try {
    (void)tree_from_text("edge a b\nedge a\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TreeText, RejectsGarbage) {
  EXPECT_THROW((void)tree_from_text("frobnicate x y\n"),
               std::invalid_argument);
  EXPECT_THROW((void)tree_from_text(""), std::invalid_argument);
  EXPECT_THROW((void)tree_from_text("vertex a\nvertex b\n"),
               std::invalid_argument);  // disconnected
  EXPECT_THROW((void)tree_from_text("edge a b\nvertex z\n"),
               std::invalid_argument);  // isolated extra vertex
  EXPECT_THROW((void)tree_from_text("edge a b\nedge c d\n"),
               std::invalid_argument);  // two components
}

// --- Pinned error reporting ---------------------------------------------
//
// what() reads "REQUIRE failed: (<expr>) at <file>:<line> — <message>". The
// expression and source location name code positions that any edit moves,
// so these goldens pin the exception type, the prefix and the full message.

/// The message part of a REQUIRE failure thrown while parsing `text`.
std::string parse_error(std::string_view text) {
  try {
    (void)tree_from_text(text);
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind("REQUIRE failed: (", 0), 0u) << what;
    const std::string sep = " \xe2\x80\x94 ";  // " — "
    const auto at = what.find(sep);
    if (at == std::string::npos) return "<no message: " + what + ">";
    return what.substr(at + sep.size());
  }
  return "<no throw>";
}

TEST(TreeTextErrors, UnknownDirective) {
  EXPECT_EQ(parse_error("frobnicate x y\n"),
            "line 1: unknown directive 'frobnicate'");
  EXPECT_EQ(parse_error("edge a b\n\n# c\n  Edge b c\n"),
            "line 4: unknown directive 'Edge'");
}

TEST(TreeTextErrors, VertexArity) {
  EXPECT_EQ(parse_error("edge a b\nvertex\n"), "line 2: vertex needs one label");
  EXPECT_EQ(parse_error("vertex a b\n"), "line 1: vertex needs one label");
}

TEST(TreeTextErrors, EdgeArity) {
  EXPECT_EQ(parse_error("edge a b\nedge a\n"), "line 2: edge needs two labels");
  EXPECT_EQ(parse_error("# header\nedge a b c\n"),
            "line 2: edge needs two labels");
  EXPECT_EQ(parse_error("edge\n"), "line 1: edge needs two labels");
}

TEST(TreeTextErrors, SelfLoop) {
  EXPECT_EQ(parse_error("edge a b\nedge c c\n"), "self-loop on label 'c'");
}

TEST(TreeTextErrors, VertexEdgeCountMismatch) {
  EXPECT_EQ(parse_error("edge a b\nedge b c\nedge c a\n"),
            "edge list is not a tree: 3 vertices, 3 edges");
  EXPECT_EQ(parse_error("edge a b\nedge c d\n"),
            "edge list is not a tree: 4 vertices, 2 edges");
}

TEST(TreeTextErrors, DuplicateEdge) {
  EXPECT_EQ(parse_error("edge a b\nedge b a\nedge c d\n"),
            "duplicate edge in input");
}

TEST(TreeTextErrors, Disconnected) {
  EXPECT_EQ(parse_error("edge a b\nedge c d\nedge d e\nedge e c\n"),
            "edge list is not connected");
}

TEST(TreeTextErrors, IsolatedExtraVertex) {
  EXPECT_EQ(parse_error("edge a b\nvertex z\n"),
            "isolated vertex 'z' would disconnect the tree");
  EXPECT_EQ(parse_error("vertex b\nvertex y\nedge a b\nvertex z\n"),
            "isolated vertex 'y' would disconnect the tree");
}

TEST(TreeTextErrors, EmptyText) {
  const std::string want = "tree text must contain edges or exactly one vertex";
  EXPECT_EQ(parse_error(""), want);
  EXPECT_EQ(parse_error("# only a comment\n\n   \n"), want);
  EXPECT_EQ(parse_error("vertex a\nvertex b\n"), want);
  EXPECT_EQ(parse_error("vertex a\nvertex a\n"), want);
}

TEST(TreeTextErrors, FirstFaultWinsInDetectionOrder) {
  // Line faults are reported before any structural fault, earliest line
  // first, even when a structural fault sits on an earlier line.
  EXPECT_EQ(parse_error("edge a a\nedge b\nbogus\n"),
            "line 2: edge needs two labels");
  // An unmentioned vertex line beats a self-loop.
  EXPECT_EQ(parse_error("edge a a\nvertex z\n"),
            "isolated vertex 'z' would disconnect the tree");
  // A self-loop beats the vertex/edge count.
  EXPECT_EQ(parse_error("edge a b\nedge b c\nedge d d\nedge e f\n"),
            "self-loop on label 'd'");
  // The count beats a duplicate edge.
  EXPECT_EQ(parse_error("edge a b\nedge a b\n"),
            "edge list is not a tree: 2 vertices, 2 edges");
  // A duplicate edge beats disconnection.
  EXPECT_EQ(parse_error("edge a b\nedge a b\nedge c d\n"),
            "duplicate edge in input");
}

TEST(TreeTextErrors, FromEdgesNeedsAnEdge) {
  try {
    (void)LabeledTree::from_edges({});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("from_edges needs >= 1 edge; use single() for |V| = 1"),
              std::string::npos)
        << what;
  }
}

// --- Whitespace and line splitting -----------------------------------------

/// Labels and parents of `text`'s tree, for comparing parses.
std::string shape(std::string_view text) {
  const auto tree = tree_from_text(text);
  std::string out;
  for (VertexId v = 0; v < tree.n(); ++v) {
    out += tree.label(v) + "<" +
           (v == tree.root() ? std::string("-") : tree.label(tree.parent(v))) +
           " ";
  }
  return out;
}

TEST(TreeTextWhitespace, CrlfLineEnds) {
  EXPECT_EQ(shape("edge a b\r\nedge b c\r\n"), "a<- b<a c<b ");
  EXPECT_EQ(parse_error("edge a b\r\nedge a\r\n"),
            "line 2: edge needs two labels");
}

TEST(TreeTextWhitespace, TabsVerticalTabsAndFormFeeds) {
  EXPECT_EQ(shape("\tedge\ta\t\tb\nedge\vb\fc \v\f\t\n"), "a<- b<a c<b ");
}

TEST(TreeTextWhitespace, TrailingCommentsAndNoFinalNewline) {
  EXPECT_EQ(shape("edge a b# glued comment\nedge b c   # spaced"),
            "a<- b<a c<b ");
  EXPECT_EQ(shape("edge a b\nedge b c"), "a<- b<a c<b ");
  EXPECT_EQ(shape("vertex solo"), "solo<- ");
  // A comment can cut a line short of its labels.
  EXPECT_EQ(parse_error("edge a b\nedge b#c\n"),
            "line 2: edge needs two labels");
}

TEST(TreeTextWhitespace, OnlyNewlineSeparatesLines) {
  // A bare carriage return is whitespace inside one line, not a line end.
  EXPECT_EQ(parse_error("edge a b\redge b c\n"),
            "line 1: edge needs two labels");
  EXPECT_EQ(parse_error("\r\r\nvertex\n"), "line 2: vertex needs one label");
}

TEST(TreeTextWhitespace, NonAsciiAndNulBytesStayInLabels) {
  // Only the C-locale space characters separate tokens: a UTF-8 no-break
  // space and a NUL byte are label bytes.
  constexpr char kText[] = "edge a\xc2\xa0x b\nedge b c\0d\n";
  const auto tree = tree_from_text(std::string_view(kText, sizeof kText - 1));
  ASSERT_EQ(tree.n(), 3u);
  EXPECT_EQ(tree.label(0), "a\xc2\xa0x");
  EXPECT_EQ(tree.label(1), "b");
  EXPECT_EQ(tree.label(2), std::string("c\0d", 3));
}

TEST(TreeDot, ContainsAllVerticesAndEdges) {
  const auto tree = make_path(3);
  const auto dot = tree_to_dot(tree, {1});
  EXPECT_NE(dot.find("\"v0\" -- \"v1\""), std::string::npos);
  EXPECT_NE(dot.find("\"v1\" -- \"v2\""), std::string::npos);
  EXPECT_NE(dot.find("fillcolor=lightblue"), std::string::npos);
  EXPECT_EQ(dot.find("shape=circle") != std::string::npos, true);
}

TEST(TreeDot, QuotesHostileLabels) {
  const auto tree = LabeledTree::from_edges({{"a\"b", "c\\d"}});
  const auto dot = tree_to_dot(tree);
  EXPECT_NE(dot.find("\"a\\\"b\""), std::string::npos);
  EXPECT_NE(dot.find("\"c\\\\d\""), std::string::npos);
}

TEST(TreeDot, RejectsBogusHighlight) {
  const auto tree = make_path(3);
  EXPECT_THROW((void)tree_to_dot(tree, {9}), std::invalid_argument);
}

}  // namespace
}  // namespace treeaa
