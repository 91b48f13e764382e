#include "trees/serialization.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace treeaa {

namespace {

/// The space characters of the C locale, which separate tokens.
bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

/// The whitespace-separated tokens of one line: the first three, and how
/// many there are in all.
struct Tokens {
  std::string_view head[3];
  std::size_t count = 0;
};

Tokens tokenize(std::string_view line) {
  Tokens tokens;
  std::size_t i = 0;
  while (true) {
    while (i < line.size() && is_space(line[i])) ++i;
    if (i == line.size()) return tokens;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (tokens.count < 3) {
      tokens.head[tokens.count] = line.substr(start, i - start);
    }
    ++tokens.count;
  }
}

/// DOT requires quoting for arbitrary labels; escape quotes/backslashes.
std::string dot_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

std::string tree_to_text(const LabeledTree& tree) {
  std::ostringstream os;
  os << "# treeaa tree: " << tree.n() << " vertices, diameter "
     << tree.diameter() << "\n";
  if (tree.n() == 1) {
    os << "vertex " << tree.label(tree.root()) << "\n";
    return os.str();
  }
  // Parent-order edges: deterministic and reconstruction-friendly.
  for (VertexId v = 0; v < tree.n(); ++v) {
    for (const VertexId c : tree.children(v)) {
      os << "edge " << tree.label(v) << " " << tree.label(c) << "\n";
    }
  }
  return os.str();
}

LabeledTree tree_from_text(std::string_view text) {
  std::vector<LabeledTree::EdgeView> edges;
  std::vector<std::string_view> isolated;
  std::size_t line_no = 0;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find('\n', pos), text.size());
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    line = line.substr(0, line.find('#'));
    const Tokens tokens = tokenize(line);
    if (tokens.count == 0) continue;
    if (tokens.head[0] == "vertex") {
      TREEAA_REQUIRE_MSG(tokens.count == 2,
                         "line " << line_no << ": vertex needs one label");
      isolated.push_back(tokens.head[1]);
    } else if (tokens.head[0] == "edge") {
      TREEAA_REQUIRE_MSG(tokens.count == 3,
                         "line " << line_no << ": edge needs two labels");
      edges.emplace_back(tokens.head[1], tokens.head[2]);
    } else {
      TREEAA_REQUIRE_MSG(false, "line " << line_no << ": unknown directive '"
                                        << tokens.head[0] << "'");
    }
  }

  if (edges.empty()) {
    TREEAA_REQUIRE_MSG(isolated.size() == 1,
                       "tree text must contain edges or exactly one vertex");
    return LabeledTree::single(std::string(isolated[0]));
  }
  // Isolated vertices alongside edges would make the graph disconnected;
  // the builder allows them only if they also appear in an edge (harmless
  // redundancy).
  return LabeledTree::from_edge_views(edges, isolated);
}

std::string tree_to_dot(const LabeledTree& tree,
                        const std::vector<VertexId>& highlight) {
  std::vector<bool> mark(tree.n(), false);
  for (const VertexId v : highlight) {
    tree.require_vertex(v);
    mark[v] = true;
  }
  std::ostringstream os;
  os << "graph treeaa {\n  node [shape=circle];\n";
  for (VertexId v = 0; v < tree.n(); ++v) {
    os << "  " << dot_quote(tree.label(v));
    if (mark[v]) os << " [style=filled fillcolor=lightblue]";
    os << ";\n";
  }
  for (VertexId v = 0; v < tree.n(); ++v) {
    for (const VertexId c : tree.children(v)) {
      os << "  " << dot_quote(tree.label(v)) << " -- "
         << dot_quote(tree.label(c)) << ";\n";
    }
  }
  os << "}\n";
  return os.str();
}

}  // namespace treeaa
