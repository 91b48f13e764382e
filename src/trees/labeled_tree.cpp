#include "trees/labeled_tree.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <string_view>

#include "common/check.h"

namespace treeaa {

namespace {

/// Open-addressing hash set of label views. Ids follow first appearance.
class LabelInterner {
 public:
  explicit LabelInterner(std::size_t expected) {
    grow(std::bit_ceil(2 * expected + 2));
  }

  /// The id of `label`, adding it if new.
  std::uint32_t intern(std::string_view label) {
    std::uint32_t& slot = slots_[probe(label)];
    if (slot != 0) return slot - 1;
    labels_.push_back(label);
    slot = static_cast<std::uint32_t>(labels_.size());
    if (2 * labels_.size() > slots_.size()) grow(2 * slots_.size());
    return static_cast<std::uint32_t>(labels_.size() - 1);
  }

  [[nodiscard]] bool contains(std::string_view label) const {
    return slots_[probe(label)] != 0;
  }

  [[nodiscard]] std::size_t size() const { return labels_.size(); }
  [[nodiscard]] std::string_view label(std::uint32_t id) const {
    return labels_[id];
  }

 private:
  /// The slot holding `label`, or the empty slot where it belongs.
  [[nodiscard]] std::size_t probe(std::string_view label) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = std::hash<std::string_view>{}(label) & mask;
    while (slots_[i] != 0 && labels_[slots_[i] - 1] != label) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void grow(std::size_t capacity) {
    slots_.assign(capacity, 0);
    for (std::uint32_t id = 0; id < labels_.size(); ++id) {
      slots_[probe(labels_[id])] = id + 1;
    }
  }

  std::vector<std::uint32_t> slots_;  // id + 1; 0 = empty
  std::vector<std::string_view> labels_;
};

/// The first eight bytes of `label`, big-endian, zero-padded: integer
/// order on these keys is byte order on the labels, except that labels
/// sharing all eight bytes (or differing only in trailing zero bytes) tie.
std::uint64_t prefix_key(std::string_view label) {
  std::uint64_t key = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    key = (key << 8) |
          (i < label.size() ? static_cast<unsigned char>(label[i]) : 0u);
  }
  return key;
}

}  // namespace

LabeledTree LabeledTree::single(std::string label) {
  LabeledTree t;
  t.labels_.push_back(std::move(label));
  t.adj_begin_.assign(2, 0);
  t.index();
  return t;
}

LabeledTree LabeledTree::from_edges(
    const std::vector<std::pair<std::string, std::string>>& edges) {
  const std::vector<EdgeView> views(edges.begin(), edges.end());
  return from_edge_views(views);
}

LabeledTree LabeledTree::from_edge_views(
    std::span<const EdgeView> edges,
    std::span<const std::string_view> mentioned) {
  TREEAA_REQUIRE_MSG(!edges.empty(),
                     "from_edges needs >= 1 edge; use single() for |V| = 1");

  // Intern every endpoint; ids follow first appearance until sorted below.
  LabelInterner interner(edges.size() + 1);
  std::vector<VertexId> ends(2 * edges.size());
  for (std::size_t e = 0; e < edges.size(); ++e) {
    ends[2 * e] = interner.intern(edges[e].first);
    ends[2 * e + 1] = interner.intern(edges[e].second);
  }
  for (const std::string_view label : mentioned) {
    TREEAA_REQUIRE_MSG(interner.contains(label),
                       "isolated vertex '"
                           << label << "' would disconnect the tree");
  }
  for (std::size_t e = 0; e < edges.size(); ++e) {
    TREEAA_REQUIRE_MSG(ends[2 * e] != ends[2 * e + 1],
                       "self-loop on label '" << edges[e].first << "'");
  }
  const std::size_t n = interner.size();
  TREEAA_REQUIRE_MSG(n == edges.size() + 1,
                     "edge list is not a tree: " << n << " vertices, "
                                                 << edges.size() << " edges");

  // Ids in lexicographic label order: sort the n unique labels once, on
  // their first eight bytes as an integer, comparing whole labels only
  // where those agree.
  struct Key {
    std::uint64_t prefix;
    VertexId label;
  };
  std::vector<Key> by_label(n);
  for (VertexId v = 0; v < n; ++v) {
    by_label[v] = {prefix_key(interner.label(v)), v};
  }
  std::sort(by_label.begin(), by_label.end(), [&](const Key& a, const Key& b) {
    if (a.prefix != b.prefix) return a.prefix < b.prefix;
    return interner.label(a.label) < interner.label(b.label);
  });
  LabeledTree t;
  t.labels_.reserve(n);
  std::vector<VertexId> id_of(n);
  for (VertexId id = 0; id < n; ++id) {
    id_of[by_label[id].label] = id;
    t.labels_.emplace_back(interner.label(by_label[id].label));
  }
  for (VertexId& v : ends) v = id_of[v];

  // Flat adjacency. Bucket each edge under both endpoints, then re-bucket
  // scanning the buckets in id order: that leaves every list ascending.
  t.adj_begin_.assign(n + 1, 0);
  for (const VertexId v : ends) ++t.adj_begin_[v + 1];
  std::partial_sum(t.adj_begin_.begin(), t.adj_begin_.end(),
                   t.adj_begin_.begin());
  std::vector<std::uint32_t> fill(t.adj_begin_.begin(),
                                  t.adj_begin_.end() - 1);
  std::vector<VertexId> unsorted(ends.size());
  for (std::size_t k = 0; k < ends.size(); k += 2) {
    unsorted[fill[ends[k]]++] = ends[k + 1];
    unsorted[fill[ends[k + 1]]++] = ends[k];
  }
  std::copy(t.adj_begin_.begin(), t.adj_begin_.end() - 1, fill.begin());
  t.adj_.resize(ends.size());
  for (VertexId u = 0; u < n; ++u) {
    for (std::uint32_t k = t.adj_begin_[u]; k < t.adj_begin_[u + 1]; ++k) {
      t.adj_[fill[unsorted[k]]++] = u;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    const auto nbrs = t.neighbors(v);
    TREEAA_REQUIRE_MSG(
        std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end(),
        "duplicate edge in input");
  }

  t.index();  // also verifies connectivity
  return t;
}

void LabeledTree::index() {
  const std::size_t n = this->n();

  // BFS from the root over the sorted adjacency: each vertex's children
  // are appended together, ascending, when it leaves the queue.
  parent_.assign(n, kNoVertex);
  std::vector<std::uint32_t> depth(n, 0);
  std::vector<bool> seen(n, false);
  child_begin_.assign(n, 0);
  bfs_order_.clear();
  bfs_order_.reserve(n);
  bfs_order_.push_back(root());
  seen[root()] = true;
  for (std::size_t head = 0; head < bfs_order_.size(); ++head) {
    const VertexId v = bfs_order_[head];
    child_begin_[v] = static_cast<std::uint32_t>(bfs_order_.size());
    for (std::uint32_t k = adj_begin_[v]; k < adj_begin_[v + 1]; ++k) {
      const VertexId w = adj_[k];
      if (seen[w]) continue;
      seen[w] = true;
      parent_[w] = v;
      depth[w] = depth[v] + 1;
      bfs_order_.push_back(w);
    }
  }
  TREEAA_REQUIRE_MSG(bfs_order_.size() == n, "edge list is not connected");

  // Two sweeps: the farthest vertex from the root (the deepest, smallest id
  // on ties) ends a longest path, and the farthest vertex from it ends the
  // same path. Distances from `a` follow the BFS order: one step less than
  // the parent's on the root-to-a path, one more everywhere else.
  VertexId a = root();
  for (VertexId v = 0; v < n; ++v) {
    if (depth[v] > depth[a]) a = v;
  }
  std::vector<bool> above_a(n, false);
  for (VertexId x = a; x != kNoVertex; x = parent_[x]) above_a[x] = true;
  std::vector<std::uint32_t> dist(n);
  dist[root()] = depth[a];
  for (std::size_t i = 1; i < n; ++i) {
    const VertexId v = bfs_order_[i];
    dist[v] = above_a[v] ? dist[parent_[v]] - 1 : dist[parent_[v]] + 1;
  }
  VertexId b = a;
  for (VertexId v = 0; v < n; ++v) {
    if (dist[v] > dist[b]) b = v;
  }
  diameter_ = dist[b];
  diameter_ends_ = {std::min(a, b), std::max(a, b)};

  euler_ = EulerList(*this);
  lca_ = SparseLcaIndex(euler_.raw(), std::move(depth));
}

const std::string& LabeledTree::label(VertexId v) const {
  require_vertex(v);
  return labels_[v];
}

std::optional<VertexId> LabeledTree::find(std::string_view label) const {
  const auto it = std::lower_bound(
      labels_.begin(), labels_.end(), label,
      [](const std::string& a, std::string_view b) {
        return std::string_view(a) < b;
      });
  if (it == labels_.end() || *it != label) return std::nullopt;
  return static_cast<VertexId>(it - labels_.begin());
}

std::span<const VertexId> LabeledTree::neighbors(VertexId v) const {
  require_vertex(v);
  return std::span<const VertexId>(adj_).subspan(
      adj_begin_[v], adj_begin_[v + 1] - adj_begin_[v]);
}

VertexId LabeledTree::parent(VertexId v) const {
  require_vertex(v);
  return parent_[v];
}

std::uint32_t LabeledTree::depth(VertexId v) const {
  require_vertex(v);
  return lca_.depth(v);
}

std::span<const VertexId> LabeledTree::children(VertexId v) const {
  // Every neighbour but the parent is a child.
  const std::size_t count = degree(v) - (v == root() ? 0 : 1);
  return std::span<const VertexId>(bfs_order_).subspan(child_begin_[v], count);
}

VertexId LabeledTree::lca(VertexId u, VertexId v) const {
  require_vertex(u);
  require_vertex(v);
  return lca_.lca(u, v);
}

bool LabeledTree::is_ancestor(VertexId a, VertexId d) const {
  return lca(a, d) == a;
}

std::uint32_t LabeledTree::distance(VertexId u, VertexId v) const {
  require_vertex(u);
  require_vertex(v);
  return lca_.distance(u, v);
}

std::vector<VertexId> LabeledTree::path(VertexId u, VertexId v) const {
  const VertexId w = lca(u, v);
  const std::uint32_t up = lca_.depth(u) - lca_.depth(w);
  const std::uint32_t down = lca_.depth(v) - lca_.depth(w);
  std::vector<VertexId> p(static_cast<std::size_t>(up) + down + 1);
  VertexId x = u;
  for (std::size_t i = 0; i < up; ++i, x = parent_[x]) p[i] = x;
  p[up] = w;
  x = v;
  for (std::size_t i = p.size() - 1; i > up; --i, x = parent_[x]) p[i] = x;
  return p;
}

VertexId LabeledTree::median(VertexId a, VertexId b, VertexId c) const {
  // The median is the deepest of the three pairwise LCAs.
  const VertexId x = lca(a, b);
  const VertexId y = lca(a, c);
  const VertexId z = lca(b, c);
  VertexId m = x;
  if (lca_.depth(y) > lca_.depth(m)) m = y;
  if (lca_.depth(z) > lca_.depth(m)) m = z;
  return m;
}

void LabeledTree::require_vertex(VertexId v) const {
  TREEAA_REQUIRE_MSG(v < n(), "vertex id " << v << " out of range (n = "
                                           << n() << ")");
}

}  // namespace treeaa
