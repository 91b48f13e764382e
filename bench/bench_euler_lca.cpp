// E4 — ListConstruction and LCA machinery at scale (paper Lemma 2 and the
// Bender–Farach-Colton technique it builds on, reference [8]).
//
// Google-benchmark microbenchmarks: loading a tree from text (parse, label
// interning, flat adjacency, rooted view, Euler list and sparse table — the
// tree's one index) is O(|V| log |V|), and the index answers LCA queries
// in O(1). The absolute numbers are machine-dependent; the shape
// (near-linear build, flat O(1) query) is the claim.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/tree_aa.h"
#include "trees/generators.h"
#include "trees/lca.h"
#include "trees/paths.h"
#include "trees/serialization.h"

namespace {

using namespace treeaa;

LabeledTree benchmark_tree(std::size_t n) {
  Rng rng(0xE0E0 + n);
  return make_random_chainy_tree(n, rng, 0.5);
}

void BM_TreeFromText(benchmark::State& state) {
  const std::string text = tree_to_text(
      benchmark_tree(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    const LabeledTree tree = tree_from_text(text);
    benchmark::DoNotOptimize(tree.diameter());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TreeFromText)->Range(1 << 10, 1 << 17);

void BM_SparseLcaBuild(benchmark::State& state) {
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint32_t> depth(tree.n());
  for (VertexId v = 0; v < tree.n(); ++v) depth[v] = tree.depth(v);
  for (auto _ : state) {
    SparseLcaIndex idx(tree.euler().raw(), depth);
    benchmark::DoNotOptimize(idx.lca(0, 0));
  }
}
BENCHMARK(BM_SparseLcaBuild)->Range(1 << 10, 1 << 17);

void BM_SparseLcaQuery(benchmark::State& state) {
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  Rng rng(7);
  std::vector<std::pair<VertexId, VertexId>> queries(1024);
  for (auto& q : queries) {
    q = {static_cast<VertexId>(rng.index(tree.n())),
         static_cast<VertexId>(rng.index(tree.n()))};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = queries[i++ & 1023];
    benchmark::DoNotOptimize(tree.lca(u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SparseLcaQuery)->Range(1 << 10, 1 << 17);

void BM_ProjectionQuery(benchmark::State& state) {
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  const auto [a, b] = tree.diameter_endpoints();
  const auto path = tree.path(a, b);
  Rng rng(11);
  std::size_t i = 0;
  std::vector<VertexId> queries(1024);
  for (auto& v : queries) v = static_cast<VertexId>(rng.index(tree.n()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        project_onto_path(tree, path, queries[i++ & 1023]));
  }
}
BENCHMARK(BM_ProjectionQuery)->Range(1 << 10, 1 << 17);

void BM_TreeAARoundBudget(benchmark::State& state) {
  // The full publicly-computable round budget (configs over both phases).
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::tree_aa_rounds(tree, 16, 5));
  }
}
BENCHMARK(BM_TreeAARoundBudget)->Range(1 << 10, 1 << 16);

}  // namespace

BENCHMARK_MAIN();
