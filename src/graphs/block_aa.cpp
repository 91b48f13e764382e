#include "graphs/block_aa.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "obs/probe.h"
#include "obs/span.h"
#include "trees/paths.h"

namespace treeaa::graphs {

std::size_t block_aa_rounds(const BlockIndex& index, std::size_t n,
                            std::size_t t, const BlockAAOptions& opts) {
  return core::tree_aa_rounds(index.agreement_tree(), n, t, opts);
}

VertexId resolve_block_output(const BlockIndex& index, VertexId a_node,
                              VertexId own_input) {
  return index.resolve(a_node, own_input);
}

std::vector<VertexId> BlockRunResult::honest_outputs() const {
  std::vector<VertexId> out;
  for (const auto& o : outputs) {
    if (o.has_value()) out.push_back(*o);
  }
  return out;
}

namespace {

/// Merges the honest parties' current state into the sample of the round
/// that just ended — in the *graph* metric: every inner A-node estimate is
/// resolved through the party's own gate map first, so value_diameter is a
/// G-distance and the ledger's block-graph checks read the series directly.
void snapshot_block_aa(const BlockIndex& index, const sim::Engine& engine,
                       const std::vector<core::TreeAAProcess*>& procs,
                       const std::vector<VertexId>& inputs,
                       obs::RoundSample& s) {
  std::vector<VertexId> estimates;
  estimates.reserve(procs.size());
  std::uint64_t detected = 0;
  for (PartyId p = 0; p < procs.size(); ++p) {
    if (engine.is_corrupt(p)) continue;
    estimates.push_back(
        resolve_block_output(index, procs[p]->current_estimate(), inputs[p]));
    detected = std::max(detected, static_cast<std::uint64_t>(
                                      procs[p]->current_detected_faulty()));
  }
  if (estimates.empty()) return;
  s.value_diameter = static_cast<double>(
      index.max_pairwise_distance(estimates, estimates));
  // Hull size in A(G), restricted to vertex nodes — on a block graph this
  // equals |<estimates>| in G (Steiner-tree equivalence).
  std::vector<VertexId> nodes;
  nodes.reserve(estimates.size());
  for (const VertexId v : estimates) nodes.push_back(index.to_agreement(v));
  std::size_t hull_vertices = 0;
  for (const VertexId node : convex_hull(index.agreement_tree(), nodes)) {
    if (index.is_vertex_node(node)) ++hull_vertices;
  }
  s.hull_size = hull_vertices;
  s.detected_faulty = detected;
}

}  // namespace

BlockRunResult run_block_aa(const BlockIndex& index,
                            const std::vector<VertexId>& inputs,
                            std::size_t t, BlockAAOptions opts,
                            std::unique_ptr<sim::Adversary> adversary,
                            const obs::Hooks* hooks,
                            sim::EngineOptions engine_opts) {
  const std::size_t n = inputs.size();
  TREEAA_REQUIRE_MSG(n > 3 * t, "BlockAA requires n > 3t (n = "
                                    << n << ", t = " << t << ")");
  for (const VertexId v : inputs) index.graph().require_vertex(v);

  // The inner TreeAA runs on the agreement tree and its own index.
  const LabeledTree& a_tree = index.agreement_tree();
  sim::Engine engine(n, std::max<std::size_t>(t, 1), engine_opts);
  std::vector<core::TreeAAProcess*> procs(n);
  for (PartyId p = 0; p < n; ++p) {
    auto proc = std::make_unique<core::TreeAAProcess>(
        a_tree, n, t, p, index.to_agreement(inputs[p]), opts);
    procs[p] = proc.get();
    engine.set_process(p, std::move(proc));
  }
  if (adversary != nullptr) engine.set_adversary(std::move(adversary));

  const std::size_t rounds = block_aa_rounds(index, n, t, opts);
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (hooks != nullptr && hooks->active()) {
    if (report != nullptr) {
      report->protocol = "block_aa";
      report->add_param("graph_n", static_cast<std::uint64_t>(index.n()));
      report->add_param("graph_diameter",
                        static_cast<std::uint64_t>(index.diameter()));
      report->add_param(
          "agreement_n",
          static_cast<std::uint64_t>(index.agreement_tree().n()));
      report->add_param(
          "agreement_diameter",
          static_cast<std::uint64_t>(index.agreement_tree().diameter()));
      report->add_param(
          "blocks",
          static_cast<std::uint64_t>(index.decomposition().blocks().size()));
      report->add_param(
          "cut_vertices",
          static_cast<std::uint64_t>(index.decomposition().cut_count()));
      report->add_param("engine", core::real_engine_name(opts.engine));
      report->add_param(
          "phase1_rounds",
          static_cast<std::uint64_t>(
              procs.empty() ? 0 : procs[0]->telemetry().phase1_rounds));
      // The arXiv:2502.05591 budget the convergence ledger checks against.
      report->add_param("block_round_bound",
                        static_cast<std::uint64_t>(rounds));
    }
    // Tracer chain: probe -> spans -> caller's transcript tracer (the same
    // chain as run_tree_aa, so tree-shaped runs trace identically).
    std::optional<obs::SpanTracer> span_tracer;
    sim::Tracer* chained = hooks->tracer;
    if (hooks->spans != nullptr) {
      span_tracer.emplace(*hooks->spans, chained);
      chained = &*span_tracer;
    }
    obs::ProbeTracer probe(chained);
    engine.set_tracer(&probe);
    obs::DriverSpans driver_spans(hooks->spans);
    const std::size_t phase1_rounds =
        procs.empty() ? 0 : procs[0]->telemetry().phase1_rounds;
    const auto round_name = [&](Round r) -> std::string {
      if (r <= phase1_rounds) {
        return "phase1 \xc2\xb7 round " + std::to_string(r);
      }
      const Round r2 = r - static_cast<Round>(phase1_rounds);
      static constexpr const char* kStep[3] = {"leader", "echo", "support"};
      return "phase2 \xc2\xb7 iter " + std::to_string((r2 - 1) / 3 + 1) +
             " \xc2\xb7 " + kStep[(r2 - 1) % 3];
    };
    const perf::WorkerPool* pool = engine.pool();
    perf::WorkerPool::DispatchStats pool_base;
    if (pool != nullptr && report != nullptr) pool_base = pool->stats();
    obs::Histogram* round_sink =
        report == nullptr ? nullptr
                          : &report->timing.histogram(
                                "round_wall_ns", obs::ScopeTimer::wall_bounds());
    obs::ScopeTimer run_timer(
        report == nullptr ? nullptr
                          : &report->timing.histogram(
                                "run_wall_ns", obs::ScopeTimer::wall_bounds()));
    for (std::size_t r = 0; r < rounds; ++r) {
      obs::ScopeTimer round_timer(round_sink);
      driver_spans.begin_round();
      engine.run(static_cast<Round>(1));
      driver_spans.end_round(round_name(static_cast<Round>(r + 1)));
      if (report != nullptr && probe.current() != nullptr) {
        snapshot_block_aa(index, engine, procs, inputs, *probe.current());
      }
    }
    run_timer.stop();
    engine.set_tracer(nullptr);
    if (report != nullptr) {
      report->per_round = probe.take();
      obs::fill_pool_gauges(report->timing, pool, pool_base);
    }
  } else {
    engine.run(static_cast<Round>(rounds));
  }

  BlockRunResult result;
  result.outputs.resize(n);
  std::optional<VertexId> first_tip;
  for (PartyId p = 0; p < n; ++p) {
    if (engine.is_corrupt(p)) continue;
    const auto inner = procs[p]->output();
    TREEAA_CHECK_MSG(inner.has_value(),
                     "honest party " << p << " failed to terminate");
    result.outputs[p] = resolve_block_output(index, *inner, inputs[p]);
    const auto telemetry = procs[p]->telemetry();
    if (telemetry.clamped) ++result.clamp_count;
    result.max_detected_faulty =
        std::max(result.max_detected_faulty, telemetry.detected_faulty);
    if (procs[p]->path().has_value()) {
      const VertexId tip = procs[p]->path()->back();
      if (first_tip.has_value() && *first_tip != tip) {
        result.path_split = true;
      }
      first_tip = first_tip.value_or(tip);
      if (report != nullptr) {
        report->metrics.histogram("path_length")
            .observe(static_cast<double>(procs[p]->path()->size()));
      }
    }
  }
  result.corrupt = engine.corrupt();
  result.rounds = engine.rounds_elapsed();
  result.traffic = engine.stats();
  if (report != nullptr) {
    report->set_totals(n, t, result.rounds, result.corrupt, result.traffic);
    report->metrics.counter("clamp_count").inc(result.clamp_count);
    report->add_outcome("path_split", result.path_split);
    report->add_outcome("clamp_count",
                        static_cast<std::uint64_t>(result.clamp_count));
    report->add_outcome(
        "max_detected_faulty",
        static_cast<std::uint64_t>(result.max_detected_faulty));
  }
  return result;
}

}  // namespace treeaa::graphs
