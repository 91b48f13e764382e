// sweep_grid: each op is one exp::run_sweep over a fixed grid shaped like
// examples/sweeps/stress_grid.json plus block_aa cells, on kWorkers cell
// workers. Thousands of small runs put the work in the engine phases, the
// gradecast and realaa codecs, the adversaries and the sweep scheduler; the
// tree layer does almost nothing here.
#include <cstdio>
#include <map>
#include <sstream>

#include "common/rng.h"
#include "core/paths_finder.h"
#include "exp/scheduler.h"
#include "exp/sweep.h"
#include "gradecast/wire.h"
#include "graphs/block_index.h"
#include "graphs/generators.h"
#include "harness/adversary_spec.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "realaa/wire.h"
#include "sim/strategies.h"
#include "trees/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTailCap = 90.0;  // latency_tail_ms percentile

namespace exp = treeaa::exp;
namespace harness = treeaa::harness;
using treeaa::Bytes;

/// Cell workers of every sweep (at most nproc on the reference host).
constexpr std::size_t kWorkers = 4;

// The grid, as the JSON document a user would hand to treeaa_sweep. Only
// the sweep seed depends on --seed; the axes are fixed.
std::string grid_json(const Options& opts) {
  const std::uint64_t seed = derive(opts.seed, 200) % 1000000007;
  const int repeats = opts.tiny ? 1 : 4;
  const char* tree_sizes = opts.tiny ? "[12]" : "[20, 60]";
  const char* graph_sizes = opts.tiny ? "[10]" : "[16, 40]";
  const char* real_range = opts.tiny ? "[64]" : "[4096]";
  std::ostringstream s;
  s << R"({"name": "perfbench-sweep-grid", "seed": )" << seed
    << R"(, "repeats": )" << repeats << R"(, "scenarios": [
  {"protocols": ["tree_aa"],
   "tree": {"families": ["path", "star", "random", "chainy"], "sizes": )"
    << tree_sizes << R"(, "chain_bias": 0.9},
   "n": [7, 10], "t": "max",
   "adversaries": ["none", "silent", "fuzz", "split"], "inputs": "random"},
  {"protocols": ["real_aa"], "range": )"
    << real_range << R"(, "eps": [1], "n": [13], "t": "max",
   "adversaries": ["none", "silent", "fuzz", "split"], "inputs": "random"},
  {"protocols": ["iterated_real_aa"], "range": )"
    << real_range << R"(, "eps": [1], "n": [13], "t": "max",
   "adversaries": ["none", "silent", "fuzz"], "inputs": "random"},
  {"protocols": ["block_aa"],
   "graph": {"families": ["clique_chain", "block_random", "cactus"], "sizes": )"
    << graph_sizes << R"(},
   "n": [7], "t": "max",
   "adversaries": ["none", "silent", "fuzz", "split"], "inputs": "spread"}
]})";
  return s.str();
}

struct Grid {
  exp::SweepSpec spec;
  std::vector<exp::Cell> cells;
};

Grid make_grid(const Options& opts) {
  Grid g;
  g.spec = exp::spec_from_json(grid_json(opts));
  g.cells = exp::expand(g.spec);
  return g;
}

exp::SweepOptions sweep_options() {
  exp::SweepOptions o;
  o.threads = kWorkers;
  return o;
}

// --- Grid-shaped replays for the engine-phase split and codec capture ----
//
// run_cell takes no hooks, so the phase split and the wire payloads come
// from runs of the grid's own shapes (protocol, family, size, n, t,
// adversary) driven through harness::run_protocol with a tracer attached.

class CapturingPhaseTimer final : public sim::Tracer {
 public:
  void on_phase_begin(treeaa::Round r, sim::Phase p) override {
    phases.on_phase_begin(r, p);
  }
  void on_phase_end(treeaa::Round r, sim::Phase p) override {
    phases.on_phase_end(r, p);
  }
  void on_queued(const sim::Envelope& e, bool adversarial) override {
    if (!adversarial && captured.size() < kCap) {
      captured.push_back(e.payload.bytes());
    }
  }
  static constexpr std::size_t kCap = 60000;
  PhaseTimer phases;
  std::vector<Bytes> captured;
};

struct Captured {
  std::size_t n = 0;
  bool real = false;  // from a real_aa run: gradecast values are reals
  Bytes msg;
};

harness::AdversarySpec adversary_for(const exp::Cell& cell,
                                     treeaa::Rng& rng) {
  harness::AdversarySpec a;
  a.kind = cell.adversary;
  a.victims = sim::random_parties(cell.n, cell.t, rng);
  a.fuzz_seed = rng.next();
  return a;
}

std::vector<treeaa::PartyId> last_parties(std::size_t n, std::size_t t) {
  std::vector<treeaa::PartyId> out;
  for (std::size_t i = 0; i < t; ++i) {
    out.push_back(static_cast<treeaa::PartyId>(n - 1 - i));
  }
  return out;
}

treeaa::LabeledTree shaped_tree(const exp::Cell& cell, treeaa::Rng& rng) {
  if (cell.family == "path") return treeaa::make_path(cell.tree_size);
  if (cell.family == "star") return treeaa::make_star(cell.tree_size);
  if (cell.family == "chainy") {
    return treeaa::make_random_chainy_tree(cell.tree_size, rng,
                                           cell.chain_bias);
  }
  return treeaa::make_random_tree(cell.tree_size, rng);
}

treeaa::graphs::Graph shaped_graph(const exp::Cell& cell, treeaa::Rng& rng) {
  for (const auto f : treeaa::graphs::all_graph_families()) {
    if (cell.family == treeaa::graphs::graph_family_name(f)) {
      return treeaa::graphs::make_family_graph(f, cell.tree_size, rng);
    }
  }
  throw std::invalid_argument("unknown graph family " + cell.family);
}

// Runs one cell shape with `tracer` attached; appends its honest payloads.
void replay_shape(const exp::Cell& cell, std::uint64_t seed,
                  CapturingPhaseTimer& tracer, std::vector<Captured>& out) {
  treeaa::Rng rng(seed);
  harness::RunSpec spec;
  spec.protocol = cell.protocol;
  spec.n = cell.n;
  spec.t = cell.t;
  harness::AdversarySpec adv = adversary_for(cell, rng);
  std::optional<treeaa::LabeledTree> tree;
  std::optional<treeaa::graphs::BlockIndex> index;
  std::optional<treeaa::graphs::Graph> graph;
  const bool split = cell.adversary == harness::AdversaryKind::kSplit;
  if (split) adv.victims = last_parties(cell.n, cell.t);
  if (harness::is_graph_protocol(cell.protocol)) {
    graph.emplace(shaped_graph(cell, rng));
    index.emplace(*graph);
    spec.block_index = &*index;
    const auto [a, b] = index->diameter_endpoints();
    for (std::size_t i = 0; i < cell.n; ++i) {
      spec.vertex_inputs.push_back(i % 2 == 0 ? a : b);
    }
    if (split) {
      adv.split_config = treeaa::core::paths_finder_config(
          index->agreement_tree(), cell.n, cell.t, {});
    }
  } else if (harness::is_vertex_protocol(cell.protocol)) {
    tree.emplace(shaped_tree(cell, rng));
    spec.tree = &*tree;
    spec.vertex_inputs = harness::random_vertex_inputs(*tree, cell.n, rng);
    if (split) {
      adv.split_config =
          treeaa::core::paths_finder_config(*tree, cell.n, cell.t, {});
    }
  } else {
    spec.real_inputs =
        harness::random_real_inputs(cell.n, 0.0, cell.known_range, rng);
    spec.eps = cell.eps;
    spec.known_range = cell.known_range;
    if (split) {
      adv.split_config.n = cell.n;
      adv.split_config.t = cell.t;
      adv.split_config.eps = cell.eps;
      adv.split_config.known_range = cell.known_range;
    }
  }
  spec.adversary = harness::make_adversary(adv);
  treeaa::obs::Hooks hooks;
  hooks.tracer = &tracer;
  spec.hooks = &hooks;
  const std::size_t before = tracer.captured.size();
  (void)harness::run_protocol(std::move(spec));
  for (std::size_t i = before; i < tracer.captured.size(); ++i) {
    out.push_back(Captured{cell.n,
                           cell.protocol == harness::ProtocolKind::kRealAA,
                           std::move(tracer.captured[i])});
  }
  tracer.captured.clear();
}

// Decoded gradecast messages, ready to re-encode.
struct Decoded {
  std::uint8_t tag = 0;
  Bytes leader;
  std::vector<treeaa::gradecast::Slot> slots;
};

std::uint64_t g_sink = 0;  // keeps timed codec results observable

struct CodecSplit {
  double encode_ns = 0.0, decode_ns = 0.0, real_decode_ns = 0.0;
  std::size_t gradecast_msgs = 0, real_values = 0;
};

CodecSplit time_codecs(const std::vector<Captured>& captured) {
  namespace gc = treeaa::gradecast;
  std::vector<const Captured*> msgs;
  std::vector<Decoded> decoded;
  std::vector<Bytes> real_values;
  for (const Captured& c : captured) {
    if (c.msg.empty()) continue;
    Decoded d;
    d.tag = c.msg[0];
    if (d.tag == gc::kTagLeader) {
      auto v = gc::decode_leader(c.msg);
      if (!v.has_value()) continue;
      d.leader = *v;
      if (c.real) real_values.push_back(*v);
    } else if (d.tag == gc::kTagEcho || d.tag == gc::kTagSupport) {
      auto s = gc::decode_slots(d.tag, c.msg, c.n);
      if (!s.has_value()) continue;
      d.slots = std::move(*s);
      if (c.real) {
        for (const auto& slot : d.slots) {
          if (slot.has_value()) real_values.push_back(*slot);
        }
      }
    } else {
      continue;
    }
    msgs.push_back(&c);
    decoded.push_back(std::move(d));
  }
  CodecSplit split;
  split.gradecast_msgs = msgs.size();
  split.real_values = real_values.size();
  if (msgs.empty()) return split;
  std::vector<gc::SlotView> views;
  split.decode_ns = time_per_call(0.2, [&] {
    for (const Captured* c : msgs) {
      const std::uint8_t tag = c->msg[0];
      if (tag == gc::kTagLeader) {
        g_sink += gc::decode_leader_view(c->msg)->size();
      } else {
        views.resize(c->n);
        g_sink += gc::decode_slots_view(tag, c->msg, views) ? 1 : 0;
      }
    }
  }) * 1e9 / static_cast<double>(msgs.size());
  split.encode_ns = time_per_call(0.2, [&] {
    for (const Decoded& d : decoded) {
      g_sink += d.tag == gc::kTagLeader ? gc::encode_leader(d.leader).size()
                                        : gc::encode_slots(d.tag, d.slots).size();
    }
  }) * 1e9 / static_cast<double>(decoded.size());
  if (!real_values.empty()) {
    split.real_decode_ns = time_per_call(0.2, [&] {
      for (const Bytes& b : real_values) {
        g_sink += treeaa::realaa::decode_value(b).has_value() ? 1 : 0;
      }
    }) * 1e9 / static_cast<double>(real_values.size());
  }
  return split;
}

std::string protocol_key(const exp::Cell& c) {
  return treeaa::harness::protocol_name(c.protocol);
}
std::string adversary_key(const exp::Cell& c) {
  return std::string("adv_") + treeaa::harness::adversary_name(c.adversary);
}

}  // namespace

void run_sweep_grid(const Options& opts, Report& report) {
  Grid grid;
  const exp::SweepOptions sweep_opts = sweep_options();
  // Set-up: write and parse the grid spec, expand it, and run one warm-up
  // sweep (worker threads, allocator and page cache reach steady state).
  Setup setup([&] {
    grid = make_grid(opts);
    (void)exp::run_sweep(grid.spec, grid.cells, sweep_opts);
  });
  setup.rep();

  Counts counts;
  const auto op = [&](std::size_t i) {
    const exp::SweepResult result =
        exp::run_sweep(grid.spec, grid.cells, sweep_opts);
    OpOutcome out;
    out.units = result.cells.size();
    for (const auto& cell : result.cells) {
      if (!cell.aa_ok()) {
        ++out.failed;
        std::fprintf(stderr, "cell %zu failed: %s\n", cell.cell.index,
                     cell.error.c_str());
      }
      if (i == 0) {
        ++counts.ops;
        counts.rounds += cell.rounds;
        counts.msgs += cell.honest_messages + cell.adversary_messages;
        counts.bytes += cell.honest_bytes + cell.adversary_bytes;
      }
    }
    return out;
  };

  if (!opts.trace) {
    const LoopStats loop = closed_loop(opts.seconds, 1, op, &setup);
    report_end_to_end(report, loop, setup.median_s(), counts, kTailCap);
    char line[96];
    std::snprintf(line, sizeof line, "grid: %zu cells per sweep, %zu workers",
                  grid.cells.size(), kWorkers);
    report.note(line);
    return;
  }

  // exp.expand_ms: the grid expansion alone.
  const double expand_ms =
      time_per_call(0.05, [&] { g_sink += exp::expand(grid.spec).size(); }) *
      1e3;

  // Traced op: the same parallel schedule as run_sweep, each cell timed.
  std::vector<double> cell_s(grid.cells.size());
  double traced_cell_s = 0.0, traced_wall_s = 0.0;
  const auto traced_op = [&](std::size_t) {
    exp::ScheduleOptions sched;
    sched.threads = kWorkers;
    std::vector<std::uint8_t> ok(grid.cells.size(), 0);
    const double t0 = now_s();
    exp::parallel_for(grid.cells.size(), sched, [&](std::size_t c) {
      const double c0 = now_s();
      ok[c] = exp::run_cell(grid.spec, grid.cells[c]).aa_ok() ? 1 : 0;
      cell_s[c] = now_s() - c0;
    });
    traced_wall_s += now_s() - t0;
    OpOutcome out;
    out.units = grid.cells.size();
    for (std::size_t c = 0; c < ok.size(); ++c) {
      traced_cell_s += cell_s[c];
      if (ok[c] == 0) ++out.failed;
    }
    return out;
  };

  const LoopStats plain = closed_loop(opts.seconds / 4, 1, op);
  const LoopStats traced = closed_loop(opts.seconds / 4, 1, traced_op);
  report.count_ops(plain.attempted + traced.attempted,
                   plain.failed + traced.failed);

  // Serial pass: uncontended cell cost per protocol and adversary kind.
  std::map<std::string, std::vector<double>> by_key;
  double serial_s = 0.0;
  for (const exp::Cell& cell : grid.cells) {
    const double c0 = now_s();
    const bool ok = exp::run_cell(grid.spec, cell).aa_ok();
    const double dt = now_s() - c0;
    if (!ok) report.fail_check("serial cell " + std::to_string(cell.index));
    serial_s += dt;
    by_key[protocol_key(cell)].push_back(dt * 1e3);
    by_key[adversary_key(cell)].push_back(dt * 1e3);
  }
  for (const auto& [key, ms] : by_key) {
    report.metric("exp.cell_ms." + key, mean(ms), "ms");
  }

  // Engine phases and wire payloads from one replay of every cell shape
  // (the first repeat of the grid).
  CapturingPhaseTimer tracer;
  std::vector<Captured> captured;
  std::size_t shapes = 0;
  double replay_s = 0.0;
  for (const exp::Cell& cell : grid.cells) {
    if (cell.repeat != 0) continue;
    const double c0 = now_s();
    replay_shape(cell, derive(opts.seed, 300 + cell.index), tracer, captured);
    replay_s += now_s() - c0;
    ++shapes;
  }
  const char* phase_metrics[4] = {"sim.send_ms", "sim.adversary_ms",
                                  "sim.sort_ms", "sim.handle_ms"};
  double engine_s = 0.0;
  for (int p = 0; p < 4; ++p) {
    const double s = tracer.phases.seconds(static_cast<sim::Phase>(p));
    engine_s += s;
    report.metric(phase_metrics[p], s * 1e3 / static_cast<double>(shapes),
                  "ms");
  }
  const CodecSplit codecs = time_codecs(captured);

  const double workers = static_cast<double>(kWorkers);
  report.metric("exp.expand_ms", expand_ms, "ms");
  report.metric("exp.parallel_efficiency",
                serial_s / (median(plain.latency_ms) * 1e-3 * workers),
                "ratio");
  report.metric("gradecast.encode_ns_per_msg", codecs.encode_ns, "ns");
  report.metric("gradecast.decode_ns_per_msg", codecs.decode_ns, "ns");
  report.metric("realaa.decode_ns_per_msg", codecs.real_decode_ns, "ns");
  report.metric("obs.trace_overhead.sweep_grid",
                median(traced.latency_ms) / median(plain.latency_ms) - 1.0,
                "ratio");
  report.metric("obs.coverage.sweep_grid",
                traced_cell_s / (traced_wall_s * workers), "ratio");
  char line[200];
  std::snprintf(line, sizeof line,
                "replayed %zu cell shapes: engine phases %.1f%% of %.1f ms; "
                "%zu gradecast msgs, %zu realaa values",
                shapes, 100.0 * engine_s / replay_s, replay_s * 1e3,
                codecs.gradecast_msgs, codecs.real_values);
  report.note(line);
}

}  // namespace perfbench
