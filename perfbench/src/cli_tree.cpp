// cli_tree20k: each op does what one `treeaa_cli run <file> --t 2 --inputs
// ...` does — read a 20k-vertex tree file, parse it, run TreeAA with n = 7,
// check Validity and 1-Agreement. Tree loading dominates this workload, so
// tree-index and parser work moves it and engine or codec work barely does.
#include <algorithm>
#include <fstream>
#include <iterator>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "common/rng.h"
#include "core/api.h"
#include "harness/runner.h"
#include "perf/tree_index.h"
#include "trees/generators.h"
#include "trees/serialization.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTailCap = 90.0;  // latency_tail_ms percentile

constexpr std::size_t kParties = 7;
constexpr std::size_t kFaults = 2;

struct TreeFile {
  std::string path;
  std::vector<std::string> input_labels;  // what --inputs would carry
  std::string summary;  // family, size, diameter, degree of the root
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// Writes `tree` in the text format with labels permuted and edge lines
// shuffled by `rng`, so every family (not only the random one) gives a
// different file, root choice and Euler order per seed.
void write_shuffled(const treeaa::LabeledTree& tree, treeaa::Rng& rng,
                    const std::string& path) {
  const std::size_t n = tree.n();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  rng.shuffle(perm);
  const std::size_t width = std::to_string(n).size();
  const auto label = [&](treeaa::VertexId v) {
    std::string s = std::to_string(perm[v]);
    return "u" + std::string(width - s.size(), '0') + s;
  };
  std::vector<std::string> lines;
  lines.reserve(n);
  for (treeaa::VertexId v = 1; v < n; ++v) {
    lines.push_back("edge " + label(tree.parent(v)) + " " + label(v) + "\n");
  }
  rng.shuffle(lines);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  for (const auto& l : lines) out << l;
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Generates the three tree files (random, caterpillar, binary) and derives
// each file's --inputs list by parsing it back: the parties alternate
// between the ends of a diametral path (the round-count worst case).
std::vector<TreeFile> make_files(const Options& opts) {
  const std::size_t size = opts.tiny ? 600 : 20000;
  const treeaa::TreeFamily families[] = {treeaa::TreeFamily::kRandom,
                                         treeaa::TreeFamily::kCaterpillar,
                                         treeaa::TreeFamily::kBinary};
  std::vector<TreeFile> files;
  for (std::size_t i = 0; i < 3; ++i) {
    treeaa::Rng rng(derive(opts.seed, 100 + i));
    TreeFile f;
    f.path = opts.work_dir + "/tree" + std::to_string(i) + ".txt";
    write_shuffled(treeaa::make_family_tree(families[i], size, rng), rng,
                   f.path);
    const auto tree = treeaa::tree_from_text(read_file(f.path));
    for (treeaa::VertexId v :
         treeaa::harness::spread_vertex_inputs(tree, kParties)) {
      f.input_labels.push_back(tree.label(v));
    }
    f.summary = std::string(treeaa::tree_family_name(families[i])) + " n=" +
                std::to_string(tree.n()) + " D=" +
                std::to_string(tree.diameter()) +
                " root_degree=" + std::to_string(tree.degree(tree.root()));
    files.push_back(std::move(f));
  }
  return files;
}

std::vector<treeaa::VertexId> resolve(const treeaa::LabeledTree& tree,
                                      const std::vector<std::string>& labels) {
  std::vector<treeaa::VertexId> inputs;
  for (const auto& l : labels) {
    const auto v = tree.find(l);
    if (!v.has_value()) throw std::runtime_error("no vertex labeled " + l);
    inputs.push_back(*v);
  }
  return inputs;
}

std::vector<treeaa::VertexId> honest_inputs(
    const treeaa::core::RunResult& result,
    const std::vector<treeaa::VertexId>& inputs) {
  std::vector<treeaa::VertexId> honest;
  for (std::size_t p = 0; p < inputs.size(); ++p) {
    if (result.outputs[p].has_value()) honest.push_back(inputs[p]);
  }
  return honest;
}

// Per-layer seconds of one traced op.
struct Split {
  double wall = 0, parse = 0, run = 0, index = 0, check = 0;
  double phase[4] = {0, 0, 0, 0};
};

}  // namespace

void run_cli_tree(const Options& opts, Report& report) {
  std::vector<TreeFile> files;
  Setup setup([&] { files = make_files(opts); });
  setup.rep();

  Counts counts;
  // The untraced op: exactly the CLI's sequence of library calls.
  const auto op = [&](std::size_t i) {
    const TreeFile& f = files[i % files.size()];
    const auto tree = treeaa::tree_from_text(read_file(f.path));
    const auto inputs = resolve(tree, f.input_labels);
    const auto result = treeaa::core::run_tree_aa(tree, inputs, kFaults);
    const auto check = treeaa::core::check_agreement(
        tree, honest_inputs(result, inputs), result.honest_outputs());
    if (i < files.size()) {
      ++counts.ops;
      counts.rounds += result.rounds;
      counts.msgs += result.traffic.total_messages();
      counts.bytes += result.traffic.total_bytes();
    }
    return outcome(check.ok());
  };

  if (!opts.trace) {
    const LoopStats loop = closed_loop(opts.seconds, files.size(), op, &setup);
    report_end_to_end(report, loop, setup.median_s(), counts, kTailCap);
    for (const TreeFile& f : files) report.note("tree file: " + f.summary);
    return;
  }

  // Traced op: the same calls, with check_agreement(tree, ...) split into
  // the TreeIndex build it performs internally and the indexed check.
  std::vector<Split> splits;
  const auto traced_op = [&](std::size_t i) {
    Split s;
    const double t0 = now_s();
    const TreeFile& f = files[i % files.size()];
    const std::string text = read_file(f.path);
    const double t1 = now_s();
    const auto tree = treeaa::tree_from_text(text);
    const double t2 = now_s();
    const auto inputs = resolve(tree, f.input_labels);
    PhaseTimer phases;
    treeaa::obs::Hooks hooks;
    hooks.tracer = &phases;
    const double t3 = now_s();
    const auto result =
        treeaa::core::run_tree_aa(tree, inputs, kFaults, {}, nullptr, &hooks);
    const double t4 = now_s();
    const treeaa::perf::TreeIndex index(tree);
    const double t5 = now_s();
    const auto check = treeaa::core::check_agreement(
        index, honest_inputs(result, inputs), result.honest_outputs());
    const double t6 = now_s();
    s.parse = t2 - t1;
    s.run = t4 - t3;
    s.index = t5 - t4;
    s.check = t6 - t5;
    s.wall = t6 - t0;
    for (int p = 0; p < 4; ++p) {
      s.phase[p] = phases.seconds(static_cast<sim::Phase>(p));
    }
    splits.push_back(s);
    return outcome(check.ok());
  };

  const LoopStats plain = closed_loop(opts.seconds / 2, files.size(), op);
  const LoopStats traced =
      closed_loop(opts.seconds / 2, files.size(), traced_op);
  report.count_ops(plain.attempted + traced.attempted,
                   plain.failed + traced.failed);

  const auto avg_ms = [&](auto field) {
    std::vector<double> v;
    for (const Split& s : splits) v.push_back(field(s) * 1e3);
    return mean(v);
  };
  const double wall = avg_ms([](const Split& s) { return s.wall; });
  const double parse = avg_ms([](const Split& s) { return s.parse; });
  const double run = avg_ms([](const Split& s) { return s.run; });
  const double index = avg_ms([](const Split& s) { return s.index; });
  const double check = avg_ms([](const Split& s) { return s.check; });
  double engine = 0.0;
  const char* phase_metrics[4] = {"sim.send_ms", "sim.adversary_ms",
                                  "sim.sort_ms", "sim.handle_ms"};
  for (int p = 0; p < 4; ++p) {
    const double ms = avg_ms([p](const Split& s) { return s.phase[p]; });
    engine += ms;
    report.metric(phase_metrics[p], ms, "ms");
  }
  report.metric("trees.parse_ms", parse, "ms");
  report.metric("perf.index_ms", index, "ms");
  report.metric("core.run_ms", run, "ms");
  report.metric("core.check_ms", check, "ms");
  report.metric("core.outside_engine_ms", run - engine, "ms");
  report.metric("trees.load_share", parse / wall, "ratio");
  report.metric("obs.trace_overhead.cli_tree20k",
                median(traced.latency_ms) / median(plain.latency_ms) - 1.0,
                "ratio");
  report.metric("obs.coverage.cli_tree20k",
                (parse + run + index + check) / wall, "ratio");
}

}  // namespace perfbench
