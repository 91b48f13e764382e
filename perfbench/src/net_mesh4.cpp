// net_mesh4: each op is one in-process net::run_tree_aa_net deployment
// (n = 4, t = 1, 1000-vertex tree) with the sim cross-check on — the only
// workload that runs the socket runtime: gather send, round barrier and
// fault layer. Clean deployments alternate with faulty ones that stay
// within the fault budget by construction (a crash with no Byzantine party;
// duplication and reordering, which lose no message; one fuzzing party).
// The four party threads share one CPU (see pin_to_one_cpu).
#include <cstdio>
#include <map>

#include "common/rng.h"
#include "core/tree_aa.h"
#include "harness/runner.h"
#include "net/deploy.h"
#include "trees/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTailCap = 90.0;  // latency_tail_ms percentile

namespace net = treeaa::net;

constexpr std::size_t kParties = 4;
constexpr std::size_t kFaults = 1;
constexpr std::size_t kCycle = 32;  // deployments per cycle, 4 of each kind

struct Deployment {
  std::vector<treeaa::VertexId> inputs;
  net::DeployConfig cfg;
  bool clean = false;
};

struct Mesh {
  std::optional<treeaa::LabeledTree> tree;
  std::vector<Deployment> ops;  // one cycle, run in order
};

Mesh make_mesh(const Options& opts) {
  treeaa::Rng rng(derive(opts.seed, 500));
  Mesh m;
  m.tree.emplace(treeaa::make_random_tree(opts.tiny ? 100 : 1000, rng));
  const std::size_t rounds =
      treeaa::core::tree_aa_rounds(*m.tree, kParties, kFaults, {});
  for (std::size_t i = 0; i < kCycle; ++i) {
    Deployment d;
    d.inputs = treeaa::harness::random_vertex_inputs(*m.tree, kParties, rng);
    d.cfg.seed = rng.next();
    d.clean = i % 2 == 0;
    switch (i % 8) {
      case 1: {
        net::FaultPlan::Crash crash;
        crash.party = static_cast<treeaa::PartyId>(rng.index(kParties));
        crash.round = static_cast<treeaa::Round>(rng.uniform(1, rounds));
        d.cfg.faults.crashes.push_back(crash);
        d.cfg.corrupt_count = 0;
        break;
      }
      case 3:
        d.cfg.faults.duplicate = 0.2;
        d.cfg.corrupt_count = 0;
        break;
      case 5:
        d.cfg.faults.reorder = 0.5;
        d.cfg.corrupt_count = 0;
        break;
      case 7:
        d.cfg.adversary = net::AdversaryKind::kFuzz;
        d.cfg.corrupt_count = 1;
        break;
      default:
        break;
    }
    m.ops.push_back(std::move(d));
  }
  return m;
}

bool passed(const Deployment& d, const net::DeployResult& r) {
  return r.ok() && (!d.clean || r.report.totals.payload_copies == 0);
}

struct NetSplit {
  double wall = 0, send = 0, barrier = 0, handle = 0, replay = 0;
};

// Per-party means of the runtime's send / barrier / handle spans, and the
// cross-check replay's extent, from one deployment's span sink.
NetSplit split_of(const obs::SpanSink& sink) {
  NetSplit s;
  std::map<std::string, double> per_track;
  double replay_begin = -1.0, replay_end = 0.0;
  std::size_t parties = 0;
  for (const Span& span : read_spans(sink)) {
    if (span.track.rfind("net/party ", 0) == 0) {
      if (per_track.emplace(span.track, 0.0).second) ++parties;
      if (span.name == "send") s.send += span.dur_ns;
      if (span.name == "barrier") s.barrier += span.dur_ns;
      if (span.name == "handle") s.handle += span.dur_ns;
    } else if (span.track.rfind("replay ", 0) == 0) {
      if (replay_begin < 0 || span.begin_ns < replay_begin) {
        replay_begin = span.begin_ns;
      }
      replay_end = std::max(replay_end, span.begin_ns + span.dur_ns);
    }
  }
  const double p = static_cast<double>(std::max<std::size_t>(parties, 1));
  s.send /= p * 1e9;
  s.barrier /= p * 1e9;
  s.handle /= p * 1e9;
  s.replay = replay_begin < 0 ? 0.0 : (replay_end - replay_begin) * 1e-9;
  return s;
}

}  // namespace

void run_net_mesh4(const Options& opts, Report& report) {
  pin_to_one_cpu();
  Mesh mesh;
  // Set-up: generate the tree and the deployment cycle, then deploy the
  // whole cycle once — it warms the socket and thread paths and refuses a
  // cycle that would fail before any timing starts.
  Setup setup([&] {
    mesh = make_mesh(opts);
    for (const Deployment& d : mesh.ops) {
      if (!passed(d, net::run_tree_aa_net(*mesh.tree, d.inputs, kFaults,
                                          d.cfg))) {
        throw std::runtime_error("warm-up deployment failed: " +
                                 d.cfg.faults.describe());
      }
    }
  });
  setup.rep();

  Counts counts;
  double frames = 0, copies = 0, duplicated = 0;
  const auto op = [&](std::size_t i) {
    const Deployment& d = mesh.ops[i % kCycle];
    const auto r = net::run_tree_aa_net(*mesh.tree, d.inputs, kFaults, d.cfg);
    if (i < kCycle) {
      ++counts.ops;
      counts.rounds += r.rounds;
      counts.msgs += r.report.totals.frames_sent;
      counts.bytes += r.report.totals.bytes_sent;
      frames += static_cast<double>(r.report.totals.frames_sent);
      copies += static_cast<double>(r.report.totals.payload_copies);
      duplicated += static_cast<double>(r.report.totals.duplicated);
    }
    const bool ok = passed(d, r);
    if (!ok) {
      std::fprintf(stderr, "deployment %zu (%s) failed\n", i % kCycle,
                   d.cfg.faults.describe().c_str());
    }
    return outcome(ok);
  };

  if (!opts.trace) {
    const LoopStats loop = closed_loop(opts.seconds, kCycle, op, &setup);
    report_end_to_end(report, loop, setup.median_s(), counts, kTailCap);
    return;
  }

  std::vector<NetSplit> splits;
  const auto traced_op = [&](std::size_t i) {
    const Deployment& d = mesh.ops[i % kCycle];
    obs::SpanSink sink;
    net::DeployConfig cfg = d.cfg;
    cfg.spans = &sink;
    const double t0 = now_s();
    const auto r = net::run_tree_aa_net(*mesh.tree, d.inputs, kFaults, cfg);
    const double wall = now_s() - t0;
    NetSplit s = split_of(sink);
    s.wall = wall;
    splits.push_back(s);
    return outcome(passed(d, r));
  };

  const LoopStats plain = closed_loop(opts.seconds / 2, kCycle, op);
  const LoopStats traced = closed_loop(opts.seconds / 2, kCycle, traced_op);
  report.count_ops(plain.attempted + traced.attempted,
                   plain.failed + traced.failed);

  const auto avg_ms = [&](auto field) {
    std::vector<double> v;
    for (const NetSplit& s : splits) v.push_back(field(s) * 1e3);
    return mean(v);
  };
  const double wall = avg_ms([](const NetSplit& s) { return s.wall; });
  const double send = avg_ms([](const NetSplit& s) { return s.send; });
  const double barrier = avg_ms([](const NetSplit& s) { return s.barrier; });
  const double handle = avg_ms([](const NetSplit& s) { return s.handle; });
  const double replay = avg_ms([](const NetSplit& s) { return s.replay; });
  const double cycle = static_cast<double>(kCycle);
  report.metric("net.send_ms", send, "ms");
  report.metric("net.barrier_wait_ms", barrier, "ms");
  report.metric("net.handle_ms", handle, "ms");
  report.metric("net.barrier_share", barrier / (send + barrier + handle),
                "ratio");
  report.metric("net.replay_ms", replay, "ms");
  report.metric("net.frames_per_op", frames / cycle, "count");
  report.metric("net.payload_copies_per_op", copies / cycle, "count");
  report.metric("net.duplicated_per_op", duplicated / cycle, "count");
  report.metric("obs.trace_overhead.net_mesh4",
                median(traced.latency_ms) / median(plain.latency_ms) - 1.0,
                "ratio");
  report.metric("obs.coverage.net_mesh4",
                (send + barrier + handle + replay) / wall, "ratio");
}

}  // namespace perfbench
