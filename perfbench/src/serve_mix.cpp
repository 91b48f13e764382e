// serve_mix: an in-process serve::Server (default options, threads = 1) on
// a Unix socket, loaded by kConnections serve::Client connections that each
// keep kWindow sessions outstanding. Small tree_aa / real_aa / block_aa
// sessions make the event loop, framing and reply path the main cost; about
// 1% of sessions run tree_aa on a 20k-vertex tree, rebuild its TreeIndex and
// block the loop, so the same serve layer shows up in the tail. The server's
// loop thread and the clients share one CPU (see pin_to_one_cpu).
#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "graphs/generators.h"
#include "net/frame.h"
#include "perf/tree_index.h"
#include "serve/client.h"
#include "serve/instance.h"
#include "serve/server.h"
#include "trees/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr double kTailCap = 99.0;  // latency_tail_ms percentile

namespace serve = treeaa::serve;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kWindow = 8;
constexpr std::size_t kBigEvery = 100;  // one session in 100 is big
constexpr double kStallS = 60.0;        // give up on a silent daemon

serve::Catalog make_catalog(const Options& opts) {
  treeaa::Rng rng(derive(opts.seed, 400));
  serve::Catalog catalog;
  catalog.add_tree("small", treeaa::make_random_tree(200, rng));
  catalog.add_graph("blocks",
                    treeaa::graphs::make_family_graph(
                        treeaa::graphs::GraphFamily::kBlockRandom, 40, rng));
  catalog.add_tree("big",
                   treeaa::make_random_tree(opts.tiny ? 2000 : 20000, rng));
  return catalog;
}

// The fixed, seeded request cycle: index j % kBigEvery == kBigEvery / 2 is
// a big-tree session, the rest rotate over the three small kinds.
std::vector<serve::OpenRequest> make_mix(const Options& opts) {
  treeaa::Rng rng(derive(opts.seed, 401));
  const std::size_t length = opts.tiny ? kBigEvery : 4 * kBigEvery;
  const char* adversaries[] = {"none", "silent", "fuzz"};
  std::vector<serve::OpenRequest> mix;
  for (std::size_t j = 0; j < length; ++j) {
    serve::OpenRequest r;
    r.tenant = "tenant" + std::to_string(j % 4);
    r.n = 7;
    r.t = 2;
    r.seed = rng.next();
    r.adversary = adversaries[rng.index(3)];
    r.corrupt = r.adversary == std::string("none") ? 0 : rng.uniform(1, r.t);
    r.inputs = rng.index(2) == 0 ? serve::InputKind::kSpread
                                 : serve::InputKind::kRandom;
    if (j % kBigEvery == kBigEvery / 2) {
      r.protocol = "tree_aa";
      r.topology = "big";
    } else if (j % 3 == 0) {
      r.protocol = "tree_aa";
      r.topology = "small";
    } else if (j % 3 == 1) {
      r.protocol = "real_aa";
      r.known_range = 1024.0;
    } else {
      r.protocol = "block_aa";
      r.topology = "blocks";
    }
    mix.push_back(std::move(r));
  }
  return mix;
}

bool is_big(const serve::OpenRequest& r) { return r.topology == "big"; }

// The daemon: the server's event loop on its own thread plus the client
// connections. Destruction drains the server and joins the thread.
class Daemon {
 public:
  Daemon(serve::Catalog catalog, const std::string& socket_path,
         obs::SpanSink* spans) {
    serve::ServerOptions so;
    so.unix_path = socket_path;
    so.spans = spans;
    server_ = std::make_unique<serve::Server>(std::move(catalog), so);
    thread_ = std::thread([this] {
      try {
        server_->run();
      } catch (const std::exception& e) {
        std::cerr << "serve loop threw: " << e.what() << "\n";
        failed_ = true;
      }
    });
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.push_back(serve::Client::connect_unix(socket_path));
    }
  }
  ~Daemon() {
    clients.clear();
    server_->request_drain();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] bool healthy() const { return !failed_ && server_->clean(); }

  std::vector<serve::Client> clients;

 private:
  std::unique_ptr<serve::Server> server_;
  std::atomic<bool> failed_{false};
  std::thread thread_;
};

// Returned outputs_hash values per request index: hash -> sessions.
using Hashes = std::vector<std::map<std::uint64_t, std::uint64_t>>;

// Open and reply times of one ok session on the span sink's clock.
struct Timed {
  double open_ns = 0.0;
  double recv_ns = 0.0;
};

struct Window {
  LoopStats loop;
  Hashes hashes;
  std::vector<Timed> timed;  // traced runs only
  std::uint64_t ok = 0;      // sessions that returned ok results
  std::uint64_t rejects = 0;
};

std::uint64_t frame_bytes(std::uint64_t session_id, std::uint8_t kind,
                          treeaa::Bytes payload) {
  treeaa::Bytes out;
  treeaa::net::append_wire_session_frame(
      out, treeaa::net::SessionFrame{treeaa::net::kSessionVersion, session_id,
                                     kind, std::move(payload)});
  return out.size();
}

// Keeps kWindow sessions in flight on every connection until `seconds`
// pass (and, when `counts` is given, until the whole request cycle has been
// issued, so the counts always cover it), then waits for the stragglers.
// `clock` (traced runs) timestamps opens and replies on the span sink's
// clock.
Window run_window(Daemon& d, const std::vector<serve::OpenRequest>& mix,
                  double seconds, const obs::SpanSink* clock,
                  Counts* counts) {
  struct Inflight {
    std::size_t j = 0;
    double t_open = 0.0;
    double open_ns = 0.0;
  };
  Window w;
  w.hashes.resize(mix.size());
  std::vector<std::map<std::uint64_t, Inflight>> inflight(kConnections);
  std::vector<bool> counted(mix.size(), false);
  std::size_t next = 0;
  const double t0 = now_s();
  const auto issue = [&](std::size_t c) {
    const std::size_t j = next++ % mix.size();
    const std::uint64_t sid = d.clients[c].open(mix[j]);
    inflight[c][sid] = Inflight{
        j, now_s(), clock ? static_cast<double>(clock->now_ns()) : 0.0};
    ++w.loop.attempted;
  };
  for (std::size_t c = 0; c < kConnections; ++c) {
    for (std::size_t k = 0; k < kWindow; ++k) issue(c);
  }
  std::vector<serve::Client::Event> events;
  double last_progress = now_s();
  while (true) {
    std::size_t open = 0;
    for (const auto& m : inflight) open += m.size();
    if (open == 0) break;
    if (now_s() - last_progress > kStallS) {
      std::cerr << "serve_mix: " << open << " sessions stalled\n";
      w.loop.failed += open;
      break;
    }
    pollfd fds[kConnections];
    for (std::size_t c = 0; c < kConnections; ++c) {
      fds[c].fd = d.clients[c].fd();
      fds[c].events = static_cast<short>(
          POLLIN | (d.clients[c].wants_write() ? POLLOUT : 0));
      fds[c].revents = 0;
    }
    ::poll(fds, kConnections, 100);
    for (std::size_t c = 0; c < kConnections; ++c) {
      events.clear();
      d.clients[c].pump(events);
      for (const auto& e : events) {
        const auto it = inflight[c].find(e.session_id);
        if (it == inflight[c].end()) continue;
        const Inflight rec = it->second;
        inflight[c].erase(it);
        const double t = now_s();
        last_progress = t;
        w.loop.record(t - rec.t_open, 1);
        if (e.kind == serve::Client::Event::Kind::kResult && e.result.ok) {
          ++w.ok;
          ++w.hashes[rec.j][e.result.outputs_hash];
          if (clock != nullptr) {
            w.timed.push_back(
                Timed{rec.open_ns, static_cast<double>(clock->now_ns())});
          }
          if (counts != nullptr && !counted[rec.j]) {
            counted[rec.j] = true;
            ++counts->ops;
            counts->rounds += e.result.rounds;
            counts->msgs += e.result.messages;
            const std::uint64_t canonical_id = rec.j + 1;
            counts->bytes +=
                frame_bytes(canonical_id, serve::kOpenKind,
                            serve::encode_open_request(mix[rec.j])) +
                frame_bytes(canonical_id, serve::kResultKind,
                            serve::encode_result_reply(e.result));
          }
        } else {
          ++w.loop.failed;
          if (e.kind == serve::Client::Event::Kind::kReject) ++w.rejects;
          std::cerr << "session " << rec.j << " failed: "
                    << (e.kind == serve::Client::Event::Kind::kReject
                            ? e.reject.detail
                            : e.kind == serve::Client::Event::Kind::kClosed
                                  ? std::string("connection closed")
                                  : std::string("agreement check failed"))
                    << "\n";
        }
        const bool more =
            t - t0 < seconds || (counts != nullptr && next < mix.size());
        if (more && !d.clients[c].broken()) issue(c);
      }
    }
  }
  w.loop.finish();
  return w;
}

// Compares every returned outputs_hash with a direct serve::run_instance of
// the same request; returns the sessions that disagree. Fills `instance_s`
// with the direct run time of each distinct request.
std::uint64_t verify(const Options& opts,
                     const std::vector<serve::OpenRequest>& mix,
                     const Hashes& hashes, Report& report,
                     std::vector<double>* instance_s) {
  const serve::Catalog catalog = make_catalog(opts);
  if (instance_s != nullptr) instance_s->assign(mix.size(), 0.0);
  std::uint64_t mismatches = 0;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    if (hashes[j].empty() && instance_s == nullptr) continue;
    const double t0 = now_s();
    const auto r = serve::run_instance(catalog, mix[j]);
    if (instance_s != nullptr) (*instance_s)[j] = now_s() - t0;
    if (!r.error.empty() || !r.reply.ok) {
      report.fail_check("direct run_instance of request " +
                        std::to_string(j) + " did not pass");
    }
    for (const auto& [hash, sessions] : hashes[j]) {
      if (hash != r.reply.outputs_hash) mismatches += sessions;
    }
  }
  if (mismatches > 0) {
    report.fail_check(std::to_string(mismatches) +
                      " sessions returned an outputs_hash that differs from "
                      "run_instance");
  }
  return mismatches;
}

std::string socket_path(const Options& opts, int k) {
  return opts.work_dir + "/serve" + std::to_string(k) + ".sock";
}

// Set-up: generate the catalog, start the daemon, connect, and complete one
// small session per connection.
std::unique_ptr<Daemon> start(const Options& opts, int k,
                              obs::SpanSink* spans) {
  auto d = std::make_unique<Daemon>(make_catalog(opts), socket_path(opts, k),
                                    spans);
  serve::OpenRequest warm = make_mix(opts).front();
  for (auto& client : d->clients) {
    const std::uint64_t sid = client.open(warm);
    bool got = false;
    const double t0 = now_s();
    while (!got && now_s() - t0 < kStallS) {
      for (const auto& e : client.wait(100)) got |= e.session_id == sid;
    }
    if (!got) throw std::runtime_error("warm-up session got no reply");
  }
  return d;
}

}  // namespace

void run_serve_mix(const Options& opts, Report& report) {
  pin_to_one_cpu();
  const std::vector<serve::OpenRequest> mix = make_mix(opts);
  std::unique_ptr<Daemon> daemon;
  int generation = 0;
  // Set-up also runs between the untraced chunks: each rep replaces the
  // daemon, after checking the old one stayed clean.
  Setup setup([&] {
    if (daemon != nullptr && !daemon->healthy()) {
      report.fail_check("server reported errors");
    }
    daemon.reset();
    daemon = start(opts, generation++, nullptr);
  });
  setup.rep();

  if (!opts.trace) {
    // Setup::kExtraReps + 1 chunks of the window loop; each drains its
    // sessions before the next set-up rep, outside the measured time. A
    // chunk runs as kPieces pieces, each drained before the host probes
    // that follow it, so the probes, taken while the daemon is idle, are
    // spread through the run as in a closed loop.
    constexpr std::size_t kPieces = 3;
    Counts counts;
    LoopStats loop;
    loop.finish();
    Hashes hashes(mix.size());
    const std::size_t chunks = Setup::kExtraReps + 1;
    const double piece_s =
        opts.seconds / static_cast<double>(chunks * kPieces);
    for (std::size_t k = 0; k < chunks * kPieces; ++k) {
      const Window w = run_window(*daemon, mix, piece_s, nullptr,
                                  k == 0 ? &counts : nullptr);
      loop.append(w.loop);
      for (double p = 0.0; p < piece_s; p += kProbeEveryS) {
        loop.probe_ms.push_back(host_probe_ms());
      }
      for (std::size_t j = 0; j < mix.size(); ++j) {
        for (const auto& [hash, sessions] : w.hashes[j]) {
          hashes[j][hash] += sessions;
        }
      }
      // The last rep also checks the last daemon.
      if (k % kPieces == kPieces - 1) setup.rep();
    }
    daemon.reset();
    loop.failed += verify(opts, mix, hashes, report, nullptr);
    report_end_to_end(report, loop, setup.median_s(), counts, kTailCap);
    char line[96];
    std::snprintf(line, sizeof line,
                  "%zu connections x %zu outstanding sessions, 1 in %zu big",
                  kConnections, kWindow, kBigEvery);
    report.note(line);
    return;
  }

  Window plain = run_window(*daemon, mix, opts.seconds / 3, nullptr, nullptr);
  if (!daemon->healthy()) report.fail_check("server reported errors");
  daemon.reset();
  obs::SpanSink sink;
  daemon = start(opts, generation++, &sink);
  const double sink_t0 = static_cast<double>(sink.now_ns());
  Window traced = run_window(*daemon, mix, opts.seconds / 3, &sink, nullptr);
  const double sink_t1 = static_cast<double>(sink.now_ns());
  if (!daemon->healthy()) report.fail_check("server reported errors");
  daemon.reset();

  std::vector<double> instance_s;
  Hashes all = plain.hashes;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    for (const auto& [hash, sessions] : traced.hashes[j]) {
      all[j][hash] += sessions;
    }
  }
  const std::uint64_t mismatches =
      verify(opts, mix, all, report, &instance_s);
  report.count_ops(plain.loop.attempted + traced.loop.attempted,
                   plain.loop.failed + traced.loop.failed + mismatches);

  // The loop's batches inside the traced window, in time order.
  struct Batch {
    double dispatch_begin = 0, reply_begin = 0, reply_end = 0;
  };
  std::vector<Batch> batches;
  std::vector<double> reply_dur;
  for (const Span& s : read_spans(sink)) {
    if (s.track != "serve/loop" || s.begin_ns < sink_t0) continue;
    if (s.name == "dispatch") {
      batches.push_back(Batch{s.begin_ns, s.begin_ns + s.dur_ns, 0});
    } else if (s.name == "reply") {
      reply_dur.push_back(s.dur_ns);
    }
  }
  std::sort(batches.begin(), batches.end(),
            [](const Batch& a, const Batch& b) {
              return a.dispatch_begin < b.dispatch_begin;
            });
  if (batches.empty() || reply_dur.size() != batches.size()) {
    throw std::runtime_error("serve spans missing or unpaired");
  }
  double dispatch_ns = 0.0, reply_ns = 0.0;
  for (std::size_t b = 0; b < batches.size(); ++b) {
    dispatch_ns += batches[b].reply_begin - batches[b].dispatch_begin;
    reply_ns += reply_dur[b];
  }
  // Reply spans are recorded in batch order, so pairing by index holds.
  for (std::size_t b = 0; b < batches.size(); ++b) {
    batches[b].reply_end = batches[b].reply_begin + reply_dur[b];
  }
  // A session ran in the last batch whose reply began before the client
  // received it; its queue wait is that batch's dispatch start minus open.
  std::vector<double> wait_ms, explained_ms, latency_ms;
  for (const Timed& d : traced.timed) {
    auto it = std::upper_bound(
        batches.begin(), batches.end(), d.recv_ns,
        [](double t, const Batch& b) { return t < b.reply_begin; });
    if (it == batches.begin()) continue;
    --it;
    wait_ms.push_back(std::max(0.0, it->dispatch_begin - d.open_ns) * 1e-6);
    explained_ms.push_back(
        (std::max(0.0, it->dispatch_begin - d.open_ns) +
         (it->reply_end - it->dispatch_begin)) *
        1e-6);
    latency_ms.push_back((d.recv_ns - d.open_ns) * 1e-6);
  }

  std::vector<double> small_ms, big_ms;
  for (std::size_t j = 0; j < mix.size(); ++j) {
    (is_big(mix[j]) ? big_ms : small_ms).push_back(instance_s[j] * 1e3);
  }
  const serve::Catalog catalog = make_catalog(opts);
  const double index_ms =
      time_per_call(0.2, [&] {
        const treeaa::perf::TreeIndex index(*catalog.tree("big"));
        (void)index;
      }) *
      1e3;

  const double nb = static_cast<double>(batches.size());
  const double attempted =
      static_cast<double>(plain.loop.attempted + traced.loop.attempted);
  report.metric("serve.instance_ms.small", mean(small_ms), "ms");
  report.metric("serve.instance_ms.big", mean(big_ms), "ms");
  report.metric("perf.index_ms", index_ms, "ms");
  report.metric("serve.dispatch_ms", dispatch_ns * 1e-6 / nb, "ms");
  report.metric("serve.reply_ms", reply_ns * 1e-6 / nb, "ms");
  report.metric("serve.batch_sessions",
                static_cast<double>(traced.ok) / nb, "count");
  report.metric("serve.loop_busy_share",
                (dispatch_ns + reply_ns) / (sink_t1 - sink_t0), "ratio");
  report.metric("serve.queue_wait_ms", mean(wait_ms), "ms");
  report.metric("serve.reject_share",
                static_cast<double>(plain.rejects + traced.rejects) / attempted,
                "ratio");
  report.metric("obs.trace_overhead.serve_mix",
                median(traced.loop.latency_ms) / median(plain.loop.latency_ms) -
                    1.0,
                "ratio");
  report.metric("obs.coverage.serve_mix", mean(explained_ms) / mean(latency_ms),
                "ratio");
}

}  // namespace perfbench
