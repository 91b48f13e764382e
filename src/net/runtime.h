// The socket-transport party runtime and its round synchronizer.
//
// NetRunner realizes the paper's synchronous abstraction (§2) over real
// byte-stream I/O: every party runs an unmodified sim::Process on its own
// thread behind the loopback mesh, and lock-step rounds are reconstructed
// with barrier frames and per-round timeouts.
//
// One round of party p:
//   1. flush any fault-delayed frames now due onto their links;
//   2. Process::on_round_begin(r) queues traffic through the ordinary
//      sim::Mailer — the adapter that lets protocols run unmodified;
//   3. per destination link, the payloads pass the deterministic fault
//      plan (net/fault.h) and the survivors are framed and queued, followed
//      by the link's BARRIER frame for r (unless p is crash-faulted);
//   4. a poll(2) event loop drains the send queues and reads every link
//      until each live peer's barrier for r has arrived or the round
//      deadline expires — peers that miss the deadline are declared dead
//      and never waited for again (their frames, should any still arrive,
//      are counted, not delivered);
//   5. the round's inbox is assembled sorted by sender — same-sender
//      frames in link arrival order, exactly the engine's delivery order —
//      and handed to Process::on_round_end(r).
//
// Staleness is judged per link against that link's barrier cursor, never
// against wall-clock arrival: a data frame tagged at or below the last
// barrier seen on its link is discarded. Because links are FIFO, a frame
// the fault plan delayed is always behind its round's barrier and is
// therefore discarded deterministically — thread scheduling cannot change
// what the protocols observe, which is what makes the same-seed
// sim::Engine cross-check (net/deploy.h) and the byte-identical
// treeaa.net_report/1 promise possible.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "net/fault.h"
#include "obs/metrics.h"
#include "sim/process.h"

namespace treeaa::obs {
class SpanSink;
}

namespace treeaa::net {

struct NetOptions {
  FaultPlan faults;
  std::uint64_t seed = 1;
  /// Barrier deadline per round. Generous by default: the timeout is a
  /// liveness escape hatch for dead peers, not a pacing mechanism.
  int round_timeout_ms = 5000;
  /// Timeline sink (docs/OBSERVABILITY.md): every party thread gets a
  /// "net/party P" track with send/barrier/handle spans per round and
  /// timeout instants. Opt-in; wall-clock; never changes report bytes.
  obs::SpanSink* spans = nullptr;
  /// Wall-clock registry for the synchronizer's latency histograms:
  /// "net_barrier_wait_ns" (time each party spends in the round's
  /// flush-and-wait loop) and "net_wire_lag_ns" (barrier issue-to-arrival
  /// per link). Opt-in; surfaced as the net report's "timing" section,
  /// never part of its canonical byte-deterministic form.
  obs::Registry* timing = nullptr;
};

/// Counters for one directed link, merged from the sender's and the
/// receiver's runtimes after the run. Frame counters count data frames
/// only; barrier frames show up in the byte counters alone. On a link
/// whose framing stays intact they obey (tests/net/runtime_test.cpp):
///
///   offered − dropped − suppressed + duplicated = frames_sent + held
///   frames_sent = frames_received = delivered + stale_discarded
///   bytes_sent = bytes_received
///
/// where `offered` is what the sender's protocol queued for the link,
/// `delivered` is what reached its inboxes, and `held` counts the delayed
/// frames whose due round lies past the run's last round (never sent).
struct LinkStats {
  /// Data frames put on the wire, duplicates and late delayed frames
  /// included.
  std::uint64_t frames_sent = 0;
  /// Wire bytes written: data frames and barrier frames, framing included.
  std::uint64_t bytes_sent = 0;
  /// Data frames the receiver decoded.
  std::uint64_t frames_received = 0;
  /// Wire bytes read: data frames and barrier frames, framing included.
  std::uint64_t bytes_received = 0;
  /// Data frames the fault plan dropped (never sent).
  std::uint64_t dropped = 0;
  /// Data frames the fault plan held for a later round.
  std::uint64_t delayed = 0;
  /// Data frames the fault plan sent twice (counted once per original).
  std::uint64_t duplicated = 0;
  /// Data frames whose payload bits the fault plan flipped.
  std::uint64_t corrupted = 0;
  /// Data frames a crashed sender never sent: queued at or after its crash
  /// round, or held by a delay and due at or after it.
  std::uint64_t suppressed = 0;
  /// Data frames that arrived tagged at or below the link's barrier
  /// cursor (a delayed frame surfacing late) and were never delivered.
  std::uint64_t stale_discarded = 0;
  /// Frame bodies that failed to decode, plus one when the framing itself
  /// broke and the link stopped being read.
  std::uint64_t decode_errors = 0;
  /// Send-path byte copies of a payload (0 on a clean plan).
  std::uint64_t payload_copies = 0;

  void add(const LinkStats& other);
};

struct PartyStats {
  std::uint64_t timeouts = 0;  // (peer, round) barrier deadline misses
  Round rounds_completed = 0;
};

/// Orchestrates a full run: builds the mesh, spawns one thread per party,
/// drives every process for the given number of rounds, joins, and exposes
/// the merged statistics. Deterministic given (processes, fault plan,
/// seed) as long as no spurious barrier timeout fires — see the class
/// comment.
class NetRunner {
 public:
  NetRunner(std::size_t n, NetOptions options);
  ~NetRunner();

  /// Installs the process for party p (honest protocol or Byzantine
  /// behavior alike). Every party needs one before run().
  void set_process(PartyId p, std::unique_ptr<sim::Process> process);

  /// Runs rounds 1..rounds on all parties. May only be called once.
  /// Rethrows the first per-party exception after joining all threads.
  void run(Round rounds);

  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] sim::Process& process(PartyId p);

  /// Directed link statistics (valid after run()). Requires from != to.
  [[nodiscard]] LinkStats link_stats(PartyId from, PartyId to) const;
  [[nodiscard]] const PartyStats& party_stats(PartyId p) const;
  /// Sum over all directed links.
  [[nodiscard]] LinkStats totals() const;

  /// Adds the run's aggregate counters ("net_frames_sent", ...) to a
  /// metrics registry.
  void fill_registry(obs::Registry& registry) const;

 private:
  struct Party;

  std::size_t n_;
  NetOptions options_;
  bool ran_ = false;
  std::vector<std::unique_ptr<Party>> parties_;
};

}  // namespace treeaa::net
