#include "net/runtime.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <exception>
#include <map>
#include <system_error>
#include <thread>
#include <utility>

#include "common/check.h"
#include "net/frame.h"
#include "net/gather.h"
#include "net/socket.h"
#include "obs/span.h"
#include "sim/envelope.h"

namespace treeaa::net {

void LinkStats::add(const LinkStats& other) {
  frames_sent += other.frames_sent;
  bytes_sent += other.bytes_sent;
  frames_received += other.frames_received;
  bytes_received += other.bytes_received;
  dropped += other.dropped;
  delayed += other.delayed;
  duplicated += other.duplicated;
  corrupted += other.corrupted;
  suppressed += other.suppressed;
  stale_discarded += other.stale_discarded;
  decode_errors += other.decode_errors;
  payload_copies += other.payload_copies;
}

namespace {

/// Nanoseconds on the raw steady clock — the latency probes only ever look
/// at differences, so no epoch normalization is needed.
[[nodiscard]] std::int64_t steady_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}

/// One party's view of its connection to one peer. Used only by the owning
/// party's thread.
struct PeerLink {
  PartyId peer = kNoParty;
  Socket* sock = nullptr;
  std::unique_ptr<LinkFaults> faults;  // self -> peer decision stream
  FrameReader reader;

  // Outgoing: an unbounded in-memory gather buffer drained via POLLOUT.
  // Frame headers are appended by copy (a dozen bytes each, coalesced into
  // one owned chunk); payload bytes stay in their refcounted perf::Payload
  // and are handed to sendmsg(2) in place — zero payload copies from
  // protocol to socket. Because every party keeps reading all its links
  // every round, kernel buffers never stay full and this always flushes —
  // the in-memory stage only exists so a momentarily full kernel buffer
  // cannot deadlock two parties writing to each other.
  GatherBuffer sendbuf;
  // A fault-delayed outgoing data frame still carrying its original round
  // tag; keyed by the round in which it goes on the wire.
  struct HeldFrame {
    perf::Payload payload;
    Round tag = 0;
  };
  std::map<Round, std::vector<HeldFrame>> holdback;

  // Incoming.
  Round barrier_cursor = 0;  // highest barrier round seen on this link
  bool dead = false;         // missed a round deadline; never waited again
  std::map<Round, std::vector<Bytes>> pending;  // data frames by round tag

  LinkStats tx;  // sender side of link self -> peer
  LinkStats rx;  // receiver side of link peer -> self
};

}  // namespace

struct NetRunner::Party {
  PartyId self = kNoParty;
  std::size_t n = 0;
  const NetOptions* options = nullptr;
  std::unique_ptr<sim::Process> process;
  std::vector<PeerLink> links;  // size n; slot `self` unused
  PartyStats stats;
  std::thread thread;
  std::exception_ptr error;

  // Latency probes (armed only when NetOptions::timing is set). The
  // barrier-issue table is shared across parties: row q, slot r holds the
  // steady-clock instant at which party q put its round-r barrier into its
  // send buffers; receivers subtract it on arrival. Release/acquire keeps
  // the read well-defined; the socket round-trip between store and load
  // makes the value effectively always visible.
  std::atomic<std::int64_t>* barrier_issued = nullptr;  // n * (rounds + 1)
  Round rounds_cap = 0;
  std::vector<double> barrier_wait_ns;
  std::vector<double> wire_lag_ns;

  // Timeline (armed only when NetOptions::spans is set).
  obs::TrackId track{};

  void run_rounds(Round rounds);

 private:
  void append_data_frame(PeerLink& link, Round tag, perf::Payload payload);
  void append_barrier(PeerLink& link, Round r);
  void flush(PeerLink& link);
  void read_link(PeerLink& link);
  void poll_round(Round r);

  /// The fault plan is public configuration, so a barrier that the plan
  /// says will never be sent must not be waited for: otherwise every peer
  /// of a plan-crashed party burns the full round deadline while the
  /// crashed party races ahead, and the resulting skew lets a deadline
  /// spuriously evict *live* peers — a timing race. Skipping plan-crashed
  /// senders keeps the mesh in lockstep and the counters deterministic;
  /// the timeout path still guards against unplanned stalls.
  [[nodiscard]] bool barrier_expected(PartyId q, Round r) const {
    const auto crash = options->faults.crash_round(q);
    return !crash.has_value() || r < *crash;
  }
};

void NetRunner::Party::append_data_frame(PeerLink& link, Round tag,
                                         perf::Payload payload) {
  // Header (length prefix + kind + round + blob length) by copy, payload by
  // reference — `header ++ payload` is byte-identical to append_wire_frame.
  Bytes header;
  append_data_frame_header(header, tag, payload.size());
  link.tx.bytes_sent += header.size() + payload.size();
  ++link.tx.frames_sent;
  link.sendbuf.append(header.data(), header.size());
  link.sendbuf.append_payload(std::move(payload));
}

void NetRunner::Party::append_barrier(PeerLink& link, Round r) {
  Bytes wire;
  append_wire_frame(wire, Frame{FrameKind::kBarrier, r, {}});
  link.tx.bytes_sent += wire.size();
  link.sendbuf.append(wire.data(), wire.size());
}

void NetRunner::Party::flush(PeerLink& link) {
  link.sendbuf.flush(*link.sock);
}

void NetRunner::Party::read_link(PeerLink& link) {
  std::uint8_t buf[64 * 1024];
  while (true) {
    const Socket::ReadResult res = link.sock->read_some(buf, sizeof(buf));
    if (res.n > 0) {
      link.rx.bytes_received += res.n;
      link.reader.feed(buf, res.n);
    }
    if (res.n < sizeof(buf)) break;  // drained (or peer closed)
  }
  while (auto body = link.reader.next_body()) {
    auto frame = decode_frame_body(*body);
    if (!frame.has_value()) {
      ++link.rx.decode_errors;
      continue;
    }
    if (frame->kind == FrameKind::kBarrier) {
      if (barrier_issued != nullptr && frame->round > link.barrier_cursor &&
          frame->round <= rounds_cap) {
        const std::int64_t issued =
            barrier_issued[link.peer * (rounds_cap + 1) + frame->round].load(
                std::memory_order_acquire);
        if (issued > 0) {
          wire_lag_ns.push_back(
              static_cast<double>(std::max<std::int64_t>(
                  steady_ns() - issued, 0)));
        }
      }
      link.barrier_cursor = std::max(link.barrier_cursor, frame->round);
      continue;
    }
    ++link.rx.frames_received;
    if (frame->round <= link.barrier_cursor) {
      // Behind the link's barrier: a fault-delayed frame surfacing late.
      ++link.rx.stale_discarded;
    } else {
      link.pending[frame->round].push_back(std::move(frame->payload));
    }
  }
  if (link.reader.poisoned() && !link.dead) {
    // Framing can no longer be trusted; stop waiting on this link.
    ++link.rx.decode_errors;
    link.dead = true;
  }
}

void NetRunner::Party::poll_round(Round r) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(options->round_timeout_ms);
  std::vector<pollfd> fds;
  std::vector<PartyId> fd_peers;
  while (true) {
    bool all_flushed = true;
    bool barriers_ok = true;
    for (PartyId q = 0; q < n; ++q) {
      if (q == self) continue;
      PeerLink& link = links[q];
      flush(link);
      if (!link.sendbuf.empty()) all_flushed = false;
      if (!link.dead && link.barrier_cursor < r && barrier_expected(q, r)) {
        barriers_ok = false;
      }
    }
    if (all_flushed && barriers_ok) return;

    const auto now = Clock::now();
    if (now >= deadline) {
      for (PartyId q = 0; q < n; ++q) {
        if (q == self) continue;
        PeerLink& link = links[q];
        if (!link.dead && link.barrier_cursor < r && barrier_expected(q, r)) {
          link.dead = true;
          ++stats.timeouts;
          if (options->spans != nullptr) {
            options->spans->instant(
                track, "timeout peer " + std::to_string(q),
                options->spans->now_ns());
          }
        }
      }
      return;  // any unflushed bytes stay buffered for the next round
    }

    fds.clear();
    fd_peers.clear();
    for (PartyId q = 0; q < n; ++q) {
      if (q == self) continue;
      PeerLink& link = links[q];
      short events = POLLIN;
      if (!link.sendbuf.empty()) events |= POLLOUT;
      fds.push_back(pollfd{link.sock->fd(), events, 0});
      fd_peers.push_back(q);
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - now);
    const int wait_ms = static_cast<int>(
        std::clamp<std::int64_t>(remaining.count() + 1, 1, 60'000));
    const int rc = ::poll(fds.data(), fds.size(), wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "poll");
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      PeerLink& link = links[fd_peers[i]];
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        read_link(link);
      }
      if ((fds[i].revents & POLLOUT) != 0) flush(link);
    }
  }
}

void NetRunner::Party::run_rounds(Round rounds) {
  const auto crash = options->faults.crash_round(self);
  obs::SpanSink* spans = options->spans;
  const bool timed = barrier_issued != nullptr;
  std::vector<sim::Envelope> outbox;
  for (Round r = 1; r <= rounds; ++r) {
    const std::uint64_t round_begin = spans != nullptr ? spans->now_ns() : 0;
    const bool crashed = crash.has_value() && r >= *crash;
    // 1. Fault-delayed frames now due go on the wire first, still carrying
    //    their original round tag (the receiver discards them as stale —
    //    see the class comment in runtime.h). A crashed party sends nothing:
    //    a held frame sent after its last barrier could reach a peer or
    //    not, depending on when that peer finishes reading.
    for (PartyId q = 0; q < n; ++q) {
      if (q == self) continue;
      PeerLink& link = links[q];
      while (!link.holdback.empty() && link.holdback.begin()->first <= r) {
        for (PeerLink::HeldFrame& held : link.holdback.begin()->second) {
          if (crashed) {
            ++link.tx.suppressed;
          } else {
            append_data_frame(link, held.tag, std::move(held.payload));
          }
        }
        link.holdback.erase(link.holdback.begin());
      }
    }

    // 2. The protocol's send phase, through the ordinary Mailer.
    outbox.clear();
    sim::Mailer mailer(self, n, outbox, r);
    if (spans != nullptr) {
      const std::uint64_t send_begin = spans->now_ns();
      process->on_round_begin(r, mailer);
      spans->complete(track, "send", send_begin, spans->now_ns(),
                      "{\"round\":" + std::to_string(r) +
                          ",\"outbox\":" + std::to_string(outbox.size()) +
                          "}");
    } else {
      process->on_round_begin(r, mailer);
    }

    // 3. Partition per destination (send order preserved), apply the fault
    //    plan per link, frame the survivors, and close the round with a
    //    barrier. The self-link is memory: reliable even when crashed,
    //    matching FaultLinkLayer.
    std::vector<perf::Payload> selfbox;
    std::vector<std::vector<perf::Payload>> per_dest(n);
    for (sim::Envelope& e : outbox) {
      // The refcounted handle moves all the way to the socket: a broadcast
      // payload is one allocation shared by every destination queue.
      if (e.to == self) {
        selfbox.push_back(std::move(e.payload));
      } else {
        per_dest[e.to].push_back(std::move(e.payload));
      }
    }
    for (PartyId q = 0; q < n; ++q) {
      if (q == self) continue;
      PeerLink& link = links[q];
      auto outs = link.faults->transmit(r, std::move(per_dest[q]));
      for (FaultedFrame& f : outs) {
        if (f.send_round == r) {
          append_data_frame(link, r, std::move(f.payload));
        } else {
          link.holdback[f.send_round].push_back(
              PeerLink::HeldFrame{std::move(f.payload), r});
        }
      }
      if (!crashed) {
        append_barrier(link, r);
      }
    }
    if (timed && !crashed) {
      barrier_issued[self * (rounds_cap + 1) + r].store(
          steady_ns(), std::memory_order_release);
    }

    // 4. Drain sends and wait for every live peer's barrier (or the
    //    deadline).
    const std::uint64_t wait_begin = spans != nullptr ? spans->now_ns() : 0;
    const std::int64_t wait_begin_raw = timed ? steady_ns() : 0;
    poll_round(r);
    if (timed) {
      barrier_wait_ns.push_back(
          static_cast<double>(steady_ns() - wait_begin_raw));
    }
    if (spans != nullptr) {
      spans->complete(track, "barrier", wait_begin, spans->now_ns(),
                      "{\"round\":" + std::to_string(r) + "}");
    }

    // 5. Deliver the round's inbox sorted by sender, same-sender frames in
    //    arrival order — the engine's delivery order exactly.
    std::vector<sim::Envelope> inbox;
    for (PartyId q = 0; q < n; ++q) {
      if (q == self) {
        for (perf::Payload& payload : selfbox) {
          inbox.push_back(sim::Envelope{self, self, r, std::move(payload)});
        }
        continue;
      }
      PeerLink& link = links[q];
      while (!link.pending.empty() && link.pending.begin()->first <= r) {
        auto node = link.pending.extract(link.pending.begin());
        if (node.key() == r) {
          for (Bytes& payload : node.mapped()) {
            inbox.push_back(sim::Envelope{q, self, r, std::move(payload)});
          }
        } else {
          link.rx.stale_discarded += node.mapped().size();
        }
      }
    }
    if (spans != nullptr) {
      const std::uint64_t handle_begin = spans->now_ns();
      process->on_round_end(r, inbox);
      const std::uint64_t now = spans->now_ns();
      spans->complete(track, "handle", handle_begin, now,
                      "{\"round\":" + std::to_string(r) +
                          ",\"inbox\":" + std::to_string(inbox.size()) + "}");
      spans->complete(track, "round " + std::to_string(r), round_begin, now);
    } else {
      process->on_round_end(r, inbox);
    }
    stats.rounds_completed = r;
  }
}

// --- NetRunner ---------------------------------------------------------------

NetRunner::NetRunner(std::size_t n, NetOptions options)
    : n_(n), options_(std::move(options)) {
  TREEAA_REQUIRE_MSG(n >= 1, "NetRunner needs at least one party");
  parties_.reserve(n);
  for (PartyId p = 0; p < n; ++p) {
    auto party = std::make_unique<Party>();
    party->self = p;
    party->n = n;
    party->options = &options_;
    party->links.resize(n);
    parties_.push_back(std::move(party));
  }
}

NetRunner::~NetRunner() = default;

void NetRunner::set_process(PartyId p, std::unique_ptr<sim::Process> process) {
  TREEAA_REQUIRE(p < n_);
  parties_[p]->process = std::move(process);
}

sim::Process& NetRunner::process(PartyId p) {
  TREEAA_REQUIRE(p < n_ && parties_[p]->process != nullptr);
  return *parties_[p]->process;
}

void NetRunner::run(Round rounds) {
  TREEAA_REQUIRE_MSG(!ran_, "NetRunner::run may only be called once");
  ran_ = true;
  for (PartyId p = 0; p < n_; ++p) {
    TREEAA_REQUIRE_MSG(parties_[p]->process != nullptr,
                       "party " << p << " has no process");
  }
  Mesh mesh(n_);
  std::vector<std::atomic<std::int64_t>> barrier_issued;
  if (options_.timing != nullptr) {
    barrier_issued = std::vector<std::atomic<std::int64_t>>(
        n_ * (static_cast<std::size_t>(rounds) + 1));
  }
  for (PartyId p = 0; p < n_; ++p) {
    Party& party = *parties_[p];
    if (options_.timing != nullptr) {
      party.barrier_issued = barrier_issued.data();
      party.rounds_cap = rounds;
    }
    if (options_.spans != nullptr) {
      party.track =
          options_.spans->track("net", "party " + std::to_string(p));
    }
    for (PartyId q = 0; q < n_; ++q) {
      if (q == p) continue;
      party.links[q].peer = q;
      party.links[q].sock = &mesh.endpoint(p, q);
      party.links[q].faults =
          std::make_unique<LinkFaults>(options_.faults, p, q, options_.seed);
    }
  }
  for (PartyId p = 0; p < n_; ++p) {
    Party* party = parties_[p].get();
    party->thread = std::thread([party, rounds] {
      try {
        party->run_rounds(rounds);
      } catch (...) {
        party->error = std::current_exception();
      }
    });
  }
  std::exception_ptr first_error;
  for (PartyId p = 0; p < n_; ++p) {
    parties_[p]->thread.join();
    if (parties_[p]->error != nullptr && first_error == nullptr) {
      first_error = parties_[p]->error;
    }
  }
  // Fold the fault decision streams' own counters into the sender side.
  for (PartyId p = 0; p < n_; ++p) {
    for (PartyId q = 0; q < n_; ++q) {
      if (q == p) continue;
      PeerLink& link = parties_[p]->links[q];
      const LinkFaultStats& fs = link.faults->stats();
      link.tx.dropped += fs.dropped;
      link.tx.delayed += fs.delayed;
      link.tx.duplicated += fs.duplicated;
      link.tx.corrupted += fs.corrupted;
      link.tx.suppressed += fs.suppressed;
      link.tx.payload_copies += fs.payload_copies;
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
  if (options_.timing != nullptr) {
    // Party order (and per-party round order) keeps the merge reproducible
    // in structure; the sample values are wall clock, which is why these
    // histograms live in the opt-in timing section only.
    auto& waits = options_.timing->histogram("net_barrier_wait_ns",
                                             obs::ScopeTimer::wall_bounds());
    auto& lags = options_.timing->histogram("net_wire_lag_ns",
                                            obs::ScopeTimer::wall_bounds());
    for (PartyId p = 0; p < n_; ++p) {
      for (const double sample : parties_[p]->barrier_wait_ns) {
        waits.observe(sample);
      }
      for (const double sample : parties_[p]->wire_lag_ns) {
        lags.observe(sample);
      }
    }
  }
}

LinkStats NetRunner::link_stats(PartyId from, PartyId to) const {
  TREEAA_REQUIRE(from < n_ && to < n_ && from != to);
  LinkStats stats = parties_[from]->links[to].tx;
  stats.add(parties_[to]->links[from].rx);
  return stats;
}

const PartyStats& NetRunner::party_stats(PartyId p) const {
  TREEAA_REQUIRE(p < n_);
  return parties_[p]->stats;
}

LinkStats NetRunner::totals() const {
  LinkStats total;
  for (PartyId p = 0; p < n_; ++p) {
    for (PartyId q = 0; q < n_; ++q) {
      if (q == p) continue;
      total.add(link_stats(p, q));
    }
  }
  return total;
}

void NetRunner::fill_registry(obs::Registry& registry) const {
  const LinkStats total = totals();
  registry.counter("net_frames_sent").inc(total.frames_sent);
  registry.counter("net_bytes_sent").inc(total.bytes_sent);
  registry.counter("net_frames_received").inc(total.frames_received);
  registry.counter("net_bytes_received").inc(total.bytes_received);
  registry.counter("net_dropped").inc(total.dropped);
  registry.counter("net_delayed").inc(total.delayed);
  registry.counter("net_duplicated").inc(total.duplicated);
  registry.counter("net_corrupted").inc(total.corrupted);
  registry.counter("net_suppressed").inc(total.suppressed);
  registry.counter("net_stale_discarded").inc(total.stale_discarded);
  registry.counter("net_decode_errors").inc(total.decode_errors);
  registry.counter("net_payload_copies").inc(total.payload_copies);
  std::uint64_t timeouts = 0;
  for (PartyId p = 0; p < n_; ++p) timeouts += parties_[p]->stats.timeouts;
  registry.counter("net_timeouts").inc(timeouts);
}

}  // namespace treeaa::net
