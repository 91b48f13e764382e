// The parallel engine's determinism contract at the engine level: traces,
// stats, and received bytes are byte-identical at any EngineOptions::threads
// value, and broadcast-shared payloads never alias through a corrupting
// link layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "sim/engine.h"
#include "sim/strategies.h"
#include "sim/trace.h"

namespace treeaa::sim {
namespace {

/// Broadcasts (round, self, inbox size of last round) every round and
/// remembers every byte it receives — enough state flow that any
/// cross-thread ordering slip would change the transcript.
class ChattyProcess final : public Process {
 public:
  explicit ChattyProcess(PartyId self) : self_(self) {}

  void on_round_begin(Round r, Mailer& out) override {
    ++send_calls_;
    out.broadcast(Bytes{static_cast<std::uint8_t>(r),
                        static_cast<std::uint8_t>(self_),
                        static_cast<std::uint8_t>(last_inbox_)});
    if (self_ == 0) out.send(1, Bytes{0xEE});  // some unicast traffic too
  }
  void on_round_end(Round, std::span<const Envelope> inbox) override {
    last_inbox_ = inbox.size();
    for (const Envelope& e : inbox) {
      received_.push_back({e.from, e.payload.bytes()});
    }
  }

  std::vector<std::pair<PartyId, Bytes>> received_;
  std::size_t send_calls_ = 0;

 private:
  PartyId self_;
  std::size_t last_inbox_ = 0;
};

struct Transcript {
  std::string trace;
  std::vector<std::vector<std::pair<PartyId, Bytes>>> received;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
};

Transcript run_chatty(std::size_t threads, std::size_t n, Round rounds,
                      bool with_adversary) {
  Engine engine(n, 2, EngineOptions{threads});
  std::vector<ChattyProcess*> procs;
  for (PartyId p = 0; p < n; ++p) {
    auto proc = std::make_unique<ChattyProcess>(p);
    procs.push_back(proc.get());
    engine.set_process(p, std::move(proc));
  }
  if (with_adversary) {
    engine.set_adversary(std::make_unique<FuzzAdversary>(
        std::vector<PartyId>{2, static_cast<PartyId>(n - 1)}, /*seed=*/7,
        /*min=*/4, /*max=*/12));
  }
  RecordingTracer tracer(/*payloads=*/true);
  engine.set_tracer(&tracer);
  engine.run(rounds);

  Transcript t;
  t.trace = tracer.text();
  for (const ChattyProcess* proc : procs) t.received.push_back(proc->received_);
  t.messages = engine.stats().total_messages();
  t.bytes = engine.stats().total_bytes();
  return t;
}

TEST(EngineThreads, TranscriptIdenticalAcrossThreadCounts) {
  for (const bool adversarial : {false, true}) {
    const Transcript serial = run_chatty(1, 9, 6, adversarial);
    EXPECT_GT(serial.messages, 0u);
    for (const std::size_t threads : {2u, 3u, 8u}) {
      const Transcript parallel = run_chatty(threads, 9, 6, adversarial);
      EXPECT_EQ(parallel.trace, serial.trace)
          << "threads=" << threads << " adversarial=" << adversarial;
      EXPECT_EQ(parallel.received, serial.received);
      EXPECT_EQ(parallel.messages, serial.messages);
      EXPECT_EQ(parallel.bytes, serial.bytes);
    }
  }
}

TEST(EngineThreads, ThreadsClampToPartyCount) {
  const Engine engine(5, 1, EngineOptions{64});
  EXPECT_LE(engine.threads(), 5u);
}

std::vector<ChattyProcess*> install_chatty(Engine& engine) {
  std::vector<ChattyProcess*> procs;
  for (PartyId p = 0; p < engine.n(); ++p) {
    auto proc = std::make_unique<ChattyProcess>(p);
    procs.push_back(proc.get());
    engine.set_process(p, std::move(proc));
  }
  return procs;
}

// Per-round traffic counters, not just the totals, match the serial engine:
// the parallel send phase counts each lane's messages at the join.
TEST(EngineThreads, PerRoundStatsIdenticalAcrossThreadCounts) {
  const auto per_round = [](std::size_t threads) {
    Engine engine(9, 2, EngineOptions{threads});
    install_chatty(engine);
    engine.set_adversary(std::make_unique<FuzzAdversary>(
        std::vector<PartyId>{3, 8}, /*seed=*/11, /*min=*/4, /*max=*/12));
    engine.run(5);
    std::vector<std::vector<std::uint64_t>> rows;
    for (const RoundTraffic& rt : engine.stats().per_round) {
      rows.push_back({rt.honest_messages, rt.honest_bytes,
                      rt.adversary_messages, rt.adversary_bytes});
    }
    return rows;
  };
  const auto serial = per_round(1);
  ASSERT_EQ(serial.size(), 5u);
  for (const std::size_t threads : {2u, 4u, 9u}) {
    EXPECT_EQ(per_round(threads), serial) << "threads=" << threads;
  }
}

/// Records which thread each on_queued callback ran on.
class QueueThreadTracer final : public Tracer {
 public:
  void on_queued(const Envelope& e, bool adversarial) override {
    (void)adversarial;
    threads_.push_back(std::this_thread::get_id());
    from_.push_back(e.from);
  }
  std::vector<std::thread::id> threads_;
  std::vector<PartyId> from_;
};

// Lanes only fill their staging vectors; on_queued fires after the join,
// on the thread that called run(), in party order.
TEST(EngineThreads, OnQueuedFiresOnTheCallingThreadInPartyOrder) {
  Engine engine(8, 1, EngineOptions{4});
  install_chatty(engine);
  QueueThreadTracer tracer;
  engine.set_tracer(&tracer);
  engine.run(1);
  ASSERT_EQ(tracer.threads_.size(), engine.stats().honest_messages());
  for (const std::thread::id id : tracer.threads_) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
  EXPECT_TRUE(std::is_sorted(tracer.from_.begin(), tracer.from_.end()));
}

// Corrupt parties are skipped inside every lane: their processes are never
// asked to send, and the round's honest count is exactly the others'.
TEST(EngineThreads, CorruptPartiesSendNothingInParallelSendPhase) {
  constexpr std::size_t kParties = 8;
  Engine engine(kParties, 2, EngineOptions{4});
  const std::vector<ChattyProcess*> procs = install_chatty(engine);
  engine.set_adversary(
      std::make_unique<SilentAdversary>(std::vector<PartyId>{1, 6}));
  engine.run(3);
  for (PartyId p = 0; p < kParties; ++p) {
    EXPECT_EQ(procs[p]->send_calls_, (p == 1 || p == 6) ? 0u : 3u)
        << "party " << p;
  }
  for (const RoundTraffic& rt : engine.stats().per_round) {
    // Six honest broadcasts to 8 parties, plus party 0's unicast.
    EXPECT_EQ(rt.honest_messages, 6u * kParties + 1u);
    EXPECT_EQ(rt.adversary_messages, 0u);
  }
}

// A parallel engine leases one pool with one lane per thread and makes two
// dispatches per round (send, then handle), each covering all n parties.
TEST(EngineThreads, ParallelEngineDispatchesSendAndHandleEachRound) {
  const Engine serial(6, 1, EngineOptions{1});
  EXPECT_EQ(serial.pool(), nullptr);

  Engine engine(6, 1, EngineOptions{3});
  ASSERT_NE(engine.pool(), nullptr);
  EXPECT_EQ(engine.pool()->lanes(), 3u);
  install_chatty(engine);
  const perf::WorkerPool::DispatchStats before = engine.pool()->stats();
  engine.run(4);
  const perf::WorkerPool::DispatchStats after = engine.pool()->stats();
  EXPECT_EQ(after.dispatches - before.dispatches, 2u * 4u);
  for (std::size_t lane = 0; lane < 3; ++lane) {
    // 6 parties over 3 lanes: 2 per lane per dispatch.
    EXPECT_EQ(after.lane_items[lane] - before.lane_items[lane], 2u * 2u * 4u)
        << "lane " << lane;
  }
}

/// Flips the first byte of every message addressed to party 0 — through
/// the COW handle, exactly like the net fault layer's corrupt-link path.
class CorruptForPartyZero final : public LinkLayer {
 public:
  std::vector<Envelope> deliver(Round, std::vector<Envelope> queued) override {
    for (Envelope& e : queued) {
      if (e.to == 0 && !e.payload.empty()) {
        e.payload.mutable_bytes()[0] ^= 0xFF;
      }
    }
    return queued;
  }
};

// A broadcast's payload is one shared buffer across all n envelopes; a
// corrupt link that rewrites party 0's copy must detach, never alias —
// parties 1..n-1 see pristine bytes, at every thread count.
TEST(EngineThreads, CorruptLinkDetachesSharedBroadcastPayloads) {
  for (const std::size_t threads : {1u, 4u}) {
    Engine engine(6, 1, EngineOptions{threads});
    std::vector<ChattyProcess*> procs;
    for (PartyId p = 0; p < 6; ++p) {
      auto proc = std::make_unique<ChattyProcess>(p);
      procs.push_back(proc.get());
      engine.set_process(p, std::move(proc));
    }
    CorruptForPartyZero link;
    engine.set_link_layer(&link);
    engine.run(1);

    for (PartyId p = 0; p < 6; ++p) {
      ASSERT_FALSE(procs[p]->received_.empty());
      for (const auto& [from, bytes] : procs[p]->received_) {
        if (bytes.size() != 3) continue;  // unicast 0xEE probe
        if (p == 0) {
          EXPECT_EQ(bytes[0], 1 ^ 0xFF)
              << "party 0's copy must carry the corruption";
        } else {
          EXPECT_EQ(bytes[0], 1)
              << "party " << p << " saw party 0's corruption (aliasing!)"
              << " threads=" << threads;
        }
      }
    }
  }
}

}  // namespace
}  // namespace treeaa::sim
