// The socket runtime against the discrete engine: identical delivery on a
// clean mesh, deterministic fault accounting, barrier-timeout liveness.
#include "net/runtime.h"

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "sim/engine.h"

namespace treeaa::net {
namespace {

/// Broadcasts [self, round] every round and records everything received.
class ChatterProcess : public sim::Process {
 public:
  void on_round_begin(Round r, sim::Mailer& out) override {
    ByteWriter w;
    w.varint(out.self());
    w.varint(r);
    out.broadcast(w.bytes());
  }

  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override {
    for (const sim::Envelope& e : inbox) {
      received_[r].emplace_back(e.from, e.payload);
    }
  }

  std::map<Round, std::vector<std::pair<PartyId, Bytes>>> received_;
};

/// Chatter that additionally sleeps before sending in one round, stalling
/// its barrier past its peers' deadline.
class SlowChatterProcess final : public ChatterProcess {
 public:
  SlowChatterProcess(Round slow_round, int sleep_ms)
      : slow_round_(slow_round), sleep_ms_(sleep_ms) {}

  void on_round_begin(Round r, sim::Mailer& out) override {
    if (r == slow_round_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms_));
    }
    ChatterProcess::on_round_begin(r, out);
  }

 private:
  Round slow_round_;
  int sleep_ms_;
};

TEST(NetRunner, CleanMeshMatchesEngineDelivery) {
  const std::size_t n = 5;
  const Round rounds = 6;

  NetRunner runner(n, NetOptions{});
  for (PartyId p = 0; p < n; ++p) {
    runner.set_process(p, std::make_unique<ChatterProcess>());
  }
  runner.run(rounds);

  sim::Engine engine(n, 1);
  for (PartyId p = 0; p < n; ++p) {
    engine.set_process(p, std::make_unique<ChatterProcess>());
  }
  engine.run(rounds);

  for (PartyId p = 0; p < n; ++p) {
    const auto& net = dynamic_cast<ChatterProcess&>(runner.process(p));
    const auto& ref = dynamic_cast<ChatterProcess&>(engine.process(p));
    ASSERT_EQ(net.received_, ref.received_) << "party " << p;
    EXPECT_EQ(runner.party_stats(p).rounds_completed, rounds);
    EXPECT_EQ(runner.party_stats(p).timeouts, 0u);
  }
  const LinkStats totals = runner.totals();
  // n * (n-1) directed links, one data frame each per round.
  EXPECT_EQ(totals.frames_sent, n * (n - 1) * rounds);
  EXPECT_EQ(totals.frames_received, totals.frames_sent)
      << "frame counters count data frames only, never barriers";
  EXPECT_EQ(totals.dropped + totals.stale_discarded + totals.decode_errors,
            0u);
}

TEST(NetRunner, CleanDeployMakesZeroPayloadCopies) {
  // The zero-copy acceptance gate: on a fault-free mesh no payload byte is
  // ever copied on the send path — frames go header + refcounted payload
  // straight to sendmsg. A regression that reintroduces a copy shows up
  // here as a nonzero counter, not as a silent slowdown.
  const std::size_t n = 4;
  const Round rounds = 5;
  NetRunner runner(n, NetOptions{});
  for (PartyId p = 0; p < n; ++p) {
    runner.set_process(p, std::make_unique<ChatterProcess>());
  }
  runner.run(rounds);
  EXPECT_GT(runner.totals().frames_sent, 0u);
  EXPECT_EQ(runner.totals().payload_copies, 0u);
  obs::Registry registry;
  runner.fill_registry(registry);
  EXPECT_EQ(registry.counter("net_payload_copies").value(), 0u);
}

TEST(NetRunner, CorruptLinksStillDetachSharedBroadcasts) {
  // The one legitimate send-path copy: a corrupting link must detach its
  // private copy of a broadcast payload before flipping bits, so every
  // other link still transmits the pristine bytes. The counter prices
  // exactly those detaches and nothing else.
  const std::size_t n = 4;
  const Round rounds = 8;
  NetOptions options;
  options.faults = FaultPlan::parse("corrupt=0.5");
  options.seed = 5;
  NetRunner runner(n, options);
  for (PartyId p = 0; p < n; ++p) {
    runner.set_process(p, std::make_unique<ChatterProcess>());
  }
  runner.run(rounds);
  const LinkStats totals = runner.totals();
  EXPECT_GT(totals.corrupted, 0u);
  EXPECT_GT(totals.payload_copies, 0u);
  // Never more copies than corruptions — a sole-owner corrupt flips in
  // place for free.
  EXPECT_LE(totals.payload_copies, totals.corrupted);
  obs::Registry registry;
  runner.fill_registry(registry);
  EXPECT_EQ(registry.counter("net_payload_copies").value(),
            totals.payload_copies);
}

TEST(NetRunner, FaultCountersAreSeedDeterministic) {
  const std::size_t n = 4;
  const Round rounds = 8;
  NetOptions options;
  options.faults =
      FaultPlan::parse("drop=0.2,delay=0.2,dup=0.2,corrupt=0.2,reorder=0.5");
  options.seed = 77;

  const auto run_once = [&] {
    NetRunner runner(n, options);
    for (PartyId p = 0; p < n; ++p) {
      runner.set_process(p, std::make_unique<ChatterProcess>());
    }
    runner.run(rounds);
    return runner.totals();
  };
  const LinkStats a = run_once();
  const LinkStats b = run_once();
  EXPECT_GT(a.dropped, 0u);
  EXPECT_GT(a.delayed, 0u);
  EXPECT_GT(a.duplicated, 0u);
  EXPECT_GT(a.corrupted, 0u);
  // A delayed frame surfaces behind its barrier and is discarded — unless
  // its due round lies past the horizon and it stays in holdback forever.
  EXPECT_LE(a.stale_discarded, a.delayed);
  EXPECT_GT(a.stale_discarded, 0u);
  EXPECT_EQ(a.stale_discarded, b.stale_discarded);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.delayed, b.delayed);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
}

// The frame conservation law documented on LinkStats, checked on every
// single-fault plan and on delay combined with a crash. `held` (delayed
// frames due past the last round, never sent) has no counter of its own, so
// the law names it and bounds it by `delayed`.
TEST(NetRunner, FrameCountersObeyTheConservationLaw) {
  const std::size_t n = 4;
  const Round rounds = 8;
  // One broadcast per party per round: one frame per directed link.
  const std::uint64_t offered = n * (n - 1) * rounds;
  std::map<std::string, LinkStats> by_plan;
  for (const char* spec : {"", "drop=0.3", "dup=0.3", "delay=0.3",
                           "corrupt=0.3", "crash=1@3",
                           "delay=0.3,crash=2@4"}) {
    SCOPED_TRACE(spec);
    NetOptions options;
    options.faults = FaultPlan::parse(spec);
    options.seed = 9;
    NetRunner runner(n, options);
    for (PartyId p = 0; p < n; ++p) {
      runner.set_process(p, std::make_unique<ChatterProcess>());
    }
    runner.run(rounds);
    const LinkStats t = runner.totals();
    by_plan[spec] = t;

    const std::uint64_t queued =
        offered - t.dropped - t.suppressed + t.duplicated;
    ASSERT_GE(queued, t.frames_sent);
    const std::uint64_t held = queued - t.frames_sent;
    EXPECT_LE(held, t.delayed);
    if (t.delayed == 0) {
      EXPECT_EQ(held, 0u);
    }

    std::uint64_t delivered = 0;
    for (PartyId p = 0; p < n; ++p) {
      const auto& chatter = dynamic_cast<ChatterProcess&>(runner.process(p));
      for (const auto& [round, inbox] : chatter.received_) {
        for (const auto& [from, payload] : inbox) {
          if (from != p) ++delivered;
        }
      }
    }
    EXPECT_EQ(t.frames_received, t.frames_sent);
    EXPECT_EQ(t.frames_received, delivered + t.stale_discarded);
    EXPECT_EQ(t.bytes_received, t.bytes_sent);
    EXPECT_EQ(t.decode_errors, 0u);
  }
  // Each single-fault plan fired its own counter.
  EXPECT_GT(by_plan["drop=0.3"].dropped, 0u);
  EXPECT_GT(by_plan["dup=0.3"].duplicated, 0u);
  EXPECT_GT(by_plan["corrupt=0.3"].corrupted, 0u);
  EXPECT_GT(by_plan["crash=1@3"].suppressed, 0u);
  // With delay alone, a delayed frame is either discarded as stale or
  // still held when the run ends.
  const LinkStats& delayed = by_plan["delay=0.3"];
  EXPECT_GT(delayed.stale_discarded, 0u);
  EXPECT_EQ(delayed.stale_discarded + (offered - delayed.frames_sent),
            delayed.delayed);
}

TEST(NetRunner, PlanCrashedPartyCausesNoTimeouts) {
  const std::size_t n = 4;
  const Round rounds = 6;
  NetOptions options;
  options.faults = FaultPlan::parse("crash=1@3");
  options.round_timeout_ms = 200;

  NetRunner runner(n, options);
  for (PartyId p = 0; p < n; ++p) {
    runner.set_process(p, std::make_unique<ChatterProcess>());
  }
  runner.run(rounds);

  // The plan is public: peers skip the crashed party's barrier instead of
  // burning the deadline, so the run is deterministic and timeout-free.
  for (PartyId p = 0; p < n; ++p) {
    EXPECT_EQ(runner.party_stats(p).timeouts, 0u);
    EXPECT_EQ(runner.party_stats(p).rounds_completed, rounds);
  }
  EXPECT_EQ(runner.totals().suppressed, (n - 1) * (rounds - 2));
  // The crashed party still hears everyone; peers stop hearing it from its
  // crash round on.
  const auto& crashed = dynamic_cast<ChatterProcess&>(runner.process(1));
  const auto& peer = dynamic_cast<ChatterProcess&>(runner.process(0));
  EXPECT_EQ(crashed.received_.at(rounds).size(), n);
  EXPECT_EQ(peer.received_.at(2).size(), n);
  EXPECT_EQ(peer.received_.at(3).size(), n - 1);
}

TEST(NetRunner, CrashedPartyWritesNothingFromItsCrashRound) {
  // Fault decisions for rounds before the crash do not depend on the run's
  // length, so a crashed party's links carry exactly what they carry when
  // the run stops just before its crash round — including no frame a
  // delay held from earlier rounds and made due at or after the crash.
  const std::size_t n = 4;
  const PartyId crashed = 2;
  const Round crash_round = 5;
  NetOptions options;
  options.faults = FaultPlan::parse("delay=0.5,crash=2@5");
  options.seed = 3;
  const auto run_for = [&](Round rounds) {
    auto runner = std::make_unique<NetRunner>(n, options);
    for (PartyId p = 0; p < n; ++p) {
      runner->set_process(p, std::make_unique<ChatterProcess>());
    }
    runner->run(rounds);
    return runner;
  };
  const auto full = run_for(8);
  const auto cut = run_for(crash_round - 1);
  std::uint64_t suppressed = 0;
  for (PartyId q = 0; q < n; ++q) {
    if (q == crashed) continue;
    const LinkStats a = full->link_stats(crashed, q);
    const LinkStats b = cut->link_stats(crashed, q);
    EXPECT_EQ(a.frames_sent, b.frames_sent) << "link to " << q;
    EXPECT_EQ(a.bytes_sent, b.bytes_sent) << "link to " << q;
    suppressed += a.suppressed;
  }
  // One frame per link per round from the crash round on, plus the held
  // frames that were due after the crash.
  EXPECT_GT(suppressed, (n - 1) * (8 - crash_round + 1));
}

TEST(NetRunner, UnplannedStallTripsTheDeadline) {
  const std::size_t n = 3;
  const Round rounds = 3;
  NetOptions options;
  options.round_timeout_ms = 150;

  NetRunner runner(n, options);
  runner.set_process(0, std::make_unique<ChatterProcess>());
  runner.set_process(1, std::make_unique<SlowChatterProcess>(2, 600));
  runner.set_process(2, std::make_unique<ChatterProcess>());
  runner.run(rounds);

  // Both live peers evicted the stalled party exactly once and completed
  // the full round budget regardless.
  EXPECT_GE(runner.party_stats(0).timeouts, 1u);
  EXPECT_GE(runner.party_stats(2).timeouts, 1u);
  for (PartyId p = 0; p < n; ++p) {
    EXPECT_EQ(runner.party_stats(p).rounds_completed, rounds);
  }
}

TEST(NetRunner, RunIsSingleShot) {
  NetRunner runner(2, NetOptions{});
  runner.set_process(0, std::make_unique<ChatterProcess>());
  runner.set_process(1, std::make_unique<ChatterProcess>());
  runner.run(1);
  EXPECT_THROW(runner.run(1), std::invalid_argument);
}

TEST(NetRunner, RequiresAProcessPerParty) {
  NetRunner runner(2, NetOptions{});
  runner.set_process(0, std::make_unique<ChatterProcess>());
  EXPECT_THROW(runner.run(1), std::invalid_argument);
}

}  // namespace
}  // namespace treeaa::net
