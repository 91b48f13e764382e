#include "sim/strategies.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace treeaa::sim {

SilentAdversary::SilentAdversary(std::vector<PartyId> victims)
    : victims_(std::move(victims)) {}

void SilentAdversary::init(RoundView& view) {
  for (const PartyId p : victims_) view.corrupt(p);
}

CrashAdversary::CrashAdversary(std::vector<Crash> crashes)
    : crashes_(std::move(crashes)) {}

void CrashAdversary::act(RoundView& view) {
  for (const Crash& c : crashes_) {
    if (c.round != view.round()) continue;
    auto retracted = view.corrupt(c.party);
    const auto kept = static_cast<std::size_t>(
        c.delivered_fraction * static_cast<double>(retracted.size()));
    for (std::size_t i = 0; i < std::min(kept, retracted.size()); ++i) {
      view.send(c.party, retracted[i].to, retracted[i].payload.take());
    }
  }
}

FuzzAdversary::FuzzAdversary(std::vector<PartyId> victims, std::uint64_t seed,
                             std::size_t messages_per_round,
                             std::size_t max_payload)
    : victims_(std::move(victims)),
      rng_(seed),
      messages_per_round_(messages_per_round),
      max_payload_(max_payload) {}

void FuzzAdversary::init(RoundView& view) {
  for (const PartyId p : victims_) view.corrupt(p);
}

void FuzzAdversary::act(RoundView& view) {
  if (victims_.empty()) return;
  for (std::size_t i = 0; i < messages_per_round_; ++i) {
    const PartyId from = rng_.pick(victims_);
    const PartyId to = static_cast<PartyId>(rng_.index(view.n()));
    payload_.resize(rng_.index(max_payload_ + 1));
    for (auto& b : payload_) b = static_cast<std::uint8_t>(rng_.next());
    view.send(from, to, std::span<const std::uint8_t>(payload_));
  }
}

ReplayAdversary::ReplayAdversary(std::vector<PartyId> victims,
                                 std::uint64_t seed,
                                 std::size_t messages_per_round)
    : victims_(std::move(victims)),
      rng_(seed),
      messages_per_round_(messages_per_round) {}

void ReplayAdversary::init(RoundView& view) {
  for (const PartyId p : victims_) view.corrupt(p);
}

void ReplayAdversary::act(RoundView& view) {
  if (victims_.empty()) return;
  // Replay before recording, so everything sent is at least a round stale.
  if (!recorded_.empty()) {
    for (std::size_t i = 0; i < messages_per_round_; ++i) {
      const PartyId from = rng_.pick(victims_);
      const PartyId to = static_cast<PartyId>(rng_.index(view.n()));
      view.send(from, to, std::span<const std::uint8_t>(rng_.pick(recorded_)));
    }
  }
  // Record a bounded sample of this round's honest payloads.
  for (const Envelope& e : view.queued()) {
    if (view.is_corrupt(e.from)) continue;
    if (recorded_.size() < 512) {
      recorded_.push_back(e.payload);
    } else {
      recorded_[rng_.index(recorded_.size())] = e.payload;
    }
  }
}

PuppetAdversary::PuppetAdversary(std::vector<Puppet> puppets)
    : puppets_(std::move(puppets)) {}

void PuppetAdversary::init(RoundView& view) {
  for (const Puppet& p : puppets_) view.corrupt(p.party);
}

std::function<bool(const Envelope&)> PuppetAdversary::random_drops(
    double drop_probability, std::uint64_t seed) {
  TREEAA_REQUIRE(drop_probability >= 0.0 && drop_probability <= 1.0);
  // Shared state so the closure stays copyable.
  auto rng = std::make_shared<Rng>(seed);
  return [rng, drop_probability](const Envelope&) {
    return !rng->chance(drop_probability);
  };
}

void PuppetAdversary::act(RoundView& view) {
  ++local_round_;
  // Send phase: puppets queue their messages like honest parties would,
  // minus whatever their omission filter swallows.
  for (Puppet& p : puppets_) {
    std::vector<Envelope> outbox;
    Mailer mailer(p.party, view.n(), outbox, view.round());
    p.process->on_round_begin(local_round_, mailer);
    for (Envelope& e : outbox) {
      if (p.send_filter && !p.send_filter(e)) continue;
      view.send(p.party, e.to, e.payload.take());
    }
  }
  // Delivery phase: after the sends above, this round's traffic is final
  // (the adversary acts last), so puppet inboxes can be assembled now. The
  // honest processes receive the identical set after act() returns.
  for (Puppet& p : puppets_) {
    std::vector<Envelope> inbox;
    for (const Envelope& e : view.queued()) {
      if (e.to == p.party) inbox.push_back(e);
    }
    std::stable_sort(inbox.begin(), inbox.end(),
                     [](const Envelope& a, const Envelope& b) {
                       return a.from < b.from;
                     });
    p.process->on_round_end(local_round_, inbox);
  }
}

ComposedAdversary::ComposedAdversary(
    std::vector<std::unique_ptr<Adversary>> parts)
    : parts_(std::move(parts)) {
  for (const auto& p : parts_) TREEAA_REQUIRE(p != nullptr);
}

void ComposedAdversary::init(RoundView& view) {
  for (auto& p : parts_) p->init(view);
}

void ComposedAdversary::act(RoundView& view) {
  for (auto& p : parts_) p->act(view);
}

std::vector<PartyId> first_parties(std::size_t k) {
  std::vector<PartyId> out(k);
  std::iota(out.begin(), out.end(), 0u);
  return out;
}

std::vector<PartyId> random_parties(std::size_t n, std::size_t k, Rng& rng) {
  TREEAA_REQUIRE(k <= n);
  std::vector<PartyId> all(n);
  std::iota(all.begin(), all.end(), 0u);
  rng.shuffle(all);
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace treeaa::sim
