// RealAA-aware Byzantine strategies.
//
// SplitAdversary implements the budget-splitting attack that makes Fekete's
// lower bound (paper Theorem 1) bite: it spends a scheduled number of fresh
// equivocators per iteration, each of which creates exactly one
// (grade 1 vs grade 0) split — the only inconsistency the protocol's
// detect-and-deny mechanism permits — injecting an extreme value into the
// working multisets of a chosen camp of honest parties and nowhere else.
// Because a leader burns itself with every honest party the moment it pulls
// this off, the attack consumes its corruption budget exactly as the
// lower-bound argument prescribes: t_i fresh cheaters in iteration i,
// sum t_i <= t.
//
// Anatomy of one equivocation (n parties, c <= t corrupt, thresholds from
// the gradecast spec):
//   step 0: the equivocator e sends value x to exactly n - t - c honest
//           "receivers" and nothing to anyone else;
//   step 1: the receivers echo x (broadcast: n - t - c echoes visible to
//           all, below the n - t support threshold); all c corrupt parties
//           echo x *only* to t + 1 - c designated honest "supporters", who
//           alone reach n - t echoes;
//   step 2: the supporters support x honestly (broadcast, t + 1 - c <= t
//           supports visible to all); the corrupt parties send supports for
//           x only to the chosen victim camp U, whose members each see
//           exactly t + 1 supports — grade 1, value adopted — while every
//           other honest party sees at most t — grade 0, value rejected.
// Every honest party ends with grade <= 1 for e, so e is denied by all of
// them from the next iteration on: one inconsistency per corrupt party, by
// construction.
//
// The camp U is re-chosen every iteration as the currently-highest-valued
// (or lowest-valued, alternating per equivocator) half of the honest
// parties, and x as the currently observed honest maximum (minimum), so the
// inconsistencies compound into a persistent spread instead of cancelling.
#pragma once

#include <map>
#include <vector>

#include "common/types.h"
#include "gradecast/wire.h"
#include "realaa/real_aa.h"
#include "realaa/wire.h"
#include "sim/adversary.h"

namespace treeaa::realaa {

class SplitAdversary final : public sim::Adversary {
 public:
  struct Options {
    /// The configuration of the RealAA instance under attack.
    Config config;
    /// Parties corrupted at init (at most config.t of them).
    std::vector<PartyId> corrupt;
    /// Engine round at which the attacked instance runs its round 1.
    Round start_round = 1;
    /// Fresh equivocators to spend in each iteration. Empty = spread the
    /// corrupt pool evenly over the instance's iterations (the optimal
    /// split of the lower-bound argument).
    std::vector<std::size_t> schedule;
  };

  explicit SplitAdversary(Options opts);

  void init(sim::RoundView& view) override;
  void act(sim::RoundView& view) override;

 private:
  struct EquivocationPlan {
    PartyId leader;
    double value;  // x: the injected extreme
    std::vector<PartyId> supporters;  // honest parties pushed to support x
    std::vector<PartyId> camp;        // U: honest parties that will adopt x
  };

  void plan_iteration(sim::RoundView& view);
  void send_leader_phase(sim::RoundView& view);
  void send_slot_phase(sim::RoundView& view, bool support_phase);
  [[nodiscard]] bool equivocating(PartyId p) const;  // in this iteration
  [[nodiscard]] bool burnt(PartyId p) const;

  Options opts_;
  std::size_t iterations_;
  std::vector<std::size_t> schedule_;
  std::size_t next_fresh_ = 0;  // index into opts_.corrupt of next fresh eq
  // Per-iteration state, rebuilt in step 0.
  std::map<PartyId, double> observed_;  // honest leader values this iteration
  std::vector<EquivocationPlan> plans_;
  std::vector<PartyId> dead_;  // equivocators burnt in earlier iterations
  double cover_value_ = 0.0;   // consistent value for non-equivocating corrupt
  // Send scratch, reused every round: the wire form of each leader's slot
  // value (then of each plan's value), the slot views, and the message.
  std::vector<ValueBytes> wire_values_;
  std::vector<gradecast::SlotView> base_;
  std::vector<gradecast::SlotView> slots_;
  Bytes msg_;
};

}  // namespace treeaa::realaa
