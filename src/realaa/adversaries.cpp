#include "realaa/adversaries.h"

#include <algorithm>

#include "common/check.h"
#include "gradecast/wire.h"
#include "realaa/wire.h"

namespace treeaa::realaa {

SplitAdversary::SplitAdversary(Options opts) : opts_(std::move(opts)) {
  iterations_ = opts_.config.iterations();
  TREEAA_REQUIRE(opts_.corrupt.size() <= opts_.config.t);
  schedule_ = opts_.schedule;
  if (schedule_.empty() && iterations_ > 0) {
    // Spread the pool as evenly as possible: the optimal split of the
    // lower-bound argument (t_i ~ t / R).
    schedule_.assign(iterations_, opts_.corrupt.size() / iterations_);
    const std::size_t rem = opts_.corrupt.size() % iterations_;
    for (std::size_t i = 0; i < rem; ++i) ++schedule_[i];
  }
  schedule_.resize(iterations_, 0);
}

void SplitAdversary::init(sim::RoundView& view) {
  for (const PartyId p : opts_.corrupt) view.corrupt(p);
}

void SplitAdversary::act(sim::RoundView& view) {
  const Round r = view.round();
  const Round end = opts_.start_round + static_cast<Round>(3 * iterations_);
  if (r < opts_.start_round || r >= end) return;
  const std::size_t rel = r - opts_.start_round;
  const std::size_t step = rel % 3;
  switch (step) {
    case 0:
      plan_iteration(view);
      send_leader_phase(view);
      break;
    case 1:
      send_slot_phase(view, /*support_phase=*/false);
      break;
    case 2:
      send_slot_phase(view, /*support_phase=*/true);
      break;
  }
}

void SplitAdversary::plan_iteration(sim::RoundView& view) {
  observed_.clear();
  plans_.clear();
  // Rushing: read the honest parties' leader broadcasts for this iteration.
  for (const sim::Envelope& e : view.queued()) {
    if (view.is_corrupt(e.from) || observed_.contains(e.from)) continue;
    const auto leader = gradecast::decode_leader_view(e.payload);
    if (!leader.has_value()) continue;
    const auto value = decode_value(*leader);
    if (value.has_value()) observed_.emplace(e.from, *value);
  }
  if (observed_.empty()) return;

  double lo = observed_.begin()->second;
  double hi = lo;
  for (const auto& [p, v] : observed_) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  cover_value_ = (lo + hi) / 2.0;

  // Honest parties sorted by current value; low camp = bottom half, high
  // camp = top half.
  std::vector<PartyId> by_value;
  for (const auto& [p, v] : observed_) by_value.push_back(p);
  std::sort(by_value.begin(), by_value.end(), [&](PartyId a, PartyId b) {
    const double va = observed_.at(a);
    const double vb = observed_.at(b);
    return va != vb ? va < vb : a < b;
  });
  const std::size_t half = by_value.size() / 2;
  const std::vector<PartyId> low_camp(by_value.begin(),
                                      by_value.begin() + static_cast<std::ptrdiff_t>(half));
  const std::vector<PartyId> high_camp(by_value.begin() + static_cast<std::ptrdiff_t>(half),
                                       by_value.end());

  // The designated honest supporters: t + 1 - c of them are needed so that
  // the camp sees exactly t + 1 supports (see header). With c corrupt
  // parties and t + 1 - c > honest count the attack is impossible; the
  // constructor's n > 3t precondition rules that out.
  const std::size_t c = view.corrupt().size();
  TREEAA_CHECK(c >= 1 && c <= opts_.config.t);
  const std::size_t num_supporters = opts_.config.t + 1 - c;
  TREEAA_CHECK(num_supporters <= by_value.size());
  const std::vector<PartyId> supporters(
      by_value.begin(),
      by_value.begin() + static_cast<std::ptrdiff_t>(num_supporters));

  const std::size_t iter = (view.round() - opts_.start_round) / 3;
  std::size_t budget = schedule_[iter];
  bool push_high = true;
  while (budget > 0 && next_fresh_ < opts_.corrupt.size()) {
    EquivocationPlan plan;
    plan.leader = opts_.corrupt[next_fresh_++];
    plan.value = push_high ? hi : lo;
    plan.camp = push_high ? high_camp : low_camp;
    plan.supporters = supporters;
    if (!plan.camp.empty()) plans_.push_back(plan);
    push_high = !push_high;
    --budget;
  }
}

void SplitAdversary::send_leader_phase(sim::RoundView& view) {
  const std::size_t n = view.n();
  const std::size_t t = opts_.config.t;
  const std::size_t num_corrupt = view.corrupt().size();
  TREEAA_CHECK(n > 2 * t && num_corrupt >= 1);
  // Receivers: exactly n - t - c honest parties — enough that the
  // supporters reach n - t echoes once the c corrupt echoes arrive, too few
  // for anyone to reach the threshold without them. Which honest parties is
  // immaterial; take the lowest ids.
  std::vector<PartyId> receivers;
  for (PartyId p = 0; p < n && receivers.size() < n - t - num_corrupt; ++p) {
    if (!view.is_corrupt(p)) receivers.push_back(p);
  }

  for (const EquivocationPlan& plan : plans_) {
    gradecast::encode_leader_into(msg_, encode_value_array(plan.value));
    for (const PartyId rcv : receivers) {
      view.send(plan.leader, rcv, std::span<const std::uint8_t>(msg_));
    }
  }
  // Cover parties broadcast a consistent mid value; burnt equivocators stay
  // silent (every honest party denies them anyway).
  gradecast::encode_leader_into(msg_, encode_value_array(cover_value_));
  for (const PartyId c : view.corrupt()) {
    if (equivocating(c) || burnt(c)) continue;
    view.broadcast(c, msg_);
  }
}

bool SplitAdversary::equivocating(PartyId p) const {
  return std::any_of(plans_.begin(), plans_.end(),
                     [p](const EquivocationPlan& plan) {
                       return plan.leader == p;
                     });
}

bool SplitAdversary::burnt(PartyId p) const {
  return std::find(dead_.begin(), dead_.end(), p) != dead_.end();
}

void SplitAdversary::send_slot_phase(sim::RoundView& view,
                                     bool support_phase) {
  const std::size_t n = view.n();
  // Base slots, identical toward every recipient: truthful for honest
  // leaders, the cover value for live cover parties, ⊥ for burnt leaders
  // and for this iteration's equivocators (overridden per recipient below).
  // Slots are views into wire_values_, which is sized before any is taken.
  wire_values_.resize(n + plans_.size());
  base_.assign(n, std::nullopt);
  for (PartyId l = 0; l < n; ++l) {
    if (view.is_corrupt(l)) {
      if (equivocating(l) || burnt(l)) continue;
      wire_values_[l] = encode_value_array(cover_value_);
    } else if (observed_.contains(l)) {
      wire_values_[l] = encode_value_array(observed_.at(l));
    } else {
      continue;
    }
    base_[l] = gradecast::ByteView(wire_values_[l]);
  }
  for (std::size_t k = 0; k < plans_.size(); ++k) {
    wire_values_[n + k] = encode_value_array(plans_[k].value);
  }

  const std::uint8_t tag =
      support_phase ? gradecast::kTagSupport : gradecast::kTagEcho;
  for (const PartyId c : view.corrupt()) {
    for (PartyId rcv = 0; rcv < n; ++rcv) {
      slots_ = base_;
      for (std::size_t k = 0; k < plans_.size(); ++k) {
        const EquivocationPlan& plan = plans_[k];
        const auto& targets =
            support_phase ? plan.camp : plan.supporters;
        if (std::find(targets.begin(), targets.end(), rcv) != targets.end()) {
          slots_[plan.leader] = gradecast::ByteView(wire_values_[n + k]);
        }
      }
      gradecast::encode_slots_into(msg_, tag, slots_);
      view.send(c, rcv, std::span<const std::uint8_t>(msg_));
    }
  }

  if (support_phase) {
    // The equivocators are now detected by every honest party; retire them.
    for (const EquivocationPlan& plan : plans_) dead_.push_back(plan.leader);
  }
}

}  // namespace treeaa::realaa
