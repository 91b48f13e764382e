#include "gradecast/gradecast.h"

#include <algorithm>

#include "common/check.h"
#include "gradecast/wire.h"

namespace treeaa::gradecast {

namespace {

bool view_less(ByteView a, ByteView b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool view_eq(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

BatchGradecast::BatchGradecast(PartyId self, std::size_t n, std::size_t t,
                               ByteView my_value,
                               const std::vector<bool>& deny)
    : self_(self), n_(n), t_(t) {
  TREEAA_REQUIRE(self < n);
  TREEAA_REQUIRE_MSG(n > 3 * t, "gradecast requires t < n/3");
  results_.resize(n);
  slot_views_.resize(n);
  runs_.reserve(n);
  // Sized for n values as long as ours, the usual case: the stores then
  // fill without growing, and an echo is the largest message.
  leader_values_.reserve(n * my_value.size());
  my_supports_.reserve(n * my_value.size());
  wire_.reserve(1 + 10 + n * (2 + 10 + my_value.size()));
  restart(my_value, deny);
}

void BatchGradecast::SlotStore::reset(std::size_t n) {
  bytes_.clear();
  slots_.assign(n, {kAbsent, 0});
}

void BatchGradecast::SlotStore::set(PartyId l, ByteView value) {
  slots_[l] = {bytes_.size(), value.size()};
  bytes_.insert(bytes_.end(), value.begin(), value.end());
}

SlotView BatchGradecast::SlotStore::get(PartyId l) const {
  const auto [offset, size] = slots_[l];
  if (offset == kAbsent) return std::nullopt;
  return ByteView(bytes_.data() + offset, size);
}

void BatchGradecast::restart(ByteView my_value,
                             const std::vector<bool>& deny) {
  if (deny.empty()) {
    deny_.assign(n_, false);
  } else {
    TREEAA_REQUIRE(deny.size() == n_);
    deny_ = deny;
  }
  my_value_.assign(my_value.begin(), my_value.end());
  next_step_ = 0;
}

void BatchGradecast::decode_slot_round(std::uint8_t tag,
                                       std::span<const sim::Envelope> inbox) {
  slot_matrix_.assign(n_ * n_, std::nullopt);
  sender_valid_.assign(n_, false);
  for (const sim::Envelope& e : inbox) {
    if (e.from >= n_ || sender_valid_[e.from]) continue;
    const std::span<SlotView> row(
        slot_matrix_.data() + static_cast<std::size_t>(e.from) * n_, n_);
    sender_valid_[e.from] = decode_slots_view(tag, e.payload, row);
  }
}

void BatchGradecast::gather_sorted_slots(PartyId l) {
  runs_.clear();
  bool all_equal = true;
  for (PartyId q = 0; q < n_; ++q) {
    if (!sender_valid_[q]) continue;
    const SlotView& slot = slot_matrix_[static_cast<std::size_t>(q) * n_ + l];
    if (!slot.has_value()) continue;
    if (all_equal && !runs_.empty()) all_equal = view_eq(runs_.front(), *slot);
    runs_.push_back(*slot);
  }
  // Lexicographic ascending — run-length counting over this order visits
  // values exactly as the previous std::map<Bytes, count> iteration did.
  if (!all_equal) std::sort(runs_.begin(), runs_.end(), view_less);
}

void BatchGradecast::broadcast_slots(std::uint8_t tag, const SlotStore& slots,
                                     bool apply_deny, sim::Mailer& out) {
  for (PartyId l = 0; l < n_; ++l) {
    slot_views_[l] = apply_deny && deny_[l] ? std::nullopt : slots.get(l);
  }
  encode_slots_into(wire_, tag, slot_views_);
  out.broadcast(wire_);
}

void BatchGradecast::on_step_begin(std::size_t step, sim::Mailer& out) {
  TREEAA_REQUIRE_MSG(step == next_step_, "gradecast steps must run in order");
  switch (step) {
    case 0:
      encode_leader_into(wire_, my_value_);
      out.broadcast(wire_);
      break;
    case 1:
      // Echo, per leader, the value received from that leader (⊥ slots for
      // leaders we heard nothing valid from or that we deny).
      broadcast_slots(kTagEcho, leader_values_, /*apply_deny=*/true, out);
      break;
    case 2:
      broadcast_slots(kTagSupport, my_supports_, /*apply_deny=*/false, out);
      break;
    default:
      TREEAA_REQUIRE_MSG(false, "gradecast has exactly 3 steps");
  }
}

void BatchGradecast::on_step_end(std::size_t step,
                                 std::span<const sim::Envelope> inbox) {
  TREEAA_REQUIRE_MSG(step == next_step_, "gradecast steps must run in order");
  switch (step) {
    case 0: {
      // Per sender, keep the first message that decodes as a LEADER value;
      // malformed attempts do not shadow a later valid one.
      sender_valid_.assign(n_, false);
      leader_values_.reset(n_);
      for (const sim::Envelope& e : inbox) {
        if (e.from >= n_ || sender_valid_[e.from]) continue;
        const auto value = decode_leader_view(e.payload);
        if (value.has_value()) {
          sender_valid_[e.from] = true;
          leader_values_.set(e.from, *value);
        }
      }
      break;
    }
    case 1: {
      decode_slot_round(kTagEcho, inbox);
      // For each leader: support the (necessarily unique) value echoed by at
      // least n - t parties. Uniqueness: two distinct values with >= n - t
      // echoes each would need 2(n - t) <= n echoers, i.e. n <= 2t,
      // contradicting t < n/3.
      my_supports_.reset(n_);
      for (PartyId l = 0; l < n_; ++l) {
        if (deny_[l]) continue;  // never support a denied leader
        gather_sorted_slots(l);
        for (std::size_t i = 0; i < runs_.size();) {
          std::size_t j = i + 1;
          while (j < runs_.size() && view_eq(runs_[i], runs_[j])) ++j;
          if (j - i >= n_ - t_) {
            my_supports_.set(l, runs_[i]);
            break;
          }
          i = j;
        }
      }
      break;
    }
    case 2: {
      decode_slot_round(kTagSupport, inbox);
      for (PartyId l = 0; l < n_; ++l) {
        gather_sorted_slots(l);
        // The value with the most supporters; all honest supporters agree on
        // one value (see step 1), so >= t + 1 supports pins a unique value.
        // Ties break to the lexicographically smallest value (the ascending
        // scan only replaces on a strictly greater count).
        ByteView best{};
        bool have_best = false;
        std::size_t best_count = 0;
        for (std::size_t i = 0; i < runs_.size();) {
          std::size_t j = i + 1;
          while (j < runs_.size() && view_eq(runs_[i], runs_[j])) ++j;
          if (j - i > best_count) {
            best = runs_[i];
            best_count = j - i;
            have_best = true;
          }
          i = j;
        }
        GradedValue& r = results_[l];
        if (have_best && best_count >= n_ - t_) {
          r.grade = 2;
        } else if (have_best && best_count >= t_ + 1) {
          r.grade = 1;
        } else {
          r.grade = 0;
          r.value.reset();
          continue;
        }
        // Overwrite an engaged value in place, keeping its capacity.
        if (r.value.has_value()) {
          r.value->assign(best.begin(), best.end());
        } else {
          r.value.emplace(best.begin(), best.end());
        }
      }
      break;
    }
    default:
      TREEAA_REQUIRE_MSG(false, "gradecast has exactly 3 steps");
  }
  ++next_step_;
}

const std::vector<GradedValue>& BatchGradecast::results() const {
  TREEAA_CHECK_MSG(finished(), "gradecast results read before step 3");
  return results_;
}

}  // namespace treeaa::gradecast
