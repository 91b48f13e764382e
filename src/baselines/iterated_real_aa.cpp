#include "baselines/iterated_real_aa.h"

#include <cmath>

#include "common/check.h"
#include "realaa/real_aa.h"
#include "realaa/wire.h"

namespace treeaa::baselines {

std::size_t IteratedRealConfig::iterations() const {
  TREEAA_REQUIRE(known_range >= 0 && eps > 0);
  const double delta = known_range / eps;
  if (delta <= 1.0) return 0;
  return static_cast<std::size_t>(std::ceil(std::log2(delta)));
}

IteratedRealAAProcess::IteratedRealAAProcess(const IteratedRealConfig& config,
                                             PartyId self, double input)
    : config_(config),
      iterations_(config.iterations()),
      self_(self),
      value_(input) {
  TREEAA_REQUIRE(config.n > 3 * config.t);
  TREEAA_REQUIRE(self < config.n);
  history_.reserve(iterations_ + 1);
  w_.reserve(config.n);
  history_.push_back(value_);
  if (iterations_ == 0) output_ = value_;
}

void IteratedRealAAProcess::on_round_begin(Round, sim::Mailer& out) {
  if (output_.has_value()) return;
  const std::size_t step = local_round_ % gradecast::kRounds;
  if (step == 0) {
    const realaa::ValueBytes wire = realaa::encode_value_array(value_);
    if (batch_.has_value()) {
      batch_->restart(wire, {});
    } else {
      batch_.emplace(self_, config_.n, config_.t, wire);
    }
  }
  batch_->on_step_begin(step, out);
}

void IteratedRealAAProcess::on_round_end(Round,
                                         std::span<const sim::Envelope> inbox) {
  if (output_.has_value()) return;
  const std::size_t step = local_round_ % gradecast::kRounds;
  batch_->on_step_end(step, inbox);
  ++local_round_;
  if (step == gradecast::kRounds - 1) finish_iteration();
}

void IteratedRealAAProcess::finish_iteration() {
  w_.clear();
  for (const gradecast::GradedValue& gv : batch_->results()) {
    if (gv.grade < 1) continue;
    const auto value = realaa::decode_value(*gv.value);
    if (value.has_value()) w_.push_back(*value);
  }
  // |W| >= n - t > 2t on perfect channels; a starved iteration (only a
  // lossy network beyond the fault budget) keeps the value, as in RealAA.
  if (w_.size() > 2 * config_.t) {
    value_ = realaa::trimmed_update(std::span<double>(w_), config_.t,
                                    realaa::UpdateRule::kTrimmedMidpoint);
  } else {
    ++starved_;
  }
  history_.push_back(value_);
  if (history_.size() == iterations_ + 1) {
    output_ = value_;
    batch_.reset();
  }
}

}  // namespace treeaa::baselines
