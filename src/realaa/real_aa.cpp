#include "realaa/real_aa.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"
#include "realaa/wire.h"

namespace treeaa::realaa {

std::size_t Config::iterations() const {
  return iterations_for(mode, known_range, eps, n, t);
}

double trimmed_update(std::span<double> w, std::size_t t, UpdateRule rule) {
  TREEAA_REQUIRE_MSG(w.size() > 2 * t,
                     "trimmed update needs |w| > 2t (|w| = " << w.size()
                                                             << ", t = " << t
                                                             << ")");
  std::sort(w.begin(), w.end());
  const auto first = w.begin() + static_cast<std::ptrdiff_t>(t);
  const auto last = w.end() - static_cast<std::ptrdiff_t>(t);
  switch (rule) {
    case UpdateRule::kTrimmedMean: {
      const double sum = std::accumulate(first, last, 0.0);
      return sum / static_cast<double>(last - first);
    }
    case UpdateRule::kTrimmedMidpoint:
      return (*first + *(last - 1)) / 2.0;
  }
  TREEAA_CHECK_MSG(false, "unknown update rule");
  return 0.0;
}

double trimmed_update(std::vector<double> w, std::size_t t, UpdateRule rule) {
  return trimmed_update(std::span<double>(w), t, rule);
}

RealAAProcess::RealAAProcess(const Config& config, PartyId self, double input)
    : config_(config),
      iterations_(config.iterations()),
      self_(self),
      value_(input) {
  TREEAA_REQUIRE(config.n > 3 * config.t);
  TREEAA_REQUIRE(self < config.n);
  faulty_.assign(config.n, false);
  history_.reserve(iterations_ + 1);
  iteration_stats_.reserve(iterations_);
  w_.reserve(config.n);
  history_.push_back(value_);
  if (iterations_ == 0) output_ = value_;
}

void RealAAProcess::on_round_begin(Round, sim::Mailer& out) {
  if (output_.has_value()) return;  // done; stay silent if driven further
  const std::size_t step = local_round_ % gradecast::kRounds;
  if (step == 0) {
    const ValueBytes wire = encode_value_array(value_);
    if (batch_.has_value()) {
      batch_->restart(wire, faulty_);
    } else {
      batch_.emplace(self_, config_.n, config_.t, wire, faulty_);
    }
  }
  batch_->on_step_begin(step, out);
}

void RealAAProcess::on_round_end(Round, std::span<const sim::Envelope> inbox) {
  if (output_.has_value()) return;
  const std::size_t step = local_round_ % gradecast::kRounds;
  batch_->on_step_end(step, inbox);
  ++local_round_;
  if (step == gradecast::kRounds - 1) finish_iteration();
}

void RealAAProcess::finish_iteration() {
  const auto& results = batch_->results();
  // The iteration ending now, 1-based (element 0 of history_ is the input).
  const std::size_t iteration = history_.size();
  IterationStats stats;
  w_.clear();
  for (PartyId l = 0; l < config_.n; ++l) {
    const gradecast::GradedValue& gv = results[l];
    switch (gv.grade) {
      case 0: ++stats.grade0; break;
      case 1: ++stats.grade1; break;
      default: ++stats.grade2; break;
    }
    const bool known_faulty = faulty_[l];
    if (gv.grade <= 1) {
      // An honest leader always earns grade 2; grade <= 1 is proof of
      // Byzantine behaviour. Refuse to assist this leader's gradecasts
      // forever (see the header: once all honest parties deny a leader, it
      // is stuck at grade 0 — each Byzantine party cheats at most once).
      faulty_[l] = true;
    }
    if (gv.grade >= 1) {
      const auto value = decode_value(*gv.value);
      if (!value.has_value()) {
        // Consistent garbage still exposes its sender: honest leaders
        // encode finite reals. Graded consistency (G3) makes this
        // exclusion uniform across honest parties.
        faulty_[l] = true;
      } else {
        // Grade >= 1 values are used even from leaders already in the
        // fault set: by G2/G3 every honest party with grade >= 1 holds
        // this same value, so inclusion is as consistent as possible.
        w_.push_back(*value);
      }
    }
    if (faulty_[l] && !known_faulty) {
      detections_.push_back(Detection{iteration, l});
    }
  }
  // All honest leaders are present in W (they earn grade 2 everywhere and
  // are never marked faulty), so |W| >= n - t > 2t on the paper's perfect
  // channels. A lossy network beyond the fault budget can starve W; then
  // no trimmed update is safe, so the party keeps its value and records
  // the iteration as starved (sim::Engine raises on it when its channels
  // are perfect).
  stats.used = w_.size();
  if (w_.size() > 2 * config_.t) {
    value_ = trimmed_update(std::span<double>(w_), config_.t, config_.update);
  } else {
    stats.starved = 1;
    ++starved_;
  }
  stats.value_after = value_;
  iteration_stats_.push_back(stats);
  history_.push_back(value_);
  if (history_.size() == iterations_ + 1) {
    output_ = value_;
    batch_.reset();
  }
}

}  // namespace treeaa::realaa
