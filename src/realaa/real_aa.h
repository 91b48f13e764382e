// RealAA — synchronous Approximate Agreement on real values with
// asymptotically optimal round complexity (Ben-Or–Dolev–Hoch, the paper's
// reference [6]; guarantees restated as the paper's Theorem 3).
//
// Outline (paper §4): the protocol runs R iterations of 3 rounds each. In
// every iteration each party gradecasts its current value. On iteration end,
// party p:
//   * collects W := { v_l : leader l's gradecast returned (v_l, grade >= 1)
//     and v_l decodes to a finite real };
//   * adds every leader with grade <= 1, and every leader whose grade >= 1
//     value failed to decode, to a permanent fault set F_p (an honest leader
//     always earns grade 2 and encodes a finite real, so either event is
//     proof of misbehaviour);
//   * trims the t lowest and the t highest elements of W (at most t elements
//     of W are Byzantine, so everything surviving the trim lies within the
//     honest range — Validity), and updates its value to the mean (or, as a
//     configurable ablation, the midpoint) of the remainder.
//
// The fault set does NOT filter W; it suppresses *participation*: p refuses
// to echo or support the gradecasts of leaders in F_p (the deny list of
// BatchGradecast). This division of labour is what caps every Byzantine
// party at a single "inconsistency event":
//
//   * Honest parties' W entries for a leader can differ only in a
//     (grade 1 vs grade 0) split — grade 2 anywhere forces grade >= 1
//     everywhere (gradecast G2), and all grade >= 1 holders share one value
//     (G3). But a (1 vs 0) split means no honest party saw grade 2, i.e.
//     *every* honest party saw grade <= 1 and puts the leader into its fault
//     set. From then on at most t (Byzantine) parties ever echo that leader,
//     it can never again reach the n - t echo threshold, and it finishes at
//     grade 0 — consistently excluded — in every later iteration.
//   * Had F_p filtered W instead, a leader detected by only a few parties
//     could be excluded by them and included (at grade 2) by everyone else
//     in every later iteration — a repeatable inconsistency that would break
//     the round-optimal convergence.
//
// Hence a corruption budget of t buys at most t inconsistency events across
// all iterations, and the honest range contracts by factor ~ t_i / (n - 2t)
// in an iteration with t_i fresh cheaters — matching Fekete's lower-bound
// shape (paper Theorem 1) instead of the classic 1/2 per iteration.
//
// The iteration count is fixed up front from the public parameters (see
// rounds.h), so the protocol is usable as a drop-in phase inside TreeAA.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "gradecast/gradecast.h"
#include "realaa/engine.h"
#include "realaa/rounds.h"
#include "sim/process.h"

namespace treeaa::realaa {

enum class UpdateRule {
  kTrimmedMean,      // mean of W after trimming (the paper's description)
  kTrimmedMidpoint,  // (min + max) / 2 of W after trimming
};

struct Config {
  std::size_t n = 0;
  std::size_t t = 0;
  /// Target closeness ε (> 0).
  double eps = 1.0;
  /// Public upper bound D on the spread of honest inputs; drives the fixed
  /// iteration count. Honest inputs further apart void the ε guarantee (but
  /// never Validity).
  double known_range = 0.0;
  UpdateRule update = UpdateRule::kTrimmedMean;
  IterationMode mode = IterationMode::kPaperSufficient;

  /// Iterations this configuration runs. Publicly computable: all parties
  /// derive the identical count.
  [[nodiscard]] std::size_t iterations() const;
  /// Total synchronous rounds (3 per iteration).
  [[nodiscard]] std::size_t rounds() const { return 3 * iterations(); }
};

/// One party's RealAA instance. Round indices passed in are *local*: the
/// first round this process is driven with is round 1 of the protocol, so an
/// embedding protocol (TreeAA) can run it at any offset.
class RealAAProcess final : public RealAgreement {
 public:
  RealAAProcess(const Config& config, PartyId self, double input);

  void on_round_begin(Round r, sim::Mailer& out) override;
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override;

  /// Engaged after config.rounds() rounds have completed (immediately for a
  /// 0-iteration config).
  [[nodiscard]] std::optional<double> output() const override {
    return output_;
  }

  /// The fixed public round budget (3 per iteration).
  [[nodiscard]] std::size_t rounds() const override {
    return 3 * iterations_;
  }

  /// Current value (the input before iteration 1; the output at the end).
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double current_value() const override { return value_; }

  /// Value held after each completed iteration (element 0 = the input);
  /// consumed by the convergence benches.
  [[nodiscard]] const std::vector<double>& value_history() const {
    return history_;
  }

  /// Parties this process has detected as Byzantine so far.
  [[nodiscard]] const std::vector<bool>& fault_set() const { return faulty_; }

  [[nodiscard]] std::size_t detected_faulty() const override {
    std::size_t count = 0;
    for (const bool f : faulty_) count += f ? 1 : 0;
    return count;
  }

  /// Iterations that ended with |W| <= 2t (see IterationStats::starved).
  [[nodiscard]] std::size_t starved_iterations() const override {
    return starved_;
  }

  [[nodiscard]] const Config& config() const { return config_; }

  // --- Per-iteration observability ----------------------------------------
  // Tiny, always-on records consumed by the obs probes (and ignored
  // otherwise): the protocol itself never reads them.

  /// Facts about one completed iteration, from this party's view.
  struct IterationStats {
    std::uint64_t grade0 = 0;  // leaders finishing at grade 0
    std::uint64_t grade1 = 0;
    std::uint64_t grade2 = 0;
    std::uint64_t used = 0;    // |W| fed into the trimmed update
    /// 1 if |W| <= 2t, so no trimmed update was possible and the party kept
    /// its value. Impossible on perfect channels (every honest leader is in
    /// W); a lossy network beyond the fault budget can cause it.
    std::uint64_t starved = 0;
    double value_after = 0.0;  // value held after the update
  };
  [[nodiscard]] const std::vector<IterationStats>& iteration_stats() const {
    return iteration_stats_;
  }

  /// A leader newly proven Byzantine. `iteration` is 1-based.
  struct Detection {
    std::size_t iteration = 0;
    PartyId leader = kNoParty;
  };
  [[nodiscard]] const std::vector<Detection>& detections() const {
    return detections_;
  }

 private:
  void finish_iteration();

  Config config_;
  std::size_t iterations_;
  PartyId self_;
  double value_;
  std::vector<double> history_;
  std::vector<bool> faulty_;
  std::size_t local_round_ = 0;  // rounds driven so far
  std::size_t starved_ = 0;
  // One batch for the whole run: built at the first iteration, restarted
  // at every later one, dropped once the output is fixed.
  std::optional<gradecast::BatchGradecast> batch_;
  std::vector<double> w_;  // W of the iteration ending now (scratch)
  std::optional<double> output_;
  std::vector<IterationStats> iteration_stats_;
  std::vector<Detection> detections_;
};

/// The trimmed update shared with the baselines: sorts `w` in place, drops
/// the t lowest and t highest, and applies `rule` to the remainder.
/// Requires |w| > 2t.
[[nodiscard]] double trimmed_update(std::span<double> w, std::size_t t,
                                    UpdateRule rule);

/// trimmed_update on a copy of `w`.
[[nodiscard]] double trimmed_update(std::vector<double> w, std::size_t t,
                                    UpdateRule rule);

}  // namespace treeaa::realaa
