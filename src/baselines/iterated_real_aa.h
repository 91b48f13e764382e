// Baseline: classic iteration-based AA on real values (Dolev, Lynch,
// Pinter, Stark & Weihl — the paper's reference [12]; the "iteration-based
// outline" of the paper's introduction).
//
// Identical distribution mechanism to RealAA (one gradecast batch per
// iteration, 3 rounds), but *stateless across iterations*: no fault memory,
// no denial. Each iteration every party collects the grade >= 1 values,
// trims the t lowest and t highest, and moves to the midpoint of the
// remainder. The honest range halves per iteration — the classic 2^-R
// convergence — so reaching ε takes ceil(log2(D/ε)) iterations, a factor
// Θ(log log(D/ε)) more rounds than RealAA (the gap Fekete's bound says is
// real, and that bench_baseline_comparison measures).
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"
#include "gradecast/gradecast.h"
#include "realaa/engine.h"
#include "sim/process.h"

namespace treeaa::baselines {

struct IteratedRealConfig {
  std::size_t n = 0;
  std::size_t t = 0;
  double eps = 1.0;
  /// Public upper bound on the honest input spread.
  double known_range = 0.0;

  /// ceil(log2(D/eps)); 0 when D <= eps.
  [[nodiscard]] std::size_t iterations() const;
  [[nodiscard]] std::size_t rounds() const { return 3 * iterations(); }
};

class IteratedRealAAProcess final : public realaa::RealAgreement {
 public:
  IteratedRealAAProcess(const IteratedRealConfig& config, PartyId self,
                        double input);

  void on_round_begin(Round r, sim::Mailer& out) override;
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override;

  [[nodiscard]] std::optional<double> output() const override {
    return output_;
  }

  [[nodiscard]] std::size_t rounds() const override {
    return 3 * iterations_;
  }
  [[nodiscard]] double value() const { return value_; }
  [[nodiscard]] double current_value() const override { return value_; }
  [[nodiscard]] const std::vector<double>& value_history() const {
    return history_;
  }
  [[nodiscard]] const IteratedRealConfig& config() const { return config_; }
  /// Iterations that ended with |W| <= 2t, where the party kept its value
  /// (see sim::Process::starved_iterations).
  [[nodiscard]] std::size_t starved_iterations() const override {
    return starved_;
  }

 private:
  void finish_iteration();

  IteratedRealConfig config_;
  std::size_t iterations_;
  PartyId self_;
  double value_;
  std::vector<double> history_;
  std::size_t local_round_ = 0;
  std::size_t starved_ = 0;
  // One batch for the whole run, restarted every iteration.
  std::optional<gradecast::BatchGradecast> batch_;
  std::vector<double> w_;  // the iteration's grade >= 1 values (scratch)
  std::optional<double> output_;
};

}  // namespace treeaa::baselines
