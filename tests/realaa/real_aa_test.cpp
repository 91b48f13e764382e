// RealAA (Theorem 3): Termination, Validity, eps-Agreement under the full
// adversary zoo, plus the trimmed-update and detection mechanics.
#include "realaa/real_aa.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "harness/runner.h"
#include "realaa/adversaries.h"
#include "realaa/wire.h"
#include "sim/engine.h"
#include "sim/link.h"
#include "sim/strategies.h"

namespace treeaa::realaa {
namespace {

Config make_config(std::size_t n, std::size_t t, double D, double eps = 1.0) {
  Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.eps = eps;
  cfg.known_range = D;
  return cfg;
}

void expect_aa(const harness::RealRun& run, const std::vector<double>& inputs,
               const std::vector<PartyId>& corrupt, double eps) {
  // Range of honest inputs.
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (PartyId p = 0; p < inputs.size(); ++p) {
    if (std::find(corrupt.begin(), corrupt.end(), p) != corrupt.end()) {
      continue;
    }
    lo = std::min(lo, inputs[p]);
    hi = std::max(hi, inputs[p]);
  }
  const auto outs = run.honest_outputs();
  ASSERT_FALSE(outs.empty());
  for (const double v : outs) {
    EXPECT_GE(v, lo - 1e-12);  // Validity
    EXPECT_LE(v, hi + 1e-12);
  }
  EXPECT_LE(run.output_range(), eps + 1e-12);  // eps-Agreement
}

TEST(RealAA, HonestRunConvergesToExactAgreement) {
  const auto cfg = make_config(4, 1, 100.0);
  const std::vector<double> inputs{0.0, 100.0, 25.0, 60.0};
  const auto run = harness::run_real_aa(cfg, inputs);
  expect_aa(run, inputs, {}, cfg.eps);
  // With no Byzantine interference the multisets coincide, so one iteration
  // in, everyone holds the identical value.
  EXPECT_EQ(run.output_range(), 0.0);
}

TEST(RealAA, ZeroIterationConfigOutputsInput) {
  const auto cfg = make_config(4, 1, 0.5);  // D < eps
  const std::vector<double> inputs{0.1, 0.2, 0.3, 0.15};
  const auto run = harness::run_real_aa(cfg, inputs);
  EXPECT_EQ(run.rounds, 0u);
  for (PartyId p = 0; p < 4; ++p) EXPECT_EQ(*run.outputs[p], inputs[p]);
}

TEST(RealAA, TerminationWithinConfiguredRounds) {
  for (double D : {2.0, 50.0, 5000.0}) {
    const auto cfg = make_config(7, 2, D);
    const auto inputs = harness::spread_real_inputs(7, 0.0, D);
    const auto run = harness::run_real_aa(cfg, inputs);
    EXPECT_EQ(run.rounds, cfg.rounds());
    EXPECT_EQ(run.rounds, 3 * cfg.iterations());
    expect_aa(run, inputs, {}, cfg.eps);
  }
}

TEST(RealAA, SilentByzantineDoNotAffectGuarantees) {
  const auto cfg = make_config(7, 2, 1000.0);
  const auto inputs = harness::spread_real_inputs(7, -500.0, 500.0);
  auto adv =
      std::make_unique<sim::SilentAdversary>(std::vector<PartyId>{0, 6});
  const auto run = harness::run_real_aa(cfg, inputs, std::move(adv));
  expect_aa(run, inputs, {0, 6}, cfg.eps);
}

TEST(RealAA, FuzzGarbageCannotBreakAgreement) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const auto cfg = make_config(7, 2, 128.0);
    Rng rng(seed);
    const auto inputs = harness::random_real_inputs(7, 0.0, 128.0, rng);
    auto adv = std::make_unique<sim::FuzzAdversary>(
        std::vector<PartyId>{2, 4}, seed, 30, 60);
    const auto run = harness::run_real_aa(cfg, inputs, std::move(adv));
    expect_aa(run, inputs, {2, 4}, cfg.eps);
  }
}

TEST(RealAA, ExtremeInputPuppetsCannotDragOutputs) {
  // Corrupt parties run the protocol honestly but with inputs far outside
  // the honest range; Validity must confine honest outputs regardless.
  const auto cfg = make_config(10, 3, 10.0);
  std::vector<double> inputs(10, 0.0);
  for (PartyId p = 0; p < 10; ++p) inputs[p] = static_cast<double>(p % 4);
  auto adv = harness::make_extreme_input_puppets(cfg, {7, 8, 9}, -1e6, 1e6);
  const auto run = harness::run_real_aa(cfg, inputs, std::move(adv));
  expect_aa(run, inputs, {7, 8, 9}, cfg.eps);
}

TEST(RealAA, CrashMidProtocolIsTolerated) {
  const auto cfg = make_config(7, 2, 300.0);
  const auto inputs = harness::spread_real_inputs(7, 0.0, 300.0);
  auto adv = std::make_unique<sim::CrashAdversary>(
      std::vector<sim::CrashAdversary::Crash>{{1, 2, 0.5}, {5, 4, 0.0}});
  const auto run = harness::run_real_aa(cfg, inputs, std::move(adv));
  expect_aa(run, inputs, {1, 5}, cfg.eps);
}

TEST(RealAA, SubUnitEpsilonTargets) {
  // eps far below 1 (the clock-sync regime): the guarantee scales.
  for (double eps : {0.1, 1e-3, 1e-6}) {
    const std::size_t n = 7, t = 2;
    Config cfg = make_config(n, t, 100.0, eps);
    const auto inputs = harness::spread_real_inputs(n, 0.0, 100.0);
    SplitAdversary::Options opts;
    opts.config = cfg;
    opts.corrupt = {5, 6};
    const auto run = harness::run_real_aa(
        cfg, inputs, std::make_unique<SplitAdversary>(std::move(opts)));
    EXPECT_LE(run.output_range(), eps) << "eps " << eps;
    EXPECT_EQ(run.rounds, cfg.rounds());
  }
}

TEST(RealAA, LargeScaleSmoke) {
  // Guard against scale regressions: n = 31 with the full adversary budget.
  const std::size_t n = 31, t = 10;
  const auto cfg = make_config(n, t, 1e6);
  const auto inputs = harness::spread_real_inputs(n, 0.0, 1e6);
  SplitAdversary::Options opts;
  opts.config = cfg;
  for (std::size_t i = 0; i < t; ++i) {
    opts.corrupt.push_back(static_cast<PartyId>(n - 1 - i));
  }
  opts.schedule.assign(cfg.iterations(), 1);
  const auto run = harness::run_real_aa(
      cfg, inputs, std::make_unique<SplitAdversary>(std::move(opts)));
  expect_aa(run, inputs, run.corrupt, cfg.eps);
}

// --- The split attack (Fekete-style) ----------------------------------------

TEST(RealAA, SplitAdversaryCannotBreakAgreementOrValidity) {
  for (std::size_t n : {4u, 7u, 10u, 13u, 16u}) {
    const std::size_t t = (n - 1) / 3;
    const auto cfg = make_config(n, t, 1000.0);
    const auto inputs = harness::spread_real_inputs(n, 0.0, 1000.0);
    SplitAdversary::Options opts;
    opts.config = cfg;
    for (std::size_t i = 0; i < t; ++i) {
      opts.corrupt.push_back(static_cast<PartyId>(n - 1 - i));
    }
    auto run = harness::run_real_aa(
        cfg, inputs, std::make_unique<SplitAdversary>(std::move(opts)));
    expect_aa(run, inputs, run.corrupt, cfg.eps);
  }
}

TEST(RealAA, SplitAdversaryActuallySlowsConvergence) {
  // Sanity check that the attack bites: after iteration 1 the honest values
  // must NOT have collapsed to a point (they do in any honest run).
  const std::size_t n = 10, t = 3;
  const auto cfg = make_config(n, t, 1000.0);
  const auto inputs = harness::spread_real_inputs(n, 0.0, 1000.0);
  SplitAdversary::Options opts;
  opts.config = cfg;
  opts.corrupt = {7, 8, 9};
  opts.schedule.assign(cfg.iterations(), 1);  // one equivocator per iteration
  const auto run = harness::run_real_aa(
      cfg, inputs, std::make_unique<SplitAdversary>(std::move(opts)));
  double range_after_1 = 0;
  double lo = std::numeric_limits<double>::infinity(), hi = -lo;
  for (PartyId p = 0; p < n; ++p) {
    if (run.histories[p].empty()) continue;
    lo = std::min(lo, run.histories[p][1]);
    hi = std::max(hi, run.histories[p][1]);
  }
  range_after_1 = hi - lo;
  EXPECT_GT(range_after_1, 0.0);
  // And yet the final guarantee still holds.
  expect_aa(run, inputs, run.corrupt, cfg.eps);
}

TEST(RealAA, PerIterationContractionRespectsTheoreticalFactor) {
  // In an iteration with t_i fresh equivocators, the range contracts by at
  // least a factor t_i / (n - 2t) (paper §4). Verify per-iteration ranges
  // against that envelope under the optimal split schedule.
  const std::size_t n = 13, t = 4;
  const auto cfg = make_config(n, t, 10000.0);
  const auto inputs = harness::spread_real_inputs(n, 0.0, 10000.0);
  SplitAdversary::Options opts;
  opts.config = cfg;
  opts.corrupt = {9, 10, 11, 12};
  const auto schedule = [&] {
    std::vector<std::size_t> s(cfg.iterations(), 0);
    for (std::size_t i = 0; i < opts.corrupt.size() && i < s.size(); ++i) {
      s[i] = 1;
    }
    return s;
  }();
  opts.schedule = schedule;
  const auto run = harness::run_real_aa(
      cfg, inputs, std::make_unique<SplitAdversary>(std::move(opts)));

  const std::size_t iters = cfg.iterations();
  std::vector<double> range(iters + 1, 0.0);
  for (std::size_t k = 0; k <= iters; ++k) {
    double lo = std::numeric_limits<double>::infinity(), hi = -lo;
    for (PartyId p = 0; p < n; ++p) {
      if (run.histories[p].empty()) continue;
      lo = std::min(lo, run.histories[p][k]);
      hi = std::max(hi, run.histories[p][k]);
    }
    range[k] = hi - lo;
  }
  for (std::size_t k = 1; k <= iters; ++k) {
    const double t_k = static_cast<double>(schedule[k - 1]);
    const double envelope =
        range[k - 1] * (t_k + 1.0) / static_cast<double>(n - 2 * t);
    EXPECT_LE(range[k], envelope + 1e-9) << "iteration " << k;
  }
  expect_aa(run, inputs, run.corrupt, cfg.eps);
}

// --- Detection mechanics -----------------------------------------------------

TEST(RealAA, EquivocatorsEndUpInEveryHonestFaultSet) {
  const std::size_t n = 7, t = 2;
  const auto cfg = make_config(n, t, 100.0);
  const auto inputs = harness::spread_real_inputs(n, 0.0, 100.0);

  sim::Engine engine(n, t);
  std::vector<RealAAProcess*> procs(n);
  for (PartyId p = 0; p < n; ++p) {
    auto proc = std::make_unique<RealAAProcess>(cfg, p, inputs[p]);
    procs[p] = proc.get();
    engine.set_process(p, std::move(proc));
  }
  SplitAdversary::Options opts;
  opts.config = cfg;
  opts.corrupt = {5, 6};
  opts.schedule = {2};  // both equivocate in iteration 1
  engine.set_adversary(std::make_unique<SplitAdversary>(std::move(opts)));
  engine.run(static_cast<Round>(cfg.rounds()));

  for (PartyId p = 0; p < n; ++p) {
    if (engine.is_corrupt(p)) continue;
    EXPECT_TRUE(procs[p]->fault_set()[5]) << "party " << p;
    EXPECT_TRUE(procs[p]->fault_set()[6]) << "party " << p;
    // Honest parties never accuse each other.
    for (PartyId q = 0; q < 5; ++q) {
      EXPECT_FALSE(procs[p]->fault_set()[q]) << p << " accused " << q;
    }
  }
}

TEST(RealAA, HistoryTracksEveryIteration) {
  const auto cfg = make_config(4, 1, 64.0);
  const std::vector<double> inputs{0, 64, 32, 16};
  const auto run = harness::run_real_aa(cfg, inputs);
  for (PartyId p = 0; p < 4; ++p) {
    ASSERT_EQ(run.histories[p].size(), cfg.iterations() + 1);
    EXPECT_EQ(run.histories[p].front(), inputs[p]);
    EXPECT_EQ(run.histories[p].back(), *run.outputs[p]);
  }
}

TEST(RealAA, RejectsBadConfig) {
  EXPECT_THROW(RealAAProcess(make_config(3, 1, 10.0), 0, 0.0),
               std::invalid_argument);
  EXPECT_THROW(RealAAProcess(make_config(4, 1, 10.0), 4, 0.0),
               std::invalid_argument);
}

// --- trimmed_update ----------------------------------------------------------

TEST(TrimmedUpdate, MeanAndMidpoint) {
  EXPECT_EQ(trimmed_update({1, 2, 3}, 0, UpdateRule::kTrimmedMean), 2.0);
  EXPECT_EQ(trimmed_update({5, 100, -100, 7, 9}, 1, UpdateRule::kTrimmedMean),
            7.0);
  EXPECT_EQ(
      trimmed_update({5, 100, -100, 7, 8}, 1, UpdateRule::kTrimmedMidpoint),
      6.5);
}

TEST(TrimmedUpdate, ResultInsideTrimmedRange) {
  Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t t = rng.index(3);
    const std::size_t m = 2 * t + 1 + rng.index(8);
    std::vector<double> w;
    for (std::size_t i = 0; i < m; ++i) {
      w.push_back(rng.unit() * 100 - 50);
    }
    auto sorted = w;
    std::sort(sorted.begin(), sorted.end());
    const double lo = sorted[t];
    const double hi = sorted[m - 1 - t];
    for (const auto rule :
         {UpdateRule::kTrimmedMean, UpdateRule::kTrimmedMidpoint}) {
      const double v = trimmed_update(w, t, rule);
      EXPECT_GE(v, lo - 1e-12);
      EXPECT_LE(v, hi + 1e-12);
    }
  }
}

TEST(TrimmedUpdate, RequiresEnoughValues) {
  EXPECT_THROW(
      (void)trimmed_update({1, 2}, 1, UpdateRule::kTrimmedMean),
      std::invalid_argument);
}

TEST(TrimmedUpdate, SortsASpanInPlace) {
  std::vector<double> w{9, -100, 5, 100, 7};
  EXPECT_EQ(trimmed_update(std::span<double>(w), 1, UpdateRule::kTrimmedMean),
            7.0);
  EXPECT_EQ(w, (std::vector<double>{-100, 5, 7, 9, 100}));
}

// --- Starved iterations ------------------------------------------------------

/// Delivers only the messages a party sends itself: every iteration ends
/// with |W| <= 2t, as under a network fault plan far beyond the budget.
class SelfOnlyLinks final : public sim::LinkLayer {
 public:
  std::vector<sim::Envelope> deliver(
      Round, std::vector<sim::Envelope> queued) override {
    std::vector<sim::Envelope> out;
    for (auto& e : queued) {
      if (e.from == e.to) out.push_back(std::move(e));
    }
    return out;
  }
};

TEST(RealAAStarved, LossyLinksKeepTheValueAndCountTheIteration) {
  const auto cfg = make_config(4, 1, 100.0);
  ASSERT_GE(cfg.iterations(), 2u);
  sim::Engine engine(4, 1);
  std::vector<RealAAProcess*> procs;
  for (PartyId p = 0; p < 4; ++p) {
    auto proc = std::make_unique<RealAAProcess>(cfg, p, 10.0 * p);
    procs.push_back(proc.get());
    engine.set_process(p, std::move(proc));
  }
  SelfOnlyLinks links;
  engine.set_link_layer(&links);
  engine.run(static_cast<Round>(cfg.rounds()));
  for (PartyId p = 0; p < 4; ++p) {
    EXPECT_EQ(procs[p]->output(), 10.0 * p);
    EXPECT_EQ(procs[p]->starved_iterations(), cfg.iterations());
    for (const auto& stats : procs[p]->iteration_stats()) {
      EXPECT_EQ(stats.starved, 1u);
      EXPECT_EQ(stats.used, 0u);
      EXPECT_EQ(stats.value_after, 10.0 * p);
    }
  }
}

TEST(RealAAStarved, PerfectChannelsRaiseInternalError) {
  // The processes are told t = 1, but three of four parties are silenced:
  // the lone honest party's iteration starves on perfect channels, which
  // only a broken protocol or an unannounced fault budget can cause.
  const auto cfg = make_config(4, 1, 100.0);
  sim::Engine engine(4, 3);
  for (PartyId p = 0; p < 4; ++p) {
    engine.set_process(p, std::make_unique<RealAAProcess>(cfg, p, 10.0 * p));
  }
  engine.set_adversary(std::make_unique<sim::SilentAdversary>(
      std::vector<PartyId>{1, 2, 3}));
  EXPECT_THROW(engine.run(3), InternalError);
}

// --- Value wire --------------------------------------------------------------

TEST(ValueWire, RoundTrip) {
  for (double v : {0.0, -1.5, 3.25, 1e300, -1e-300}) {
    EXPECT_EQ(*decode_value(encode_value(v)), v);
  }
}

TEST(ValueWire, RejectsNonFiniteAndGarbage) {
  EXPECT_FALSE(
      decode_value(encode_value(std::numeric_limits<double>::quiet_NaN()))
          .has_value());
  EXPECT_FALSE(
      decode_value(encode_value(std::numeric_limits<double>::infinity()))
          .has_value());
  EXPECT_FALSE(decode_value(Bytes{1, 2, 3}).has_value());
  Bytes trailing = encode_value(1.0);
  trailing.push_back(0);
  EXPECT_FALSE(decode_value(trailing).has_value());
}

// --- Parameterized sweep -----------------------------------------------------

struct SweepParam {
  std::size_t n;
  std::uint64_t seed;
};

class RealAASweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(RealAASweep, AAHoldsUnderMixedAdversaries) {
  const auto [n, seed] = GetParam();
  const std::size_t t = (n - 1) / 3;
  Rng rng(seed);
  const double D = 10.0 + rng.unit() * 1e5;
  const auto cfg = make_config(n, t, D);
  const auto inputs = harness::random_real_inputs(n, -D / 2, D / 2, rng);

  std::unique_ptr<sim::Adversary> adv;
  auto victims = sim::random_parties(n, t, rng);
  switch (seed % 5) {
    case 0:
      adv = std::make_unique<sim::SilentAdversary>(victims);
      break;
    case 1:
      adv = std::make_unique<sim::FuzzAdversary>(victims, seed, 16, 48);
      break;
    case 2: {
      SplitAdversary::Options opts;
      opts.config = cfg;
      opts.corrupt = victims;
      adv = std::make_unique<SplitAdversary>(std::move(opts));
      break;
    }
    case 3:
      adv = std::make_unique<sim::ReplayAdversary>(victims, seed, 24);
      break;
    default:
      adv = harness::make_extreme_input_puppets(cfg, victims, -1e9, 1e9);
      break;
  }
  auto run = harness::run_real_aa(cfg, inputs, std::move(adv));
  expect_aa(run, inputs, run.corrupt, cfg.eps);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RealAASweep,
    ::testing::Values(SweepParam{4, 1}, SweepParam{4, 2}, SweepParam{7, 3},
                      SweepParam{7, 4}, SweepParam{10, 5}, SweepParam{10, 6},
                      SweepParam{13, 7}, SweepParam{13, 8}, SweepParam{16, 9},
                      SweepParam{16, 10}, SweepParam{19, 11},
                      SweepParam{25, 12}));

}  // namespace
}  // namespace treeaa::realaa
