// A restarted batch is a new batch: seeded inboxes (honest, equivocating
// leaders, garbage, duplicate senders, denied leaders) are fed to one
// long-lived batch that restarts for every trial and to a newly
// constructed one. Both must broadcast the bytes encode_leader/encode_slots
// give for a reference model of the protocol, and both must grade exactly
// as that model does. This pins the reused buffers and the tally's
// all-equal fast path against a straightforward map-counting reading.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "gradecast/gradecast.h"
#include "gradecast/wire.h"
#include "sim/process.h"

namespace treeaa::gradecast {
namespace {

enum class Scenario { kHonest, kEquivocate, kGarbage, kDuplicate, kDeny };

const char* scenario_name(Scenario s) {
  switch (s) {
    case Scenario::kHonest: return "honest";
    case Scenario::kEquivocate: return "equivocate";
    case Scenario::kGarbage: return "garbage";
    case Scenario::kDuplicate: return "duplicate";
    case Scenario::kDeny: return "deny";
  }
  return "?";
}

/// One trial: what every sender delivers to the observed party in each
/// step, and what that party leads with and denies.
struct Trial {
  Bytes my_value;
  std::vector<bool> deny;
  std::vector<std::vector<Bytes>> inbox;  // per step, in sender order
  std::vector<std::vector<PartyId>> from;
};

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes b(rng.index(max_len + 1));
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

/// Leader l's candidate values: index 0 is its "true" value, 1 and 2 the
/// values an equivocator also shows — 1 as long as 0, 2 of another length,
/// so the tally must compare contents, not only lengths.
Bytes candidate(PartyId l, std::size_t which) {
  Bytes v(1 + (l + (which == 2 ? 1 : 0)) % 3, static_cast<std::uint8_t>(l));
  v.push_back(static_cast<std::uint8_t>(which));
  return v;
}

Trial make_trial(Rng& rng, std::size_t n, PartyId self, Scenario s) {
  Trial trial;
  trial.my_value = candidate(self, 0);
  trial.deny.assign(n, false);
  if (s == Scenario::kDeny) {
    for (PartyId l = 0; l < n; ++l) trial.deny[l] = rng.chance(0.4);
  }
  // Leaders that show different values to different parties.
  std::vector<bool> equivocates(n, false);
  if (s == Scenario::kEquivocate || s == Scenario::kDuplicate) {
    for (PartyId l = 0; l < n; ++l) equivocates[l] = rng.chance(0.5);
  }
  const auto value_for = [&](PartyId l) {
    return candidate(l, equivocates[l] ? rng.index(3) : 0);
  };
  trial.inbox.resize(kRounds);
  trial.from.resize(kRounds);
  for (std::size_t step = 0; step < kRounds; ++step) {
    const std::uint8_t tag = step == 1 ? kTagEcho : kTagSupport;
    for (PartyId q = 0; q < n; ++q) {
      std::size_t copies = 1;
      if (s == Scenario::kDuplicate && rng.chance(0.4)) copies = 2;
      if (s != Scenario::kHonest && rng.chance(0.1)) copies = 0;  // silent
      for (std::size_t c = 0; c < copies; ++c) {
        Bytes msg;
        if ((s == Scenario::kGarbage || s == Scenario::kDuplicate) &&
            rng.chance(0.3)) {
          msg = random_bytes(rng, 12);
          if (rng.chance(0.5) && !msg.empty()) {
            msg[0] = step == 0 ? kTagLeader : tag;  // right tag, bad body
          }
        } else if (step == 0) {
          msg = encode_leader(value_for(q));
        } else {
          std::vector<Slot> slots(n);
          for (PartyId l = 0; l < n; ++l) {
            if (!rng.chance(0.1)) slots[l] = value_for(l);
          }
          msg = encode_slots(tag, slots);
        }
        trial.inbox[step].push_back(std::move(msg));
        trial.from[step].push_back(q);
      }
    }
  }
  return trial;
}

/// Orders byte strings like Bytes' operator< (byte by byte, a proper prefix
/// first). Written out with memcmp: GCC 12 at -O3 misreads the bound of
/// the memcmp inlined from operator< and fails -Werror=stringop-overread.
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const {
    const std::size_t common = std::min(a.size(), b.size());
    if (common != 0) {
      const int c = std::memcmp(a.data(), b.data(), common);
      if (c != 0) return c < 0;
    }
    return a.size() < b.size();
  }
};

using Counts = std::map<Bytes, std::size_t, BytesLess>;

/// The protocol read straight off its description: first valid message
/// per sender, std::map counting, ties to the smallest value.
struct Reference {
  std::vector<Slot> echo;
  std::vector<Slot> support;
  std::vector<GradedValue> results;
};

std::vector<std::optional<std::vector<Slot>>> first_valid_slots(
    const Trial& trial, std::size_t step, std::uint8_t tag, std::size_t n) {
  std::vector<std::optional<std::vector<Slot>>> by_sender(n);
  for (std::size_t i = 0; i < trial.inbox[step].size(); ++i) {
    const PartyId q = trial.from[step][i];
    if (by_sender[q].has_value()) continue;
    by_sender[q] = decode_slots(tag, trial.inbox[step][i], n);
  }
  return by_sender;
}

Counts count_for(
    const std::vector<std::optional<std::vector<Slot>>>& by_sender,
    PartyId l) {
  Counts counts;
  for (const auto& slots : by_sender) {
    if (slots.has_value() && (*slots)[l].has_value()) ++counts[*(*slots)[l]];
  }
  return counts;
}

Reference reference(const Trial& trial, std::size_t n, std::size_t t) {
  Reference ref;
  ref.echo.assign(n, std::nullopt);
  std::vector<bool> seen(n, false);
  for (std::size_t i = 0; i < trial.inbox[0].size(); ++i) {
    const PartyId q = trial.from[0][i];
    if (seen[q]) continue;
    const auto value = decode_leader(trial.inbox[0][i]);
    if (!value.has_value()) continue;
    seen[q] = true;
    if (!trial.deny[q]) ref.echo[q] = *value;
  }
  const auto echoes = first_valid_slots(trial, 1, kTagEcho, n);
  ref.support.assign(n, std::nullopt);
  for (PartyId l = 0; l < n; ++l) {
    if (trial.deny[l]) continue;
    for (const auto& [value, count] : count_for(echoes, l)) {
      if (count >= n - t) ref.support[l] = value;
    }
  }
  const auto supports = first_valid_slots(trial, 2, kTagSupport, n);
  ref.results.assign(n, GradedValue{});
  for (PartyId l = 0; l < n; ++l) {
    std::optional<Bytes> best;
    std::size_t best_count = 0;
    for (const auto& [value, count] : count_for(supports, l)) {
      if (count > best_count) {
        best = value;
        best_count = count;
      }
    }
    GradedValue& r = ref.results[l];
    r.grade = best_count >= n - t ? 2 : best_count >= t + 1 ? 1 : 0;
    if (r.grade >= 1) r.value = best;
  }
  return ref;
}

/// Drives `batch` through the trial, returning what it broadcast per step.
std::vector<Bytes> drive(BatchGradecast& batch, const Trial& trial,
                         PartyId self, std::size_t n) {
  std::vector<Bytes> sent;
  for (std::size_t step = 0; step < kRounds; ++step) {
    std::vector<sim::Envelope> out;
    sim::Mailer mailer(self, n, out, static_cast<Round>(step + 1));
    batch.on_step_begin(step, mailer);
    EXPECT_EQ(out.size(), n);
    sent.push_back(out.front().payload.bytes());
    std::vector<sim::Envelope> inbox;
    for (std::size_t i = 0; i < trial.inbox[step].size(); ++i) {
      inbox.push_back(sim::Envelope{trial.from[step][i], self,
                                    static_cast<Round>(step + 1),
                                    trial.inbox[step][i]});
    }
    batch.on_step_end(step, inbox);
  }
  return sent;
}

void expect_same_results(const std::vector<GradedValue>& got,
                         const std::vector<GradedValue>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t l = 0; l < got.size(); ++l) {
    EXPECT_EQ(got[l].grade, want[l].grade) << "leader " << l;
    EXPECT_EQ(got[l].value, want[l].value) << "leader " << l;
  }
}

TEST(GradecastRestart, RestartedBatchMatchesNewBatchAndReference) {
  for (const std::size_t n : {4u, 7u, 13u}) {
    const std::size_t t = (n - 1) / 3;
    const PartyId self = static_cast<PartyId>(n / 2);
    Rng rng(0x5EED0000u + n);
    std::optional<BatchGradecast> reused;
    for (std::size_t trial_no = 0; trial_no < 60; ++trial_no) {
      const auto s = static_cast<Scenario>(trial_no % 5);
      SCOPED_TRACE(::testing::Message() << "n=" << n << " trial " << trial_no
                                        << " (" << scenario_name(s) << ")");
      const Trial trial = make_trial(rng, n, self, s);
      const Reference ref = reference(trial, n, t);

      BatchGradecast fresh(self, n, t, trial.my_value, trial.deny);
      if (reused.has_value()) {
        reused->restart(trial.my_value, trial.deny);
      } else {
        reused.emplace(self, n, t, trial.my_value, trial.deny);
      }
      const auto sent_fresh = drive(fresh, trial, self, n);
      const auto sent_reused = drive(*reused, trial, self, n);

      const std::vector<Bytes> want{encode_leader(trial.my_value),
                                    encode_slots(kTagEcho, ref.echo),
                                    encode_slots(kTagSupport, ref.support)};
      EXPECT_EQ(sent_fresh, want);
      EXPECT_EQ(sent_reused, want);
      expect_same_results(fresh.results(), ref.results);
      expect_same_results(reused->results(), ref.results);
    }
  }
}

TEST(GradecastRestart, RestartRequiresAFullDenyListOrNone) {
  BatchGradecast b(0, 4, 1, Bytes{1});
  EXPECT_THROW(b.restart(Bytes{2}, std::vector<bool>(3)),
               std::invalid_argument);
  EXPECT_NO_THROW(b.restart(Bytes{2}, {}));
  EXPECT_FALSE(b.finished());
}

}  // namespace
}  // namespace treeaa::gradecast
