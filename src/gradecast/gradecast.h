// Batched gradecast (Ben-Or, Dolev & Hoch — the paper's reference [6]).
//
// Gradecast is a broadcast-with-confidence primitive: a leader distributes a
// value and every party outputs a (value, grade) pair with grade ∈ {0,1,2}.
// With t < n/3 Byzantine parties it guarantees:
//
//   G1 (honest leader)   — if the leader is honest, every honest party
//                          outputs (v_leader, 2);
//   G2 (graded agreement)— if some honest party outputs (v, 2), every honest
//                          party outputs (v, grade >= 1);
//   G3 (value binding)   — any two honest parties with grades >= 1 hold the
//                          same value.
//
// G1–G3 are exactly what RealAA's detect-and-ignore mechanism needs: an
// equivocating leader can split honest parties between grade 2 and grade 1
// (or 1 and 0) at most; any party that sees grade <= 1 knows the leader is
// Byzantine and ignores it forever, so each Byzantine party can introduce
// inconsistencies in at most one iteration (paper §4).
//
// This implementation runs n instances in parallel — every party leads the
// instance of its own id — in exactly 3 rounds (Remark 3 of the paper),
// which is what one RealAA iteration consumes.
//
// BatchGradecast is not a sim::Process itself; protocols embed it and
// forward their rounds, offset into the 3-step schedule. An iterated
// protocol keeps one batch for its whole run and restart()s it at every
// iteration, so steady-state iterations allocate nothing.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/types.h"
#include "gradecast/wire.h"
#include "sim/process.h"

namespace treeaa::gradecast {

/// Number of synchronous rounds a batch takes.
inline constexpr std::size_t kRounds = 3;

struct GradedValue {
  /// Engaged iff grade >= 1.
  std::optional<Bytes> value;
  int grade = 0;
};

class BatchGradecast {
 public:
  /// Party `self` of `n` joins a batch, leading with `my_value`.
  ///
  /// `deny` lists leaders this party refuses to assist (empty = none): it
  /// echoes and supports ⊥ for them, while still grading their instances
  /// normally. RealAA denies leaders in its fault set; once >= t + 1 honest
  /// parties deny a leader, that leader can never again reach n - t echoes,
  /// so its gradecasts end at grade 0 for everyone — the "ignored in all
  /// future iterations" mechanism of the paper's §4.
  BatchGradecast(PartyId self, std::size_t n, std::size_t t, ByteView my_value,
                 const std::vector<bool>& deny = {});

  /// Starts a new batch on this object, leading with `my_value` and
  /// denying `deny` (same meaning as in the constructor). The batch that
  /// follows sends exactly the bytes, and yields exactly the results, of a
  /// newly constructed one. Per-leader values, supports and results, and
  /// the encode/decode scratch, keep their capacity, so an iterated
  /// protocol that keeps one batch for life allocates nothing in steady
  /// state once its buffers have grown to the message sizes.
  void restart(ByteView my_value, const std::vector<bool>& deny);

  /// Drives sub-round `step` ∈ {0, 1, 2}; steps must be driven in order.
  void on_step_begin(std::size_t step, sim::Mailer& out);
  void on_step_end(std::size_t step, std::span<const sim::Envelope> inbox);

  [[nodiscard]] bool finished() const { return next_step_ == kRounds; }

  /// Per-leader outputs; readable once finished(). The reference and its
  /// contents stay valid until the next restart(), which overwrites them in
  /// place — copy what must outlive the batch.
  [[nodiscard]] const std::vector<GradedValue>& results() const;

 private:
  /// Decodes the round's echo/support traffic into the flat n x n view
  /// matrix. Per sender, the first syntactically valid message with the
  /// right tag wins (malformed attempts are skipped, later messages from
  /// the same sender are still tried); extra valid messages are ignored.
  void decode_slot_round(std::uint8_t tag,
                         std::span<const sim::Envelope> inbox);

  /// The slots sent for leader `l` by every sender whose message decoded,
  /// sorted lexicographically into `runs_` for run-length counting. The
  /// sort is skipped when every slot equals the first (an honest leader's
  /// instance), which leaves the same order.
  void gather_sorted_slots(PartyId l);

  /// Per-leader slots (⊥ or a value) packed into one buffer, so n values
  /// cost one buffer whose capacity a restarted batch reuses. Each slot is
  /// set at most once between resets; views stay valid until the next set.
  class SlotStore {
   public:
    void reserve(std::size_t bytes) { bytes_.reserve(bytes); }
    void reset(std::size_t n);
    void set(PartyId l, ByteView value);
    [[nodiscard]] SlotView get(PartyId l) const;

   private:
    static constexpr std::size_t kAbsent = static_cast<std::size_t>(-1);
    Bytes bytes_;
    std::vector<std::pair<std::size_t, std::size_t>> slots_;  // offset, size
  };

  /// Broadcasts `slots` (one per leader, ⊥ for denied leaders when
  /// `apply_deny`) under `tag`, encoded into `wire_`.
  void broadcast_slots(std::uint8_t tag, const SlotStore& slots,
                       bool apply_deny, sim::Mailer& out);

  PartyId self_;
  std::size_t n_;
  std::size_t t_;
  Bytes my_value_;
  std::vector<bool> deny_;
  std::size_t next_step_ = 0;

  // State accumulated across steps.
  SlotStore leader_values_;  // per leader (step 0)
  SlotStore my_supports_;    // per leader (step 1)
  // Per leader (step 2). A result that is ⊥ in one batch and engaged in a
  // later one re-allocates; an engaged one is overwritten in place.
  std::vector<GradedValue> results_;

  // Per-step scratch, kept as members so steady-state steps allocate
  // nothing. The decode views alias inbox payloads and are only used
  // inside the on_step_end call that produced them.
  Bytes wire_;                          // the message this step broadcasts
  std::vector<SlotView> slot_views_;    // per-leader views being encoded
  std::vector<SlotView> slot_matrix_;   // sender q's slot for leader l at
                                        // [q * n + l]
  std::vector<bool> sender_valid_;      // sender q's message decoded
  std::vector<ByteView> runs_;          // per-leader sorted slot values
};

}  // namespace treeaa::gradecast
