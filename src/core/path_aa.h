// Warm-up: round-optimal AA when the input space is a labeled path
// (paper §4).
//
// The parties denote the vertices of the input space path P by
// (v_1, ..., v_k), where v_1 is the endpoint with the lexicographically
// lower label. A party whose input is v_i joins RealAA(1) with input i,
// obtains j ∈ R, and outputs v_closestInt(j). Remark 1 gives Validity
// (closestInt(j) stays within the range of honest indices) and Remark 2
// gives 1-Agreement (1-close reals map to 1-close integers), so AA on P is
// solved in R_RealAA(D(P), 1) rounds.
#pragma once

#include <memory>
#include <optional>

#include "common/types.h"
#include "core/real_engine.h"
#include "realaa/real_aa.h"
#include "sim/process.h"
#include "trees/labeled_tree.h"

namespace treeaa::core {

/// The canonical ordering of a path-shaped tree: its vertices from the
/// endpoint with the lower label to the other endpoint. Requires that
/// `path_tree` is a path (every vertex of degree <= 2).
[[nodiscard]] std::vector<VertexId> canonical_path_order(
    const LabeledTree& path_tree);

struct PathAAOptions {
  realaa::UpdateRule update = realaa::UpdateRule::kTrimmedMean;
  realaa::IterationMode mode = realaa::IterationMode::kPaperSufficient;
  RealEngineKind engine = RealEngineKind::kGradecastBdh;

  [[nodiscard]] RealEngineConfig engine_config() const {
    return RealEngineConfig{engine, update, mode};
  }
};

/// One party's instance of the warm-up protocol. Local rounds 1..rounds().
class PathAAProcess final : public sim::Process {
 public:
  /// `path_tree` must be a path; `input` is this party's input vertex.
  PathAAProcess(const LabeledTree& path_tree, std::size_t n, std::size_t t,
                PartyId self, VertexId input, PathAAOptions opts = {});

  void on_round_begin(Round r, sim::Mailer& out) override;
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override;

  /// Synchronous rounds this configuration takes (identical for all
  /// parties; derivable from public information only).
  [[nodiscard]] std::size_t rounds() const { return real_->rounds(); }

  /// The output vertex; engaged once rounds() rounds have completed.
  [[nodiscard]] std::optional<VertexId> output() const { return output_; }

  [[nodiscard]] std::size_t starved_iterations() const override {
    return real_->starved_iterations();
  }

 private:
  const LabeledTree& tree_;
  std::vector<VertexId> order_;  // canonical v_1 .. v_k
  std::unique_ptr<realaa::RealAgreement> real_;
  std::optional<VertexId> output_;
};

}  // namespace treeaa::core
