// Baseline: iteration-based AA on trees (the synchronous adaptation of
// Nowak & Rybicki's protocol — the paper's reference [33] and the previous
// state of the art: O(log D(T)) rounds).
//
// Each iteration (one 3-round gradecast batch):
//   * gradecast the current vertex;
//   * collect the multiset M of grade >= 1 vertices (>= n - t of them, at
//     most t Byzantine);
//   * compute the safe area — the intersection of the convex hulls of all
//     (|M| - t)-subsets, guaranteed inside the convex hull of the values
//     honest parties distributed (see trees/safe_area.h);
//   * move to the midpoint of a diametral path of the safe area.
//
// The honest hull diameter roughly halves per iteration, so the protocol
// budgets ceil(log2 D(T)) + kSlackIterations iterations (the slack absorbs
// rounding effects of discrete midpoints; the test sweeps exercise it). The
// contrast with TreeAA's O(log|V| / log log|V|) rounds is exactly the
// paper's headline improvement, measured in bench_baseline_comparison.
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"
#include "gradecast/gradecast.h"
#include "sim/process.h"
#include "trees/labeled_tree.h"

namespace treeaa::baselines {

struct IteratedTreeConfig {
  std::size_t n = 0;
  std::size_t t = 0;

  /// Extra iterations beyond ceil(log2 D) to absorb discrete rounding.
  static constexpr std::size_t kSlackIterations = 2;

  /// ceil(log2 D(T)) + slack; 0 when D(T) <= 1 (trivial input space).
  [[nodiscard]] std::size_t iterations(const LabeledTree& tree) const;
  [[nodiscard]] std::size_t rounds(const LabeledTree& tree) const {
    return 3 * iterations(tree);
  }
};

class IteratedTreeAAProcess final : public sim::Process {
 public:
  IteratedTreeAAProcess(const LabeledTree& tree,
                        const IteratedTreeConfig& config, PartyId self,
                        VertexId input);

  void on_round_begin(Round r, sim::Mailer& out) override;
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override;

  [[nodiscard]] std::optional<VertexId> output() const { return output_; }
  [[nodiscard]] VertexId value() const { return value_; }
  [[nodiscard]] const std::vector<VertexId>& value_history() const {
    return history_;
  }
  [[nodiscard]] std::size_t rounds() const { return config_.rounds(tree_); }

 private:
  void finish_iteration();

  const LabeledTree& tree_;
  IteratedTreeConfig config_;
  std::size_t iterations_;
  PartyId self_;
  VertexId value_;
  std::vector<VertexId> history_;
  std::size_t local_round_ = 0;
  // One batch for the whole run, restarted every iteration.
  std::optional<gradecast::BatchGradecast> batch_;
  Bytes wire_value_;          // the encoded vertex this iteration leads with
  std::vector<VertexId> m_;   // the iteration's grade >= 1 vertices
  std::optional<VertexId> output_;
};

/// Vertex codec shared with adversarial tests: varint vertex id, written
/// into `out` (replacing its contents, keeping its capacity).
void encode_vertex_into(Bytes& out, VertexId v);
[[nodiscard]] Bytes encode_vertex(VertexId v);
/// nullopt if malformed or >= n_vertices.
[[nodiscard]] std::optional<VertexId> decode_vertex(const Bytes& b,
                                                    std::size_t n_vertices);

}  // namespace treeaa::baselines
