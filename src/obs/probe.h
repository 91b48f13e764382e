// Protocol probes over the synchronous engine's tracer interface.
//
// ProbeTracer turns the raw event stream (queued messages, corruptions,
// round boundaries) into the per-round RoundSample series of a RunReport;
// the harness drivers then merge protocol-level observations (value
// diameter, hull size, detections, grade distributions) into the current
// sample after each engine round. JsonlTracer is the structured sibling of
// sim::RecordingTracer: one flat JSON object per event, newline-delimited,
// so transcripts can be consumed by tools without a bespoke parser.
#pragma once

#include <string>
#include <vector>

#include "obs/report.h"
#include "sim/trace.h"

namespace treeaa::obs {

/// Collects engine-level per-round samples. Optionally chains to a
/// downstream tracer (e.g. a transcript recorder), so probing and tracing
/// can share one engine slot.
class ProbeTracer final : public sim::Tracer {
 public:
  explicit ProbeTracer(sim::Tracer* downstream = nullptr)
      : downstream_(downstream) {}

  void on_round_begin(Round r) override;
  void on_queued(const sim::Envelope& e, bool adversarial) override;
  void on_corrupt(PartyId p, Round r) override;
  void on_deliver(Round r) override;
  // Span-granularity events don't feed samples; forward them untouched so a
  // chained SpanTracer still sees the full stream.
  void on_phase_begin(Round r, sim::Phase phase) override;
  void on_phase_end(Round r, sim::Phase phase) override;
  void on_party_begin(PartyId p, Round r, sim::Phase phase,
                      std::size_t lane) override;
  void on_party_end(PartyId p, Round r, sim::Phase phase,
                    std::size_t lane) override;
  void on_delivered(const sim::Envelope& e) override;

  /// The sample of the round currently in flight (null before round 1).
  [[nodiscard]] RoundSample* current() {
    return samples_.empty() ? nullptr : &samples_.back();
  }
  [[nodiscard]] const std::vector<RoundSample>& samples() const {
    return samples_;
  }
  /// Corruptions observed so far (including init-time ones).
  [[nodiscard]] std::size_t corruptions() const { return corruptions_; }

  /// Moves the collected series out (for RunReport::per_round).
  [[nodiscard]] std::vector<RoundSample> take() {
    return std::move(samples_);
  }

 private:
  sim::Tracer* downstream_;
  std::vector<RoundSample> samples_;
  std::size_t corruptions_ = 0;
};

/// Newline-delimited JSON transcript ("treeaa.trace/1"). Event lines:
///   {"ev":"round","round":R}
///   {"ev":"send","round":R,"from":F,"to":T,"bytes":B}         (honest)
///   {"ev":"byz","round":R,"from":F,"to":T,"bytes":B}          (adversary)
///   {"ev":"corrupt","round":R,"party":P}
///   {"ev":"deliver","round":R}
/// With payloads enabled, send/byz lines gain "payload":"<hex>". Every line
/// is a flat object that parses as a JsonValue (common/json_value.h).
class JsonlTracer final : public sim::Tracer {
 public:
  explicit JsonlTracer(bool payloads = false) : payloads_(payloads) {}

  void on_round_begin(Round r) override;
  void on_queued(const sim::Envelope& e, bool adversarial) override;
  void on_corrupt(PartyId p, Round r) override;
  void on_deliver(Round r) override;

  [[nodiscard]] const std::vector<std::string>& lines() const {
    return lines_;
  }
  /// All lines joined with trailing newlines — the JSONL document.
  [[nodiscard]] std::string text() const;
  [[nodiscard]] std::size_t message_count() const { return messages_; }

  /// Forgets everything recorded, keeping the tracer attachable for the
  /// next (phase of a) run.
  void clear();

 private:
  bool payloads_;
  std::vector<std::string> lines_;
  std::size_t messages_ = 0;
  Round round_ = 0;  // round currently in flight
};

}  // namespace treeaa::obs
