// Shared plumbing of perfbench: run options, the result line,
// clocks, sample statistics, and the benchmark-side tracing adapters
// (engine phase timer, span-file reader).
#pragma once
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "obs/span.h"
#include "sim/trace.h"

namespace perfbench {

namespace sim = treeaa::sim;
namespace obs = treeaa::obs;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs for the smoke test: same code paths, seconds-scale runs.
  bool tiny = false;
  /// Scratch directory inside the checkout for tree files and sockets.
  std::string work_dir;
};

/// The run's verdict and metrics, printed as the last stdout line.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// One informational line printed before the result line.
  void note(const std::string& line);
  void count_ops(std::uint64_t attempted, std::uint64_t failed);
  void fail_check(const std::string& why);
  /// Writes the notes, then {"correct", "attempted", "failed", "metrics"}.
  void print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool checks_ok_ = true;
};

[[nodiscard]] double now_s();
/// Process user + system CPU seconds (all threads).
[[nodiscard]] double cpu_s();
[[nodiscard]] double peak_rss_mb();

/// Stateless seed derivation: the same (seed, tag) always gives the same
/// stream root.
[[nodiscard]] std::uint64_t derive(std::uint64_t seed, std::uint64_t tag);

[[nodiscard]] double median(std::vector<double> v);
[[nodiscard]] double mean(const std::vector<double>& v);
/// Nearest-rank quantile, 0 < q <= 1.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// The highest percentile of the ladder p99.9, p99, p90, p75, p50, no
/// higher than `cap`, with at least ten samples strictly beyond it (nearest
/// rank). Each workload fixes its cap, so a faster program that completes
/// more ops never moves its tail to a higher percentile.
struct Tail {
  double value = 0.0;
  double pct = 0.0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tail_of(std::vector<double> v, double cap);

/// Measurements of one closed (or windowed) loop: every timed request with
/// its completion time, plus process CPU time sampled along the way, so the
/// run can be cut into time windows afterwards.
class LoopStats {
 public:
  LoopStats();
  /// A request finished now after `latency_s`, completing `units` of work.
  void record(double latency_s, std::uint64_t units);
  /// Closes the loop: wall and CPU totals stop here.
  void finish();
  /// Runs `fn` outside the measurement: its wall and CPU time are excluded.
  void pause(const std::function<void()>& fn);
  /// Appends a finished loop's requests (and probes) after this finished
  /// loop's own.
  void append(const LoopStats& other);

  std::vector<double> latency_ms;  // one sample per timed request
  std::vector<double> done_s;      // its completion, seconds since start
  std::vector<std::uint64_t> done_units;
  std::vector<std::pair<double, double>> cpu_marks;  // (since start, cpu s)
  std::uint64_t attempted = 0;  // work attempted
  std::uint64_t failed = 0;     // work failed or not checked ok
  double wall_s = 0.0;
  double cpu_total_s = 0.0;
  std::vector<double> probe_ms;  // host probes taken during the loop

 private:
  double t0_ = 0.0;
  double cpu0_ = 0.0;
};

/// The host-speed probe. On the shared reference host the speed of the
/// whole machine drifts by 20-50% over seconds to minutes with other
/// tenants' load, and it moves every timing of every workload alike: the
/// same op on the same input, run a minute apart, differs by that much.
/// The probe is a fixed piece of work that belongs to the benchmark, not to
/// the program: three builds of a std::pmr::map of 5000 short string keys in
/// a private, pre-touched arena, so neither the program's code nor the state
/// of its heap can change what it costs. Loops run it between ops all
/// through the measured time (paused, outside it). Divided by
/// kProbeNominalMs, its median over the run is the run's slowdown, by which
/// the end-to-end timings are scaled back to the reference speed.
[[nodiscard]] double host_probe_ms();
/// A fixed round figure near the probe's median on the reference host. It
/// only sets the scale: scaled timings read close to measured ones there.
inline constexpr double kProbeNominalMs = 4.0;
/// Measured time between two probes in a closed loop.
inline constexpr double kProbeEveryS = 0.25;

/// What one op did: `units` of work attempted (cells for a sweep, else 1),
/// of which `failed` did not complete or did not pass their check.
struct OpOutcome {
  std::uint64_t units = 1;
  std::uint64_t failed = 0;
};
[[nodiscard]] inline OpOutcome outcome(bool ok) { return {1, ok ? 0u : 1u}; }

/// Set-up time: each rep() runs the workload's whole set-up from scratch and
/// times it. Untraced runs take one rep before the loop and kExtraReps more
/// spread across it (outside the measured time), so setup_s, like the other
/// metrics, is a median over the whole run rather than one moment of it.
class Setup {
 public:
  static constexpr std::size_t kExtraReps = 8;
  explicit Setup(std::function<void()> fn) : fn_(std::move(fn)) {}
  void rep();
  [[nodiscard]] double median_s() const { return median(times_); }

 private:
  std::function<void()> fn_;
  std::vector<double> times_;
};

/// Closed loop with one caller: runs op(0), op(1), ... until `seconds` have
/// passed and at least `min_ops` ops ran, timing each op. A throwing op
/// counts as one failed unit. The host probe runs (paused) after every
/// kProbeEveryS of measured time. With `setup`, one set-up rep runs (paused)
/// at each of Setup::kExtraReps evenly spaced points of the run.
LoopStats closed_loop(double seconds, std::size_t min_ops,
                      const std::function<OpOutcome(std::size_t)>& op,
                      Setup* setup = nullptr);

/// Exact program-reported costs over the workload's fixed op list.
struct Counts {
  std::uint64_t ops = 0;
  std::uint64_t rounds = 0;
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
};

/// Prints every end-to-end metric of one untraced run. The run is cut into
/// up to five equal time windows of at least kMinWindowSamples requests;
/// throughput, latency percentiles and CPU per op are the medians of the
/// per-window values, so a burst of load from outside the benchmark that
/// hits one window does not move the result. Those four and the set-up time
/// are then scaled to the reference host speed by the run's host probes
/// (see host_probe_ms): the tail by the probes' upper quartile, the others
/// by their median. A note line gives the probe figures and the values as
/// measured. ok_share, peak RSS and the counts are not scaled; ok_share and
/// the counts cover the whole run.
void report_end_to_end(Report& report, const LoopStats& loop, double setup_s,
                       const Counts& counts, double tail_cap);

/// Benchmark-side sim::Tracer summing wall time per engine phase. Phase
/// callbacks are serial, so no locking is needed.
class PhaseTimer final : public sim::Tracer {
 public:
  void on_phase_begin(treeaa::Round r, sim::Phase phase) override;
  void on_phase_end(treeaa::Round r, sim::Phase phase) override;
  /// Seconds spent in `phase` since construction.
  [[nodiscard]] double seconds(sim::Phase phase) const;

 private:
  std::chrono::steady_clock::time_point begin_{};
  std::uint64_t ns_[4] = {0, 0, 0, 0};
};

/// One complete span read back from a SpanSink export.
struct Span {
  std::string track;  // "process/thread"
  std::string name;
  double begin_ns = 0.0;
  double dur_ns = 0.0;
};
/// Complete spans of `sink`, via its Chrome trace-event export.
[[nodiscard]] std::vector<Span> read_spans(const obs::SpanSink& sink);

/// Confines this process, and the threads it starts from now on, to the
/// first CPU it may run on. A hand-off between threads then costs the
/// program's own work and a thread switch; across CPUs it also costs a
/// cross-CPU wake-up, whose latency on a shared virtual machine moves by 2x
/// with other tenants' load. It also puts the host probe on the CPU that
/// does the work.
void pin_to_one_cpu();

/// Times `fn` in a loop for at least `min_s` seconds; returns seconds per
/// call.
double time_per_call(double min_s, const std::function<void()>& fn);

}  // namespace perfbench
