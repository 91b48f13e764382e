#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory_resource>
#include <sstream>
#include <stdexcept>
#include <string>

#include "common/json_value.h"
#include "common/rng.h"

namespace perfbench {

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  metrics_[name] = Value{value, unit};
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::count_ops(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::fail_check(const std::string& why) {
  checks_ok_ = false;
  notes_.push_back("check failed: " + why);
}

void Report::print() const {
  for (const auto& line : notes_) std::cout << "# " << line << "\n";
  std::ostringstream out;
  out.precision(17);
  out << "{\"correct\": " << (checks_ok_ && failed_ == 0 ? "true" : "false")
      << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
      << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, v] : metrics_) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << name << "\": {\"value\": " << v.value << ", \"unit\": \""
        << v.unit << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  return treeaa::splitmix64(treeaa::splitmix64(seed) ^
                            treeaa::splitmix64(tag + 0x9E3779B97F4A7C15ull));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

Tail tail_of(std::vector<double> v, double cap) {
  Tail tail;
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  for (double pct : {99.9, 99.0, 90.0, 75.0, 50.0}) {
    if (pct > cap) continue;
    // Nearest rank: the smallest sample with at least pct% at or below it.
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n)));
    const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
    const std::size_t beyond = n - idx - 1;
    if (beyond >= 10 || pct == 50.0) {
      tail.value = v[idx];
      tail.pct = pct;
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

double host_probe_ms() {
  constexpr int kKeys = 5000;
  constexpr int kBuilds = 3;
  // Holds one build's nodes with room to spare; value-initialised, so every
  // page is touched before the first timed build.
  static std::vector<std::byte> arena_bytes(std::size_t{2} << 20);
  const double t0 = now_s();
  std::size_t entries = 0;
  for (int b = 0; b < kBuilds; ++b) {
    // null upstream: outgrowing the arena throws instead of timing malloc.
    std::pmr::monotonic_buffer_resource arena(
        arena_bytes.data(), arena_bytes.size(),
        std::pmr::null_memory_resource());
    std::pmr::map<std::pmr::string, int> m(&arena);
    for (int i = 0; i < kKeys; ++i) {
      // Short keys stay within the string's inline buffer.
      char key[16];
      const int len = std::snprintf(key, sizeof key, "k%ld",
                                    static_cast<long>(i) * 7919 % 1000003);
      m.emplace(std::pmr::string(key, static_cast<std::size_t>(len), &arena),
                i);
    }
    entries += m.size();
  }
  const double ms = (now_s() - t0) * 1e3;
  if (entries != std::size_t{kKeys} * kBuilds) {
    throw std::runtime_error("host probe built a wrong map");
  }
  return ms;
}

void report_end_to_end(Report& report, const LoopStats& loop, double setup_s,
                       const Counts& counts, double tail_cap) {
  constexpr std::size_t kMaxWindows = 5;
  constexpr std::size_t kMinWindowSamples = 150;
  const std::size_t windows = std::clamp<std::size_t>(
      loop.latency_ms.size() / kMinWindowSamples, 1, kMaxWindows);
  const double span = loop.wall_s / static_cast<double>(windows);
  // Process CPU seconds at time t, interpolated between marks.
  const auto cpu_at = [&](double t) {
    const auto& m = loop.cpu_marks;
    for (std::size_t i = 1; i < m.size(); ++i) {
      if (m[i].first >= t) {
        const double dt = m[i].first - m[i - 1].first;
        const double f = dt > 0 ? (t - m[i - 1].first) / dt : 1.0;
        return m[i - 1].second + f * (m[i].second - m[i - 1].second);
      }
    }
    return m.back().second;
  };
  std::vector<double> throughput, p50, tail_v, cpu_per_op;
  Tail tail;
  std::size_t min_beyond = SIZE_MAX;
  for (std::size_t w = 0; w < windows; ++w) {
    const double lo = span * static_cast<double>(w);
    const double hi = w + 1 == windows ? loop.wall_s + 1.0 : lo + span;
    std::vector<double> lat;
    std::uint64_t units = 0;
    for (std::size_t i = 0; i < loop.latency_ms.size(); ++i) {
      if (loop.done_s[i] >= lo && loop.done_s[i] < hi) {
        lat.push_back(loop.latency_ms[i]);
        units += loop.done_units[i];
      }
    }
    const double u = static_cast<double>(std::max<std::uint64_t>(units, 1));
    throughput.push_back(static_cast<double>(units) / span);
    p50.push_back(median(lat));
    tail = tail_of(lat, tail_cap);
    min_beyond = std::min(min_beyond, tail.beyond);
    tail_v.push_back(tail.value);
    cpu_per_op.push_back(
        (cpu_at(std::min(hi, loop.wall_s)) - cpu_at(lo)) * 1e3 / u);
  }
  if (loop.probe_ms.empty()) throw std::runtime_error("no host probe taken");
  // Each timing is scaled by the probe at the matching point of its
  // distribution: the tail, which the run's slower moments set, by the
  // probe's upper quartile; the others by its median.
  const double slowdown = median(loop.probe_ms) / kProbeNominalMs;
  const double tail_slowdown = quantile(loop.probe_ms, 0.75) / kProbeNominalMs;
  const double ops = static_cast<double>(std::max<std::uint64_t>(counts.ops, 1));
  report.metric("throughput_per_s", median(throughput) * slowdown, "1/s");
  report.metric("latency_p50_ms", median(p50) / slowdown, "ms");
  report.metric("latency_tail_ms", median(tail_v) / tail_slowdown, "ms");
  report.metric("cpu_ms_per_op", median(cpu_per_op) / slowdown, "ms");
  report.metric("ok_share",
                loop.attempted == 0
                    ? 0.0
                    : static_cast<double>(loop.attempted - loop.failed) /
                          static_cast<double>(loop.attempted),
                "ratio");
  report.metric("setup_s", setup_s / slowdown, "s");
  report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  report.metric("rounds_per_op", static_cast<double>(counts.rounds) / ops,
                "count");
  report.metric("msgs_per_op", static_cast<double>(counts.msgs) / ops, "count");
  report.metric("bytes_per_op", static_cast<double>(counts.bytes) / ops, "B");
  char line[320];
  std::snprintf(line, sizeof line,
                "host probe over %zu probes: median %.4f ms, upper quartile "
                "%.4f ms (nominal %.4f ms); as measured: throughput_per_s "
                "%.6g, latency_p50_ms %.6g, latency_tail_ms %.6g, "
                "cpu_ms_per_op %.6g, setup_s %.6g",
                loop.probe_ms.size(), slowdown * kProbeNominalMs,
                tail_slowdown * kProbeNominalMs, kProbeNominalMs,
                median(throughput), median(p50), median(tail_v),
                median(cpu_per_op), setup_s);
  report.note(line);
  std::snprintf(line, sizeof line,
                "latency_tail_ms is p%g, median over %zu windows of %zu "
                "samples in all (at least %zu beyond it per window)",
                tail.pct, windows, loop.latency_ms.size(), min_beyond);
  report.note(line);
  std::snprintf(line, sizeof line,
                "counts over a fixed list of %llu ops: rounds %llu, msgs %llu, "
                "bytes %llu",
                static_cast<unsigned long long>(counts.ops),
                static_cast<unsigned long long>(counts.rounds),
                static_cast<unsigned long long>(counts.msgs),
                static_cast<unsigned long long>(counts.bytes));
  report.note(line);
  report.count_ops(loop.attempted, loop.failed);
}

LoopStats::LoopStats() : t0_(now_s()), cpu0_(cpu_s()) {
  cpu_marks.emplace_back(0.0, 0.0);
}

void LoopStats::record(double latency_s, std::uint64_t units) {
  const double t = now_s() - t0_;
  latency_ms.push_back(latency_s * 1e3);
  done_s.push_back(t);
  done_units.push_back(units);
  if (t - cpu_marks.back().first >= 0.05) {
    cpu_marks.emplace_back(t, cpu_s() - cpu0_);
  }
}

void LoopStats::pause(const std::function<void()>& fn) {
  const double t = now_s();
  const double c = cpu_s();
  fn();
  t0_ += now_s() - t;
  cpu0_ += cpu_s() - c;
}

void LoopStats::append(const LoopStats& other) {
  for (std::size_t i = 0; i < other.latency_ms.size(); ++i) {
    latency_ms.push_back(other.latency_ms[i]);
    done_s.push_back(wall_s + other.done_s[i]);
    done_units.push_back(other.done_units[i]);
  }
  for (const auto& [t, c] : other.cpu_marks) {
    cpu_marks.emplace_back(wall_s + t, cpu_total_s + c);
  }
  probe_ms.insert(probe_ms.end(), other.probe_ms.begin(),
                  other.probe_ms.end());
  attempted += other.attempted;
  failed += other.failed;
  wall_s += other.wall_s;
  cpu_total_s += other.cpu_total_s;
}

void LoopStats::finish() {
  wall_s = now_s() - t0_;
  cpu_total_s = cpu_s() - cpu0_;
  cpu_marks.emplace_back(wall_s, cpu_total_s);
}

LoopStats closed_loop(double seconds, std::size_t min_ops,
                      const std::function<OpOutcome(std::size_t)>& op,
                      Setup* setup) {
  LoopStats loop;
  double t = now_s();
  double t0 = t;
  std::size_t reps_done = 0;
  double next_probe = 0.0;  // measured time of the next host probe
  for (std::size_t i = 0; t - t0 < seconds || i < min_ops; ++i) {
    if (t - t0 >= next_probe) {
      const double p0 = now_s();
      loop.pause([&] { loop.probe_ms.push_back(host_probe_ms()); });
      t = now_s();
      t0 += t - p0;
      next_probe = t - t0 + kProbeEveryS;
    }
    const double due = seconds * static_cast<double>(reps_done + 1) /
                       static_cast<double>(Setup::kExtraReps + 1);
    if (setup != nullptr && reps_done < Setup::kExtraReps && t - t0 >= due) {
      const double p0 = now_s();
      loop.pause([&] { setup->rep(); });
      ++reps_done;
      t = now_s();
      t0 += t - p0;
    }
    OpOutcome out{1, 1};
    try {
      out = op(i);
    } catch (const std::exception& e) {
      std::cerr << "op " << i << " threw: " << e.what() << "\n";
    }
    const double t1 = now_s();
    loop.record(t1 - t, out.units);
    loop.attempted += out.units;
    loop.failed += out.failed;
    t = t1;
  }
  loop.finish();
  return loop;
}

void Setup::rep() {
  const double t0 = now_s();
  fn_();
  times_.push_back(now_s() - t0);
}

void PhaseTimer::on_phase_begin(treeaa::Round, sim::Phase) {
  begin_ = std::chrono::steady_clock::now();
}

void PhaseTimer::on_phase_end(treeaa::Round, sim::Phase phase) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - begin_)
                      .count();
  ns_[static_cast<std::size_t>(phase)] += static_cast<std::uint64_t>(ns);
}

double PhaseTimer::seconds(sim::Phase phase) const {
  return static_cast<double>(ns_[static_cast<std::size_t>(phase)]) * 1e-9;
}

std::vector<Span> read_spans(const obs::SpanSink& sink) {
  const auto doc = treeaa::JsonValue::parse(sink.to_chrome_json());
  if (!doc.has_value()) throw std::runtime_error("unparseable span export");
  const treeaa::JsonValue* events = doc->find("traceEvents");
  if (events == nullptr) throw std::runtime_error("span export lacks events");
  std::map<double, std::string> processes;
  std::map<std::pair<double, double>, std::string> threads;
  std::vector<Span> spans;
  for (const auto& e : events->items()) {
    const std::string& ph = e.find("ph")->as_string();
    const double pid = e.find("pid")->as_number();
    const double tid = e.find("tid")->as_number();
    const std::string& name = e.find("name")->as_string();
    if (ph == "M") {
      const std::string& label = e.find("args")->find("name")->as_string();
      if (name == "process_name") processes[pid] = label;
      if (name == "thread_name") threads[{pid, tid}] = label;
    } else if (ph == "X") {
      Span s;
      s.track = processes[pid] + "/" + threads[{pid, tid}];
      s.name = name;
      s.begin_ns = e.find("ts")->as_number() * 1e3;
      s.dur_ns = e.find("dur")->as_number() * 1e3;
      spans.push_back(std::move(s));
    }
  }
  return spans;
}

void pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof one, &one) != 0) {
      throw std::runtime_error("sched_setaffinity failed");
    }
    return;
  }
}

double time_per_call(double min_s, const std::function<void()>& fn) {
  std::size_t calls = 0;
  const double t0 = now_s();
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = now_s() - t0;
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(calls);
}

}  // namespace perfbench
