// Shared machinery for the rocksbench workloads: options, wall-clock
// samples, in-memory spans, the metric registry and the result line.
//
// Every workload drives the system through its public functions only. The
// untraced phase times whole operations with bare clock reads; the traced
// phase additionally opens a Span around each call the benchmark makes into
// a layer. Spans stay in memory until the run ends, then a capped prefix of
// them is written out (see Tracer::write).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rocksbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced sizes and exactly one round of fixed work (no time box): the
  /// determinism self-test compares the counts of two such runs.
  bool small = false;
  std::string trace_out;  // span dump path; empty = do not write
};

/// Raw samples; quantiles by nearest rank on a sorted copy.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

/// A phase's repeated rounds of the same work. Machine noise (other tenants
/// of the host contending for caches and memory bandwidth) only ever slows
/// a round down, so the timing metrics come from the best rounds: the
/// highest rate, and the lowest per-round latency median and p99. Only
/// those three numbers are kept per round, so the harness's own memory does
/// not grow with the system's speed.
class Rounds {
 public:
  void add(double ops_per_second, const Samples& latency_ms);
  /// A round whose quantiles the caller has already taken.
  void add(double ops_per_second, double p50_ms, double p99_ms);
  [[nodiscard]] std::size_t size() const { return rates_.size(); }
  [[nodiscard]] double best_rate() const;
  [[nodiscard]] double best_p50() const { return best_of(p50_); }
  [[nodiscard]] double best_p99() const { return best_of(p99_); }

 private:
  [[nodiscard]] static double best_of(const std::vector<double>& latencies);
  std::vector<double> rates_, p50_, p99_;
};

/// Mean of the last tenth of `ordered` over the mean of its first tenth:
/// ~1 when each operation costs the same however many came before it.
[[nodiscard]] double growth(const std::vector<double>& ordered);

struct Span {
  const char* name = nullptr;  // a string literal
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = a root span
  std::uint64_t trace = 0;   // the root span's id: one operation's spans share it
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One thread's span buffer. Only its own thread writes it.
class Lane {
 public:
  explicit Lane(std::uint32_t index) : next_id_((std::uint64_t{index} << 48) + 1) {}

  /// Durations (µs) of every closed span with this name, in close order.
  [[nodiscard]] const Samples* durations(std::string_view name) const;

 private:
  friend class ScopedSpan;
  friend class Tracer;
  static constexpr std::size_t kMaxKeptSpans = 100000;

  std::vector<Span> spans_;  // the first kMaxKeptSpans, written at the end
  std::vector<std::pair<const char*, Samples>> durations_;
  std::uint64_t next_id_;
  std::uint64_t current_ = 0;
  std::uint64_t current_trace_ = 0;
  std::size_t dropped_ = 0;
};

/// RAII span around one call into a layer; a null lane makes it free.
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Lane* lane_;
  const char* name_ = nullptr;
  std::size_t kept_index_ = 0;
  bool kept_ = false;
  std::uint64_t saved_current_ = 0;
  std::uint64_t saved_trace_ = 0;
  Clock::time_point start_;
};

/// Owns the lanes of a traced phase. Disabled tracers hand out null lanes.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  /// Lane `index`, created on first use; null when disabled. Create every
  /// lane before client threads start.
  Lane* lane(std::uint32_t index);
  /// Durations (µs) of every span named `name`, over all lanes.
  [[nodiscard]] Samples durations(std::string_view name) const;
  /// Writes the kept spans as CSV (lane order, then open order).
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::map<std::uint32_t, std::unique_ptr<Lane>> lanes_;
};

/// Metric registry. Every declared metric exists from the start (value 0);
/// a workload sets the ones it measures. Setting an undeclared name throws,
/// so the C++ side cannot drift from the declared list.
class Report {
 public:
  Report();
  void set(std::string_view name, double value);

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a over the generated inputs: equal seeds must give equal digests.
  std::uint64_t input_digest = 14695981039346656037ULL;
  std::vector<std::string> notes;  // human-readable lines printed before the JSON

  /// Marks the run incorrect and records why.
  void fail_check(const std::string& what);
  void digest(std::string_view bytes);
  void digest(std::uint64_t value);

  /// The result line: end-to-end metrics (untraced) or per-layer (traced).
  [[nodiscard]] std::string json(bool traced) const;

 private:
  struct Entry {
    std::string name;
    std::string unit;
    bool end_to_end = false;
    double value = 0.0;
  };
  std::vector<Entry> entries_;
};

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

// Workload entry points (one file each).
void run_kickstart_pulse(const Options& options, Report& report);
void run_node_integration(const Options& options, Report& report);
void run_job_churn(const Options& options, Report& report);
void run_cluster_reinstall(const Options& options, Report& report);

}  // namespace rocksbench
