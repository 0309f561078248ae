#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace rocksbench {

// --- samples -----------------------------------------------------------------

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : std::min(rank - 1, sorted.size() - 1);
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(index),
                   sorted.end());
  return sorted[index];
}

void Rounds::add(double ops_per_second, const Samples& latency_ms) {
  add(ops_per_second, latency_ms.quantile(0.50), latency_ms.quantile(0.99));
}

void Rounds::add(double ops_per_second, double p50_ms, double p99_ms) {
  rates_.push_back(ops_per_second);
  p50_.push_back(p50_ms);
  p99_.push_back(p99_ms);
}

double Rounds::best_rate() const {
  return rates_.empty() ? 0.0 : *std::max_element(rates_.begin(), rates_.end());
}

double Rounds::best_of(const std::vector<double>& latencies) {
  return latencies.empty() ? 0.0 : *std::min_element(latencies.begin(), latencies.end());
}

double growth(const std::vector<double>& ordered) {
  const std::size_t tenth = ordered.size() / 10;
  if (tenth == 0) return 0.0;
  double first = 0.0, last = 0.0;
  for (std::size_t i = 0; i < tenth; ++i) {
    first += ordered[i];
    last += ordered[ordered.size() - tenth + i];
  }
  return first > 0.0 ? last / first : 0.0;
}

// --- spans -------------------------------------------------------------------

namespace {
std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}
}  // namespace

const Samples* Lane::durations(std::string_view name) const {
  for (const auto& [span_name, samples] : durations_)
    if (name == span_name) return &samples;
  return nullptr;
}

ScopedSpan::ScopedSpan(Lane* lane, const char* name) : lane_(lane) {
  if (lane_ == nullptr) return;
  name_ = name;
  const std::uint64_t id = lane_->next_id_++;
  saved_current_ = lane_->current_;
  saved_trace_ = lane_->current_trace_;
  const std::uint64_t trace = saved_current_ == 0 ? id : saved_trace_;
  start_ = Clock::now();
  if (lane_->spans_.size() < Lane::kMaxKeptSpans) {
    kept_ = true;
    kept_index_ = lane_->spans_.size();
    lane_->spans_.push_back(Span{name, id, saved_current_, trace, to_ns(start_), 0});
  } else {
    ++lane_->dropped_;
  }
  lane_->current_ = id;
  lane_->current_trace_ = trace;
}

ScopedSpan::~ScopedSpan() {
  if (lane_ == nullptr) return;
  const Clock::time_point end = Clock::now();
  if (kept_) lane_->spans_[kept_index_].end_ns = to_ns(end);
  const double micros = std::chrono::duration<double, std::micro>(end - start_).count();
  Samples* samples = nullptr;
  for (auto& [span_name, entry] : lane_->durations_)
    if (std::string_view(span_name) == name_) samples = &entry;
  if (samples == nullptr) samples = &lane_->durations_.emplace_back(name_, Samples{}).second;
  samples->add(micros);
  lane_->current_ = saved_current_;
  lane_->current_trace_ = saved_trace_;
}

Lane* Tracer::lane(std::uint32_t index) {
  if (!enabled_) return nullptr;
  auto& slot = lanes_[index];
  if (!slot) slot = std::make_unique<Lane>(index);
  return slot.get();
}

Samples Tracer::durations(std::string_view name) const {
  Samples out;
  for (const auto& [index, lane] : lanes_)
    if (const Samples* samples = lane->durations(name)) out.append(*samples);
  return out;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span dump " + path);
  out << "lane,id,parent,trace,name,start_ns,end_ns\n";
  for (const auto& [index, lane] : lanes_) {
    for (const Span& span : lane->spans_)
      out << index << ',' << span.id << ',' << span.parent << ',' << span.trace << ','
          << span.name << ',' << span.start_ns << ',' << span.end_ns << '\n';
    if (lane->dropped_ > 0)
      out << "# lane " << index << ": " << lane->dropped_ << " later spans not kept\n";
  }
}

// --- metrics -----------------------------------------------------------------

namespace {

struct Declared {
  const char* name;
  const char* unit;
};

// End-to-end metrics: every workload reports all of them (untraced run).
constexpr Declared kEndToEnd[] = {
    {"setup_s", "s"},         {"recover_s", "s"},  {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},      {"op_p99_ms", "ms"}, {"peak_rss_mb", "MB"},
};

// Per-layer metrics (traced run). A layer the workload does not drive reads 0.
// Units: "count" and "ratio" are exact functions of the seed on a
// single-threaded workload; "x" is a ratio of times.
constexpr Declared kPerLayer[] = {
    {"kickstart.resolve_p50_us", "us"},
    {"kickstart.resolve_p99_us", "us"},
    {"kickstart.generate_p50_us", "us"},
    {"kickstart.render_p50_us", "us"},
    {"kickstart.profile_hit_ratio", "ratio"},
    {"kickstart.bytes_per_req", "B"},
    {"kickstart.requests_per_install", "count"},
    {"sqldb.stmt_hit_ratio", "ratio"},
    {"sqldb.parses_per_op", "count"},
    {"sqldb.scans_per_op", "count"},
    {"sqldb.index_plans_per_op", "count"},
    {"sqldb.read_views_per_op", "count"},
    {"sqldb.wal_records_per_op", "count"},
    {"sqldb.wal_bytes_per_op", "B"},
    {"sqldb.wal_flushes_per_op", "count"},
    {"sqldb.snapshot_ms", "ms"},
    {"sqldb.replay_records", "count"},
    {"sqldb.replay_us_per_record", "us"},
    {"sqldb.versions_live", "count"},
    {"insert_ethers.discover_p50_ms", "ms"},
    {"insert_ethers.discover_p99_ms", "ms"},
    {"insert_ethers.discover_growth", "x"},
    {"frontend.flush_p50_ms", "ms"},
    {"frontend.flush_p99_ms", "ms"},
    {"frontend.flush_growth", "x"},
    {"services.renders_per_node", "count"},
    {"services.restarts_per_node", "count"},
    {"events.published_per_op", "count"},
    {"events.notifications_per_op", "count"},
    {"batch.submit_ms", "ms"},
    {"batch.step_p50_us", "us"},
    {"batch.step_p99_us", "us"},
    {"batch.backfill_share", "ratio"},
    {"batch.utilization", "ratio"},
    {"netsim.events_per_install", "count"},
    {"netsim.step_p50_us", "us"},
    {"netsim.step_p99_us", "us"},
    {"peer.peer_share", "ratio"},
    {"peer.waits_per_install", "count"},
    {"rpm.packages_per_install", "count"},
    {"trace.spans_per_op", "count"},
    {"trace.overhead_pct", "%"},
};

std::string number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

Report::Report() {
  for (const Declared& d : kEndToEnd) entries_.push_back({d.name, d.unit, true, 0.0});
  for (const Declared& d : kPerLayer) entries_.push_back({d.name, d.unit, false, 0.0});
}

void Report::set(std::string_view name, double value) {
  for (Entry& entry : entries_) {
    if (entry.name != name) continue;
    if (!std::isfinite(value)) {
      fail_check("metric " + entry.name + " is not a finite number");
      value = 0.0;
    }
    entry.value = value;
    return;
  }
  throw std::logic_error("undeclared metric " + std::string(name));
}

void Report::fail_check(const std::string& what) {
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

void Report::digest(std::string_view bytes) {
  for (const char c : bytes) {
    input_digest ^= static_cast<unsigned char>(c);
    input_digest *= 1099511628211ULL;
  }
  input_digest ^= 0xff;  // field separator
  input_digest *= 1099511628211ULL;
}

void Report::digest(std::uint64_t value) { digest(std::to_string(value)); }

std::string Report::json(bool traced) const {
  std::string metrics;
  for (const Entry& entry : entries_) {
    if (entry.end_to_end == traced) continue;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + entry.name + "\": {\"value\": " + number(entry.value) + ", \"unit\": \"" +
               entry.unit + "\"}";
  }
  char digest_hex[17];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(input_digest));
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" + metrics +
         "}, \"input_digest\": \"" + digest_hex + "\"}";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

}  // namespace rocksbench
