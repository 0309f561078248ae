// kickstart_pulse: the kickstart CGI read path under a reinstall pulse.
//
// A durable frontend holds 128 racks x 32 compute rows. Three closed-loop
// client threads call KickstartServer::handle_request; each pulse is a
// seeded permutation of every node IP, so every node asks once per pulse.
// The traced phase makes the same request as three calls (resolve,
// generate, render) with a span around each.
#include <atomic>
#include <thread>

#include "kickstart/server.hpp"
#include "layers.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace rocksbench {
namespace {

constexpr std::uint32_t kClients = 3;
constexpr std::size_t kRackSize = 32;
constexpr std::size_t kSampleEvery = 64;  // one node in 64 is re-rendered single-client
constexpr int kRounds = 10;
// Pulses per timing sample: ~0.4 s of requests, enough for a steady p99
// (~300 requests beyond it) while a run still yields ~50 samples.
constexpr int kPulsesPerSample = 8;
constexpr int kRecoveriesPerRound = 2;

struct NodeRow {
  std::string name;
  rocks::Ipv4 ip;
  std::string ip_text;
  std::string mac;
};

std::vector<NodeRow> make_nodes(std::size_t count, std::uint64_t seed) {
  std::vector<NodeRow> nodes(count);
  for (std::size_t i = 0; i < count; ++i) {
    const int rack = static_cast<int>(i / kRackSize);
    const int rank = static_cast<int>(i % kRackSize);
    NodeRow& node = nodes[i];
    node.name = rocks::strings::cat("compute-", rack, "-", rank);
    node.ip = rocks::Ipv4(10, 2, static_cast<std::uint8_t>(rack),
                          static_cast<std::uint8_t>(10 + rank));
    node.ip_text = node.ip.to_string();
    node.mac = seeded_mac(seed, i).to_string();
  }
  return nodes;
}

std::unique_ptr<FrontendHost> build_frontend(const std::vector<NodeRow>& nodes) {
  auto host = std::make_unique<FrontendHost>();
  extend_compute(*host->frontend);
  sqldb::Database& db = host->frontend->db();
  for (std::size_t i = 0; i < nodes.size(); ++i)
    rocks::kickstart::insert_node_row(db, nodes[i].mac, nodes[i].name, /*membership=*/2,
                                      static_cast<int>(i / kRackSize),
                                      static_cast<int>(i % kRackSize), nodes[i].ip_text);
  host->frontend->flush_services();
  return host;
}

std::vector<std::size_t> permutation(std::size_t count, rocks::Rng& rng) {
  std::vector<std::size_t> order(count);
  for (std::size_t i = 0; i < count; ++i) order[i] = i;
  for (std::size_t i = count; i > 1; --i) std::swap(order[i - 1], order[rng.next_below(i)]);
  return order;
}

// A pulse's latency quantile, taken per client thread and the lowest kept.
// Threads are started afresh each pulse, and one that lands on a contended
// vCPU serves its requests ~1.5x slower than the others; pooled, the median
// would sit in the gap between the two modes and jump with how many threads
// were unlucky.
template <typename Clients>
double fastest_client_quantile(const Clients& clients, double q) {
  double lowest = 0.0;
  for (const auto& client : clients) {
    if (client.latency_ms.size() == 0) continue;
    const double value = client.latency_ms.quantile(q);
    if (lowest == 0.0 || value < lowest) lowest = value;
  }
  return lowest;
}

struct PhaseResult {
  Rounds pulses;  // one entry per group of kPulsesPerSample pulses
  std::uint64_t requests = 0;
  std::uint64_t threw = 0;
  std::uint64_t misnamed = 0;  // responses lacking the requester's name or IP
  std::uint64_t bytes = 0;
  std::vector<std::string> samples;  // captured text, by node index
};

// Pulses for `seconds` (one pulse when `small`), added to `result` in
// groups of kPulsesPerSample. Each client thread accumulates privately; only
// the work counter is shared.
void run_pulses(rocks::kickstart::KickstartServer& server, const std::vector<NodeRow>& nodes,
                rocks::Rng& rng, double seconds, bool small, Tracer& tracer, Report& report,
                PhaseResult& result) {
  struct Client {
    Samples latency_ms;
    std::uint64_t threw = 0, misnamed = 0, bytes = 0, requests = 0;
  };
  result.samples.resize(nodes.size());
  std::vector<Lane*> lanes;
  for (std::uint32_t c = 0; c < kClients; ++c) lanes.push_back(tracer.lane(c));

  const Clock::time_point phase_start = Clock::now();
  Samples group_p50_ms, group_p99_ms;  // one per pulse: see fastest_client_quantile
  int group_pulses = 0;
  Clock::time_point group_start = phase_start;
  do {
    const std::vector<std::size_t> order = permutation(nodes.size(), rng);
    for (const std::size_t index : order) report.digest(index);
    std::atomic<std::size_t> next{0};
    std::vector<Client> clients(kClients);
    const auto client_loop = [&](std::uint32_t c) {
      Client& mine = clients[c];
      Lane* lane = lanes[c];
      for (;;) {
        const std::size_t slot = next.fetch_add(1, std::memory_order_relaxed);
        if (slot >= order.size()) return;
        const NodeRow& node = nodes[order[slot]];
        std::string text;
        const Clock::time_point start = Clock::now();
        try {
          if (lane == nullptr) {
            text = server.handle_request(node.ip);
          } else {
            ScopedSpan request(lane, "kickstart.request");
            rocks::kickstart::NodeConfig config;
            {
              ScopedSpan span(lane, "kickstart.resolve");
              config = server.resolve(node.ip);
            }
            rocks::kickstart::KickstartFile file;
            {
              ScopedSpan span(lane, "kickstart.generate");
              file = server.generator().generate(config);
            }
            ScopedSpan span(lane, "kickstart.render");
            text = file.render();
          }
        } catch (const std::exception&) {
          ++mine.threw;
          continue;
        }
        mine.latency_ms.add(ms_since(start));
        ++mine.requests;
        mine.bytes += text.size();
        if (text.find(node.name) == std::string::npos ||
            text.find(node.ip_text) == std::string::npos)
          ++mine.misnamed;
        // Each node index is served once per pulse, so its slot has one writer.
        if (order[slot] % kSampleEvery == 0 && result.samples[order[slot]].empty())
          result.samples[order[slot]] = std::move(text);
      }
    };
    {
      std::vector<std::jthread> threads;
      for (std::uint32_t c = 0; c < kClients; ++c) threads.emplace_back(client_loop, c);
    }
    group_p50_ms.add(fastest_client_quantile(clients, 0.50));
    group_p99_ms.add(fastest_client_quantile(clients, 0.99));
    for (const Client& c : clients) {
      result.requests += c.requests;
      result.threw += c.threw;
      result.misnamed += c.misnamed;
      result.bytes += c.bytes;
    }
    const bool more = !small && seconds_since(phase_start) < seconds;
    if (++group_pulses == kPulsesPerSample || !more) {
      const auto requests = static_cast<double>(group_pulses * nodes.size());
      result.pulses.add(requests / seconds_since(group_start), group_p50_ms.median(),
                        group_p99_ms.median());
      group_p50_ms = group_p99_ms = Samples{};
      group_pulses = 0;
      group_start = Clock::now();
    }
    if (!more) break;
  } while (true);
}

/// Every response named its requester, and a sample of the concurrent
/// responses matches a single-client render.
void check_pulses(rocks::kickstart::KickstartServer& server, const std::vector<NodeRow>& nodes,
                  PhaseResult& result, const char* label, Report& report) {
  report.attempted += result.requests + result.threw;
  report.failed += result.threw;
  if (result.misnamed > 0)
    report.fail_check(rocks::strings::cat(label, ": ", result.misnamed,
                                          " responses lack their requester's hostname or IP"));
  for (std::size_t i = 0; i < nodes.size(); i += kSampleEvery) {
    if (result.samples[i].empty()) continue;
    if (server.handle_request(nodes[i].ip) != result.samples[i])
      report.fail_check(rocks::strings::cat(label, ": response for ", nodes[i].name,
                                            " differs from a single-client render"));
  }
  result.samples.clear();
  result.requests = result.threw = result.misnamed = 0;
}

}  // namespace

void run_kickstart_pulse(const Options& options, Report& report) {
  const std::size_t node_count = options.small ? 256 : 128 * kRackSize;
  const std::vector<NodeRow> nodes = make_nodes(node_count, options.seed);
  for (const NodeRow& node : nodes) report.digest(node.mac);
  (void)distro();  // built before any timed set-up
  rocks::Rng rng(options.seed);

  // Rounds spread set-up and recovery through the run: each builds a fresh
  // frontend, serves pulses for its share of the run, then restarts the
  // frontend from copies of its disk.
  const int rounds = options.small ? 1 : kRounds;
  Samples setup_s, recover_s;
  PhaseResult plain;
  Recovery last;
  std::unique_ptr<FrontendHost> host;
  Tracer untraced(false);
  for (int round = 0; round < rounds; ++round) {
    host.reset();
    const Clock::time_point start = Clock::now();
    host = build_frontend(nodes);
    setup_s.add(seconds_since(start));
    rocks::kickstart::KickstartServer& server = host->frontend->kickstart_server();
    run_pulses(server, nodes, rng, options.seconds / rounds, options.small, untraced, report,
               plain);
    check_pulses(server, nodes, plain, "untraced", report);
    const std::string live_dump = host->frontend->db().dump_state();
    for (int i = 0; i < kRecoveriesPerRound; ++i) {
      last = recover_frontend(host->disk, distro(), live_dump, report, extend_compute);
      recover_s.add(last.seconds);
    }
  }

  const double ops_per_s = plain.pulses.best_rate();
  report.set("setup_s", setup_s.min());
  report.set("recover_s", recover_s.min());
  report.set("ops_per_s", ops_per_s);
  report.set("op_p50_ms", plain.pulses.best_p50());
  report.set("op_p99_ms", plain.pulses.best_p99());
  report.set("peak_rss_mb", peak_rss_mb());
  report.notes.push_back(rocks::strings::cat(
      "kickstart_pulse: ", node_count, " nodes, ", kClients, " clients, ",
      plain.pulses.size(), " groups of ", kPulsesPerSample,
      " pulses; best group ks_req_per_s=", ops_per_s,
      " ks_p50_us=", plain.pulses.best_p50() * 1000.0,
      " ks_p99_us=", plain.pulses.best_p99() * 1000.0, " setup_s=", setup_s.min(),
      " (median ", setup_s.median(), ") recover_s=", recover_s.min(),
      " (median ", recover_s.median(), ")"));
  if (!options.trace) return;

  // Traced phase on the last frontend: same pulses, each request split into
  // its three layers.
  cluster::Frontend& frontend = *host->frontend;
  rocks::kickstart::KickstartServer& server = frontend.kickstart_server();
  Tracer tracer(true);
  const rocks::kickstart::Generator& generator = server.generator();
  const std::uint64_t hits0 = generator.profile_cache_hits();
  const std::uint64_t misses0 = generator.profile_cache_misses();
  const SqlCounters sql0 = SqlCounters::of(frontend.db());
  PhaseResult traced;
  run_pulses(server, nodes, rng, options.seconds, options.small, tracer, report, traced);
  const SqlCounters sql = SqlCounters::of(frontend.db()) - sql0;
  const auto requests = static_cast<double>(traced.requests);
  check_pulses(server, nodes, traced, "traced", report);

  const Samples resolve = tracer.durations("kickstart.resolve");
  report.set("kickstart.resolve_p50_us", resolve.quantile(0.50));
  report.set("kickstart.resolve_p99_us", resolve.quantile(0.99));
  report.set("kickstart.generate_p50_us", tracer.durations("kickstart.generate").median());
  report.set("kickstart.render_p50_us", tracer.durations("kickstart.render").median());
  const double hits = static_cast<double>(generator.profile_cache_hits() - hits0);
  const double misses = static_cast<double>(generator.profile_cache_misses() - misses0);
  report.set("kickstart.profile_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report.set("kickstart.bytes_per_req", static_cast<double>(traced.bytes) / requests);
  report_sql(report, sql, requests);
  const auto replayed = last.report.wal_records_replayed;
  report.set("sqldb.replay_records", static_cast<double>(replayed));
  report.set("sqldb.replay_us_per_record",
             replayed > 0 ? recover_s.min() * 1e6 / static_cast<double>(replayed) : 0.0);
  report.set("sqldb.versions_live", static_cast<double>(frontend.db().mvcc_status().versions_live));
  std::size_t spans = 0;
  for (const char* name :
       {"kickstart.request", "kickstart.resolve", "kickstart.generate", "kickstart.render"})
    spans += tracer.durations(name).size();
  report.set("trace.spans_per_op", static_cast<double>(spans) / requests);
  const double traced_rate = traced.pulses.best_rate();
  report.set("trace.overhead_pct", (ops_per_s - traced_rate) / ops_per_s * 100.0);
  report.notes.push_back(rocks::strings::cat("kickstart_pulse traced: ks_req_per_s=", traced_rate,
                                             " resolve_p50_us=", resolve.median()));
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
}

}  // namespace rocksbench
