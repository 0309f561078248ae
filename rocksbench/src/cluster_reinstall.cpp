// cluster_reinstall: the paper's headline operation, Cluster::reinstall_all.
//
// 256 compute nodes, 32 per rack, installing through the peer swarm, with
// the frontend's state on a durable store. Set-up integrates the cluster
// (insert-ethers, DHCP, kickstart, rpm into per-node vfs). The measured call
// is reinstall_all(); the traced phase does the same work by hand — shoot
// every node, then time each Simulator::step until all are running.
#include <functional>

#include "cluster/cluster.hpp"
#include "layers.hpp"
#include "support/strings.hpp"

namespace rocksbench {
namespace {

namespace events = rocks::events;
using rocks::strings::cat;

/// The cluster and the disk its frontend's store lives on (which must
/// outlive it).
struct Rig {
  Rig(std::size_t node_count, std::uint64_t seed) {
    cluster::ClusterConfig config;
    config.synth.seed = seed;  // the release's package sizes and filler names
    config.synth.filler_packages = 60;
    config.frontend = durable_config(disk);
    config.enable_peer_distribution = true;
    cluster = std::make_unique<cluster::Cluster>(std::move(config));
    for (std::size_t i = 0; i < node_count; ++i) cluster->add_node();
    cluster->integrate_all();
  }

  vfs::FileSystem disk;
  std::unique_ptr<cluster::Cluster> cluster;
};

constexpr int kRounds = 3;

struct Phase {
  Rounds rounds;
  std::uint64_t installs = 0, failed = 0;
};

/// Every node back in kRunning with exactly one more install, none failed.
std::uint64_t check_round(cluster::Cluster& c, const std::vector<int>& counts_before,
                          Report& report) {
  std::uint64_t stranded = 0;
  const std::vector<cluster::Node*> nodes = c.nodes();
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (!nodes[i]->is_running()) ++stranded;
    if (nodes[i]->install_count() != counts_before[i] + 1 || nodes[i]->install_failures() != 0) {
      report.fail_check(cat(nodes[i]->hostname(), ": install_count ", nodes[i]->install_count(),
                            " (was ", counts_before[i], "), install_failures ",
                            nodes[i]->install_failures()));
      break;
    }
  }
  if (stranded > 0) report.fail_check(cat(stranded, " nodes not back in kRunning"));
  return stranded;
}

/// Reinstalls every node, round after round, for `seconds` (once when
/// `small`), calling `after_each` (if set) after every round. `lane` null =
/// Cluster::reinstall_all; otherwise shoot + traced Simulator::step by hand.
void run_reinstalls(cluster::Cluster& c, double seconds, bool small, Lane* lane, Phase& phase,
                    Report& report, const std::function<void()>& after_each = {}) {
  const std::vector<cluster::Node*> nodes = c.nodes();
  // Per-node latency: wall time from the round's start to the node's
  // kNodeState "running" event.
  Clock::time_point round_start;
  std::size_t running = 0;
  Samples latency_ms;
  const std::size_t subscription =
      c.events().subscribe(events::EventType::kNodeState, [&](const events::Event& e) {
        if (e.detail != "running") return;
        ++running;
        latency_ms.add(
            ms_since(round_start));
      });
  const Clock::time_point start = Clock::now();
  do {
    std::vector<int> counts_before;
    for (const cluster::Node* node : nodes) counts_before.push_back(node->install_count());
    running = 0;
    round_start = Clock::now();
    if (lane == nullptr) {
      c.reinstall_all();
    } else {
      ScopedSpan round(lane, "cluster.reinstall");
      for (cluster::Node* node : nodes)
        if (node->is_running()) node->shoot();
      const double deadline = c.sim().now() + 36000.0;  // run_until_stable's cap
      while (running < nodes.size() && c.sim().now() < deadline) {
        ScopedSpan span(lane, "netsim.step");
        if (!c.sim().step()) break;
      }
    }
    phase.rounds.add(static_cast<double>(nodes.size()) / seconds_since(round_start),
                     latency_ms);
    latency_ms = Samples{};
    phase.installs += nodes.size();
    phase.failed += check_round(c, counts_before, report);
    if (after_each) after_each();
  } while (!small && seconds_since(start) < seconds);
  c.events().unsubscribe(subscription);
}

}  // namespace

void run_cluster_reinstall(const Options& options, Report& report) {
  const std::size_t node_count = options.small ? 32 : 256;
  const std::uint64_t synth_seed = options.seed * 0x9E3779B97F4A7C15ULL + 2001;
  report.digest(node_count);
  report.digest(synth_seed);

  // Rounds spread set-up through the run: each builds and integrates a fresh
  // cluster and reinstalls it for its share of the run, restarting the
  // frontend from a copy of its disk after every reinstall.
  const int rounds = options.small ? 1 : kRounds;
  Samples setup_s, recover_s;
  Phase plain;
  Recovery last;
  std::unique_ptr<Rig> rig;
  for (int round = 0; round < rounds; ++round) {
    rig.reset();
    const Clock::time_point start = Clock::now();
    rig = std::make_unique<Rig>(node_count, synth_seed);
    setup_s.add(seconds_since(start));
    const auto recover = [&] {
      last = recover_frontend(rig->disk, rig->cluster->distro(),
                              rig->cluster->frontend().db().dump_state(), report);
      recover_s.add(last.seconds);
    };
    run_reinstalls(*rig->cluster, options.seconds / rounds, options.small, nullptr, plain, report,
                   recover);
  }
  report.attempted += plain.installs;
  report.failed += plain.failed;
  cluster::Cluster& c = *rig->cluster;

  const double ops_per_s = plain.rounds.best_rate();
  report.set("setup_s", setup_s.min());
  report.set("recover_s", recover_s.min());
  report.set("ops_per_s", ops_per_s);
  report.set("op_p50_ms", plain.rounds.best_p50());
  report.set("op_p99_ms", plain.rounds.best_p99());
  report.set("peak_rss_mb", peak_rss_mb());
  report.notes.push_back(cat("cluster_reinstall: ", node_count, " nodes x ", plain.rounds.size(),
                             " reinstalls; best reinstall_s=",
                             static_cast<double>(node_count) / ops_per_s,
                             " node_p50_ms=", plain.rounds.best_p50(),
                             " setup_s=", setup_s.min(), " (median ", setup_s.median(),
                             ") recover_s=", recover_s.min(), " (median ", recover_s.median(),
                             ")"));
  if (!options.trace) return;

  Tracer tracer(true);
  netsim::Simulator& sim = c.sim();
  const std::uint64_t events0 = sim.events_fired();
  const netsim::PeerStats peers0 = c.peers()->stats();
  const auto& ks = c.frontend().kickstart_server();
  const std::uint64_t requests0 = ks.requests_served();
  const std::uint64_t hits0 = ks.generator().profile_cache_hits();
  const std::uint64_t misses0 = ks.generator().profile_cache_misses();
  const SqlCounters sql0 = SqlCounters::of(c.frontend().db());
  const std::uint64_t published0 = c.events().published();
  const std::uint64_t notifications0 = c.events().notifications_sent();

  Phase traced;
  run_reinstalls(c, options.seconds, options.small, tracer.lane(0), traced, report);
  report.attempted += traced.installs;
  report.failed += traced.failed;
  const auto installs = static_cast<double>(traced.installs);
  const netsim::PeerStats& peers = c.peers()->stats();
  const double peer_bytes = peers.peer_bytes - peers0.peer_bytes;
  const double seed_bytes = peers.seed_bytes - peers0.seed_bytes;
  report.set("netsim.events_per_install",
             static_cast<double>(sim.events_fired() - events0) / installs);
  const Samples step = tracer.durations("netsim.step");
  report.set("netsim.step_p50_us", step.quantile(0.50));
  report.set("netsim.step_p99_us", step.quantile(0.99));
  report.set("peer.peer_share",
             peer_bytes + seed_bytes > 0 ? peer_bytes / (peer_bytes + seed_bytes) : 0.0);
  report.set("peer.waits_per_install",
             static_cast<double>(peers.waits - peers0.waits) / installs);
  double packages = 0;
  for (const cluster::Node* node : c.nodes())
    packages += static_cast<double>(node->rpmdb().package_count());
  report.set("rpm.packages_per_install", packages / static_cast<double>(node_count));
  report.set("kickstart.requests_per_install",
             static_cast<double>(ks.requests_served() - requests0) / installs);
  const double hits = static_cast<double>(ks.generator().profile_cache_hits() - hits0);
  const double misses = static_cast<double>(ks.generator().profile_cache_misses() - misses0);
  report.set("kickstart.profile_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report_sql(report, SqlCounters::of(c.frontend().db()) - sql0, installs);
  report.set("events.published_per_op",
             static_cast<double>(c.events().published() - published0) / installs);
  report.set("events.notifications_per_op",
             static_cast<double>(c.events().notifications_sent() - notifications0) / installs);
  report.set("sqldb.replay_records", static_cast<double>(last.report.wal_records_replayed));
  report.set("sqldb.replay_us_per_record",
             last.report.wal_records_replayed > 0
                 ? recover_s.min() * 1e6 / static_cast<double>(last.report.wal_records_replayed)
                 : 0.0);
  report.set("sqldb.versions_live",
             static_cast<double>(c.frontend().db().mvcc_status().versions_live));
  report.set("trace.spans_per_op",
             static_cast<double>(step.size() + tracer.durations("cluster.reinstall").size()) /
                 installs);
  const double traced_rate = traced.rounds.best_rate();
  report.set("trace.overhead_pct", (ops_per_s - traced_rate) / ops_per_s * 100.0);
  report.notes.push_back(cat("cluster_reinstall traced: installs_per_s=", traced_rate,
                             " step_p50_us=", step.median(),
                             " events_per_install=",
                             static_cast<double>(sim.events_fired() - events0) / installs));
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
}

}  // namespace rocksbench
