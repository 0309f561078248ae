// node_integration: insert-ethers integrating nodes as they boot.
//
// A durable frontend wired the way Cluster's constructor wires it (event
// bus bridged to the journal, frontend and insert-ethers on the bus, a
// trigger engine over the frontend database). Nodes are discovered one at a
// time: each discovery is a dhcpd DHCPDISCOVER line published on the
// SyslogBus, followed by InsertEthers::flush() — the work auto_flush does,
// split so the two layers can be timed apart. The crash cart moves every 32
// nodes. One round integrates a whole cluster from an empty frontend.
#include <algorithm>
#include <limits>

#include "cluster/insert_ethers.hpp"
#include "events/bus.hpp"
#include "events/trigger.hpp"
#include "layers.hpp"
#include "support/strings.hpp"

namespace rocksbench {
namespace {

namespace events = rocks::events;
using rocks::strings::cat;

constexpr int kRackSize = 32;

/// The integration stack of one round. Teardown mirrors ~Cluster(): the
/// frontend and insert-ethers leave the bus before it is destroyed.
struct Rig {
  Rig() {
    cluster::InsertEthersOptions options;
    options.auto_flush = false;
    insert_ethers = std::make_unique<cluster::InsertEthers>(*host.frontend, host.syslog, options);
    bus = std::make_unique<events::EventBus>([this] { return host.sim.now(); });
    bus->bridge_journal(host.frontend->db().journal());
    host.frontend->set_event_bus(bus.get());
    insert_ethers->set_event_bus(bus.get());
    triggers = std::make_unique<events::TriggerEngine>(host.frontend->db(), *bus);
    insert_ethers->start();
  }
  ~Rig() {
    host.frontend->set_event_bus(nullptr);
    insert_ethers->set_event_bus(nullptr);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  FrontendHost host;
  std::unique_ptr<cluster::InsertEthers> insert_ethers;
  std::unique_ptr<events::EventBus> bus;
  std::unique_ptr<events::TriggerEngine> triggers;
};

std::size_t count_lines_with(const std::string& text, std::string_view needle) {
  std::size_t count = 0;
  for (std::size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size()))
    ++count;
  return count;
}

struct Phase {
  Samples setup_s, recover_s, snapshot_ms;
  /// The fastest latency seen for each registration position (the i-th node
  /// of a round) over all rounds. A registration's cost grows with the
  /// nodes before it, so positions are compared only with themselves; the
  /// per-position minimum filters machine noise shorter than the run.
  std::vector<double> best_ms;
  std::size_t round_count = 0;
  [[nodiscard]] double ops_per_s() const {
    double total_ms = 0;
    for (const double ms : best_ms) total_ms += ms;
    return static_cast<double>(best_ms.size()) * 1000.0 / total_ms;
  }
  [[nodiscard]] double best_quantile(double q) const {
    Samples best;
    for (const double ms : best_ms) best.add(ms);
    return best.quantile(q);
  }
  Samples discover_growth, flush_growth;
  SqlCounters sql;
  double renders = 0, restarts = 0, published = 0, notifications = 0;
  std::uint64_t nodes = 0, failed = 0;
  Recovery last_recovery;
  std::size_t versions_live = 0;
};

void run_round(const std::vector<rocks::Mac>& macs, Lane* lane, Phase& phase, Report& report) {
  const Clock::time_point setup_start = Clock::now();
  Rig rig;
  phase.setup_s.add(seconds_since(setup_start));
  cluster::Frontend& frontend = *rig.host.frontend;
  rocks::services::ServiceManager& services = frontend.services();
  const auto service_totals = [&services](double& renders, double& restarts) {
    renders = 0;
    for (const std::string& name : services.service_names())
      renders += static_cast<double>(services.generator_runs(name));
    restarts = static_cast<double>(services.total_restarts());
  };
  double renders0 = 0, restarts0 = 0;
  service_totals(renders0, restarts0);
  const double published0 = static_cast<double>(rig.bus->published());
  const double notifications0 = static_cast<double>(rig.bus->notifications_sent());
  const SqlCounters sql0 = SqlCounters::of(frontend.db());
  const std::size_t discover_mark = lane && lane->durations("insert_ethers.discover")
                                        ? lane->durations("insert_ethers.discover")->size()
                                        : 0;

  phase.best_ms.resize(macs.size(), std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < macs.size(); ++i) {
    if (i % kRackSize == 0) rig.insert_ethers->set_rack(static_cast<int>(i / kRackSize));
    rocks::netsim::SyslogMessage message{
        rig.host.sim.now(), "dhcpd", frontend.config().name,
        cat("DHCPDISCOVER from ", macs[i].to_string(),
            " via eth0: network 10.0.0.0/8: no free leases")};
    const int before = rig.insert_ethers->nodes_inserted();
    const Clock::time_point start = Clock::now();
    {
      ScopedSpan node(lane, "integration.node");
      {
        ScopedSpan span(lane, "insert_ethers.discover");
        rig.host.syslog.publish(std::move(message));
      }
      ScopedSpan span(lane, "frontend.flush");
      rig.insert_ethers->flush();
    }
    const double ms = ms_since(start);
    phase.best_ms[i] = std::min(phase.best_ms[i], ms);
    if (rig.insert_ethers->nodes_inserted() == before) ++phase.failed;
  }
  ++phase.round_count;
  phase.nodes += macs.size();

  double renders = 0, restarts = 0;
  service_totals(renders, restarts);
  phase.renders += renders - renders0;
  phase.restarts += restarts - restarts0;
  phase.published += static_cast<double>(rig.bus->published()) - published0;
  phase.notifications += static_cast<double>(rig.bus->notifications_sent()) - notifications0;
  phase.sql += SqlCounters::of(frontend.db()) - sql0;
  if (lane != nullptr) {
    const auto& discover = lane->durations("insert_ethers.discover")->values();
    const auto& flush = lane->durations("frontend.flush")->values();
    const auto mark = static_cast<std::ptrdiff_t>(discover_mark);
    phase.discover_growth.add(growth(std::vector<double>(discover.begin() + mark, discover.end())));
    phase.flush_growth.add(growth(std::vector<double>(flush.begin() + mark, flush.end())));
  }

  // Correctness: every node registered, named in /etc/hosts and
  // /etc/dhcpd.conf, and bound in DHCP.
  const auto n = macs.size();
  if (static_cast<std::size_t>(rig.insert_ethers->nodes_inserted()) != n)
    report.fail_check(
        cat("nodes_inserted() = ", rig.insert_ethers->nodes_inserted(), ", want ", n));
  const std::size_t hosts = count_lines_with(frontend.fs().read_file("/etc/hosts"), " compute-");
  if (hosts != n) report.fail_check(cat("/etc/hosts has ", hosts, " compute entries, want ", n));
  const std::size_t stanzas =
      count_lines_with(frontend.fs().read_file("/etc/dhcpd.conf"), "host compute-");
  if (stanzas != n)
    report.fail_check(cat("/etc/dhcpd.conf has ", stanzas, " compute hosts, want ", n));
  for (const rocks::Mac& mac : macs)
    if (!frontend.dhcp().knows(mac)) {
      report.fail_check(cat("no DHCP binding for ", mac.to_string()));
      break;
    }

  // Checkpoint, then restart from a copy of the disk.
  {
    ScopedSpan span(lane, "sqldb.snapshot");
    const Clock::time_point start = Clock::now();
    frontend.checkpoint();
    phase.snapshot_ms.add(ms_since(start));
  }
  phase.last_recovery =
      recover_frontend(rig.host.disk, distro(), frontend.db().dump_state(), report);
  phase.recover_s.add(phase.last_recovery.seconds);
  phase.versions_live = frontend.db().mvcc_status().versions_live;
}

Phase run_phase(const std::vector<rocks::Mac>& macs, const Options& options, Lane* lane,
                Report& report) {
  Phase phase;
  const Clock::time_point start = Clock::now();
  do {
    run_round(macs, lane, phase, report);
  } while (!options.small && seconds_since(start) < options.seconds);
  report.attempted += phase.nodes;
  report.failed += phase.failed;
  return phase;
}

}  // namespace

void run_node_integration(const Options& options, Report& report) {
  const std::size_t node_count = options.small ? 128 : 1024;
  std::vector<rocks::Mac> macs;
  for (std::size_t i = 0; i < node_count; ++i) {
    macs.push_back(seeded_mac(options.seed, i));
    report.digest(macs.back().value());
  }
  (void)distro();  // built before any timed set-up

  const Phase plain = run_phase(macs, options, nullptr, report);
  const double ops_per_s = plain.ops_per_s();
  report.set("setup_s", plain.setup_s.min());
  report.set("recover_s", plain.recover_s.min());
  report.set("ops_per_s", ops_per_s);
  report.set("op_p50_ms", plain.best_quantile(0.50));
  report.set("op_p99_ms", plain.best_quantile(0.99));
  report.set("peak_rss_mb", peak_rss_mb());
  report.notes.push_back(cat("node_integration: ", node_count, " nodes x ", plain.round_count,
                             " rounds; best per position integrate_nodes_per_s=", ops_per_s,
                             " integrate_p50_ms=", plain.best_quantile(0.50),
                             " integrate_p99_ms=", plain.best_quantile(0.99),
                             " setup_s=", plain.setup_s.min(), " (median ", plain.setup_s.median(),
                             ") recover_s=", plain.recover_s.min(), " (median ",
                             plain.recover_s.median(), ")"));
  if (!options.trace) return;

  Tracer tracer(true);
  Lane* lane = tracer.lane(0);
  const Phase traced = run_phase(macs, options, lane, report);
  const auto nodes = static_cast<double>(traced.nodes);
  const Samples discover = tracer.durations("insert_ethers.discover");
  const Samples flush = tracer.durations("frontend.flush");
  report.set("insert_ethers.discover_p50_ms", discover.quantile(0.50) / 1000.0);
  report.set("insert_ethers.discover_p99_ms", discover.quantile(0.99) / 1000.0);
  report.set("insert_ethers.discover_growth", traced.discover_growth.median());
  report.set("frontend.flush_p50_ms", flush.quantile(0.50) / 1000.0);
  report.set("frontend.flush_p99_ms", flush.quantile(0.99) / 1000.0);
  report.set("frontend.flush_growth", traced.flush_growth.median());
  report.set("services.renders_per_node", traced.renders / nodes);
  report.set("services.restarts_per_node", traced.restarts / nodes);
  report.set("events.published_per_op", traced.published / nodes);
  report.set("events.notifications_per_op", traced.notifications / nodes);
  report_sql(report, traced.sql, nodes);
  report.set("sqldb.snapshot_ms", traced.snapshot_ms.median());
  const auto replayed = traced.last_recovery.report.wal_records_replayed;
  report.set("sqldb.replay_records", static_cast<double>(replayed));
  report.set("sqldb.replay_us_per_record",
             replayed > 0 ? traced.last_recovery.seconds * 1e6 / static_cast<double>(replayed)
                          : 0.0);
  report.set("sqldb.versions_live", static_cast<double>(traced.versions_live));
  report.set("trace.spans_per_op",
             static_cast<double>(discover.size() + flush.size() +
                                 tracer.durations("integration.node").size()) / nodes);
  const double traced_rate = traced.ops_per_s();
  report.set("trace.overhead_pct", (ops_per_s - traced_rate) / ops_per_s * 100.0);
  report.notes.push_back(cat("node_integration traced: integrate_nodes_per_s=", traced_rate,
                             " discover_growth=", traced.discover_growth.median(),
                             " flush_growth=", traced.flush_growth.median()));
  if (!options.trace_out.empty()) tracer.write(options.trace_out);
}

}  // namespace rocksbench
