#include "layers.hpp"

#include "support/rng.hpp"

namespace rocksbench {

SqlCounters SqlCounters::of(const sqldb::Database& db) {
  SqlCounters c;
  c.stmt_hits = db.statement_cache_hits();
  c.stmt_misses = db.statement_cache_misses();
  c.scans = db.plans_scan();
  c.index_plans = db.plans_index_probe() + db.plans_index_join() + db.plans_hash_join();
  c.read_views = db.read_views_opened();
  c.wal_records = db.wal_records_appended();
  c.wal_bytes = db.wal_bytes_written();
  c.wal_flushes = db.wal_flushes();
  return c;
}

SqlCounters& SqlCounters::operator+=(const SqlCounters& other) {
  stmt_hits += other.stmt_hits;
  stmt_misses += other.stmt_misses;
  scans += other.scans;
  index_plans += other.index_plans;
  read_views += other.read_views;
  wal_records += other.wal_records;
  wal_bytes += other.wal_bytes;
  wal_flushes += other.wal_flushes;
  return *this;
}

SqlCounters SqlCounters::operator-(const SqlCounters& before) const {
  SqlCounters d;
  d.stmt_hits = stmt_hits - before.stmt_hits;
  d.stmt_misses = stmt_misses - before.stmt_misses;
  d.scans = scans - before.scans;
  d.index_plans = index_plans - before.index_plans;
  d.read_views = read_views - before.read_views;
  d.wal_records = wal_records - before.wal_records;
  d.wal_bytes = wal_bytes - before.wal_bytes;
  d.wal_flushes = wal_flushes - before.wal_flushes;
  return d;
}

void report_sql(Report& report, const SqlCounters& d, double ops) {
  const auto per_op = [ops](std::uint64_t count) {
    return ops > 0.0 ? static_cast<double>(count) / ops : 0.0;
  };
  const std::uint64_t statements = d.stmt_hits + d.stmt_misses;
  report.set("sqldb.stmt_hit_ratio",
             statements > 0 ? static_cast<double>(d.stmt_hits) / static_cast<double>(statements)
                            : 0.0);
  report.set("sqldb.parses_per_op", per_op(d.stmt_misses));
  report.set("sqldb.scans_per_op", per_op(d.scans));
  report.set("sqldb.index_plans_per_op", per_op(d.index_plans));
  report.set("sqldb.read_views_per_op", per_op(d.read_views));
  report.set("sqldb.wal_records_per_op", per_op(d.wal_records));
  report.set("sqldb.wal_bytes_per_op", per_op(d.wal_bytes));
  report.set("sqldb.wal_flushes_per_op", per_op(d.wal_flushes));
}

const rpm::SynthDistro& distro() {
  static const rpm::SynthDistro release = [] {
    rpm::SynthOptions options;
    options.filler_packages = 60;  // the reduced contrib tail bench_common uses
    return rpm::make_redhat_release(options);
  }();
  return release;
}

cluster::FrontendConfig durable_config(vfs::FileSystem& disk) {
  cluster::FrontendConfig config;
  config.state_fs = &disk;
  config.state_dir = kStateDir;
  return config;
}

FrontendHost::FrontendHost()
    : frontend(std::make_unique<cluster::Frontend>(sim, syslog, distro(), durable_config(disk))) {}

void extend_compute(cluster::Frontend& frontend) {
  rocks::kickstart::NodeFile extend("extend-compute");
  extend.add_post("echo 'IPADDR=@IP@' > /etc/sysconfig/network-scripts/ifcfg-eth0\n");
  frontend.node_files().add(std::move(extend));
  frontend.graph().add_edge("compute", "extend-compute");
}

Recovery recover_frontend(const vfs::FileSystem& disk, const rpm::SynthDistro& release,
                          const std::string& expected_dump, Report& report, SiteConfig site) {
  vfs::FileSystem copy;
  copy.copy_tree(disk, kStateDir, kStateDir);
  netsim::Simulator sim;
  netsim::SyslogBus syslog;
  Recovery out;
  const Clock::time_point start = Clock::now();
  const std::unique_ptr<cluster::Frontend> recovered =
      cluster::Frontend::recover(sim, syslog, release, durable_config(copy));
  if (site != nullptr) site(*recovered);
  out.seconds = seconds_since(start);
  out.report = recovered->recovery();
  if (recovered->db().dump_state() != expected_dump)
    report.fail_check("recovered frontend dump_state() differs from the live one");
  return out;
}

rocks::Mac seeded_mac(std::uint64_t seed, std::size_t index) {
  // 20 seed bits above a 20-bit index: distinct for up to 1M nodes.
  rocks::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5EED);
  const std::uint64_t salt = rng.next_u64() & 0xFFFFFULL;
  return rocks::Mac(0x020000000000ULL | (salt << 20) |
                    (static_cast<std::uint64_t>(index) & 0xFFFFF));
}

}  // namespace rocksbench
