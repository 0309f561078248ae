// Per-layer counter snapshots and the frontend fixtures the workloads share.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "cluster/frontend.hpp"
#include "harness.hpp"
#include "netsim/engine.hpp"
#include "netsim/syslog.hpp"
#include "rpm/synth.hpp"
#include "sqldb/engine.hpp"
#include "vfs/filesystem.hpp"

namespace rocksbench {

namespace cluster = rocks::cluster;
namespace netsim = rocks::netsim;
namespace rpm = rocks::rpm;
namespace sqldb = rocks::sqldb;
namespace vfs = rocks::vfs;

/// Where every durable store in the benchmark lives on its disk.
inline constexpr const char* kStateDir = "/state/db";

/// The public sqldb counters one phase moved.
struct SqlCounters {
  std::uint64_t stmt_hits = 0;
  std::uint64_t stmt_misses = 0;
  std::uint64_t scans = 0;
  std::uint64_t index_plans = 0;  // index probes + index joins + hash joins
  std::uint64_t read_views = 0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  std::uint64_t wal_flushes = 0;

  [[nodiscard]] static SqlCounters of(const sqldb::Database& db);
  SqlCounters& operator+=(const SqlCounters& other);
  [[nodiscard]] SqlCounters operator-(const SqlCounters& before) const;
};

/// Sets the sqldb.* per-op metrics from one phase's counter delta.
void report_sql(Report& report, const SqlCounters& delta, double ops);

/// The release media the frontend-only workloads mirror. Built once per
/// process, before any timed set-up: it is an input, not set-up work.
[[nodiscard]] const rpm::SynthDistro& distro();

/// A frontend with its durable store on a disk the benchmark owns. Not
/// movable: the frontend holds references to the members before it.
struct FrontendHost {
  FrontendHost();
  FrontendHost(const FrontendHost&) = delete;
  FrontendHost& operator=(const FrontendHost&) = delete;

  vfs::FileSystem disk;
  netsim::Simulator sim;
  netsim::SyslogBus syslog;
  std::unique_ptr<cluster::Frontend> frontend;
};

[[nodiscard]] cluster::FrontendConfig durable_config(vfs::FileSystem& disk);

struct Recovery {
  double seconds = 0.0;
  sqldb::RecoveryReport report;
};

/// Site configuration a frontend applies at every boot (its XML files live
/// outside the database, so recovery re-applies them too).
using SiteConfig = void (*)(cluster::Frontend&);

/// A site extension (paper Section 6.1): pins eth0 to the node's address,
/// so every compute kickstart file names its requester's IP.
void extend_compute(cluster::Frontend& frontend);

/// Restarts a frontend of `release` from a copy of `disk`
/// (Frontend::recover), applies `site`, and checks that its database dump
/// equals `expected_dump`. Only the restart is timed; copying the disk and
/// comparing are not.
Recovery recover_frontend(const vfs::FileSystem& disk, const rpm::SynthDistro& release,
                          const std::string& expected_dump, Report& report,
                          SiteConfig site = nullptr);

/// Distinct, locally administered MACs drawn from the seed.
[[nodiscard]] rocks::Mac seeded_mac(std::uint64_t seed, std::size_t index);

}  // namespace rocksbench
