// The frontend node: every service the cluster depends on.
//
// "The frontend node requires the skills of a savvy UNIX user, as this is a
// machine which runs many of the services found on any robust server"
// (paper Section 5). One Frontend owns the SQL database, the kickstart CGI
// service, DHCP, the HTTP distribution servers, rocks-dist, and the service
// manager that regenerates /etc configuration from database reports.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "events/bus.hpp"
#include "kickstart/defaults.hpp"
#include "kickstart/server.hpp"
#include "netsim/dhcp.hpp"
#include "netsim/engine.hpp"
#include "netsim/http.hpp"
#include "netsim/syslog.hpp"
#include "rocksdist/rocksdist.hpp"
#include "rpm/image.hpp"
#include "services/incremental.hpp"
#include "services/manager.hpp"
#include "sqldb/engine.hpp"
#include "vfs/filesystem.hpp"

// Forward declaration: nodes receive their environment from the frontend.
namespace rocks::cluster {
struct NodeEnvironment;
}

namespace rocks::cluster {

/// The DHCP daemon's static bindings, pushed from the nodes table (by the
/// Frontend and by serving Followers). A row binds its MAC to its IP and
/// name when both parse; a MAC held by several rows keeps the lowest id's
/// lease. The first push, invalidate() and a truncated journal bind the
/// whole table; after that each push applies the nodes journal's delta
/// (DESIGN.md §10.4), so its cost tracks the change, not the cluster. Row
/// ids are assumed unique, as in IncrementalReport.
class DhcpBindingPush {
 public:
  void invalidate() { cursor_.invalidate(); }  // force the next full push
  void push(sqldb::Database& db, netsim::DhcpServer& dhcp, Ipv4 server_ip);

 private:
  using Holder = std::pair<Mac, sqldb::Value>;  // a row's MAC and pk
  struct HolderLess {
    bool operator()(const Holder& a, const Holder& b) const {
      return a.first != b.first ? a.first < b.first : a.second.compare(b.second) < 0;
    }
  };
  using Holders = std::map<Holder, netsim::DhcpLease, HolderLess>;

  /// Records row `i` as a holder of its MAC; returns the entry when the row
  /// now holds the binding (the lowest id among the MAC's rows).
  std::optional<Holders::const_iterator> hold(const sqldb::ResultSet& rows, std::size_t i,
                                              Ipv4 server_ip);
  /// Forgets what `pk` held, handing its MAC to the next-lowest row or
  /// unbinding it.
  void release(netsim::DhcpServer& dhcp, const sqldb::Value& pk);

  services::JournalCursor cursor_{"nodes"};
  // The full scan and the per-pk re-fetch, prepared on the first push.
  sqldb::Database::PreparedStatement select_all_, select_one_;
  /// pk -> the MAC its row holds (rows whose MAC and IP parse).
  std::unordered_map<sqldb::Value, Mac, sqldb::ValueHash, sqldb::ValueEqual> mac_of_;
  /// Every such row's lease, by MAC then id: a MAC's first entry is bound.
  Holders holders_;
};

struct FrontendConfig {
  std::string name = "frontend-0";
  Ipv4 ip{10, 1, 1, 1};
  Mac mac{0x0030C1D8AC80ULL};  // the paper's Table II frontend MAC
  /// Sustained HTTP source rate per server in bytes/s (paper micro-benchmark:
  /// the dual-PIII on Fast Ethernet sourced 7-8 MB/s).
  double http_capacity = 7.5 * 1024 * 1024;
  /// Per-download stream cap in bytes/s; 0 = uncapped. Lets benches model
  /// "one TCP stream sources 7.5 MB/s, many streams fill the NIC".
  double http_per_stream_cap = 0.0;
  std::size_t http_servers = 1;
  std::string dist_version = "7.2";

  /// Durable configuration store (DESIGN.md §11). When `state_fs` is set,
  /// the database opens a WAL + snapshot store under `state_dir` on that
  /// filesystem *before* the schema bootstrap, recovering whatever a
  /// previous frontend committed there. Pass a FileSystem that outlives the
  /// Frontend (it models the frontend's disk, which survives the process):
  /// after a crash, Frontend::recover() with the same config rebuilds the
  /// exact committed cluster state — registered nodes, users, site rows —
  /// and regenerates every derived config file. Null keeps the database
  /// purely in RAM (the pre-§11 behaviour).
  vfs::FileSystem* state_fs = nullptr;
  std::string state_dir = "/state/db";
  /// Statements per WAL flush (1 = every commit durable before it returns;
  /// see Database::set_wal_group_commit). insert-ethers batches flush the
  /// WAL before acknowledging regardless, so a larger batch here trades
  /// only unacknowledged tail work.
  std::size_t wal_group_commit = 1;
};

class Frontend {
 public:
  /// Boots the frontend: creates the database schema, registers its own
  /// nodes-table row, mirrors `distro` with rocks-dist, builds the
  /// distribution tree, and starts all services.
  Frontend(netsim::Simulator& sim, netsim::SyslogBus& syslog, const rpm::SynthDistro& distro,
           FrontendConfig config = {});

  /// Crash recovery, spelled out: constructs a frontend from the durable
  /// store in `config.state_fs` (which must be set — throws StateError
  /// otherwise). Semantically identical to the constructor — recovery IS a
  /// cold boot against a surviving disk — but the call site reads as what
  /// it is, and the factory asserts a store is actually present. Every
  /// service is regenerated on the way up, so config files a crash left
  /// stale (or never wrote) match the recovered database before the call
  /// returns.
  [[nodiscard]] static std::unique_ptr<Frontend> recover(netsim::Simulator& sim,
                                                         netsim::SyslogBus& syslog,
                                                         const rpm::SynthDistro& distro,
                                                         FrontendConfig config);

  /// What open_durable() found at boot; all-zero when state_fs was null.
  [[nodiscard]] const sqldb::RecoveryReport& recovery() const { return recovery_; }
  /// True when the boot recovered pre-existing committed state (a snapshot,
  /// WAL records, or both) rather than initializing a fresh store.
  [[nodiscard]] bool recovered() const {
    return recovery_.snapshot_loaded || recovery_.wal_records_replayed > 0;
  }

  /// Checkpoints the database (Database::snapshot()): bounds recovery time
  /// and WAL growth. Zero-pause for readers — the snapshot serializes from
  /// a pinned MVCC read view, so kickstart resolves and report renders keep
  /// running while the image is written; writers block only for the brief
  /// capture and swap phases, never for serialization or file I/O. Returns
  /// the snapshot sequence number.
  std::uint64_t checkpoint() { return db_.snapshot(); }

  [[nodiscard]] const FrontendConfig& config() const { return config_; }
  [[nodiscard]] sqldb::Database& db() { return db_; }
  [[nodiscard]] vfs::FileSystem& fs() { return fs_; }
  [[nodiscard]] netsim::DhcpServer& dhcp() { return dhcp_; }
  [[nodiscard]] netsim::HttpServerGroup& http() { return http_; }
  [[nodiscard]] kickstart::KickstartServer& kickstart_server() { return *kickstart_server_; }
  [[nodiscard]] rocksdist::RocksDist& rocksdist() { return rocksdist_; }
  [[nodiscard]] services::ServiceManager& services() { return services_; }
  [[nodiscard]] kickstart::NodeFileSet& node_files() { return configuration_.files; }
  [[nodiscard]] kickstart::Graph& graph() { return configuration_.graph; }
  [[nodiscard]] const rpm::Repository& distribution() const {
    return rocksdist_.distribution();
  }
  /// The install images nodes reinstall from, one per (arch, package list)
  /// of the current distribution (DESIGN.md §14.5).
  [[nodiscard]] rpm::InstallImageCache& install_images() { return images_; }

  /// Installs the replication commit barrier (DESIGN.md §12.4): invoked by
  /// flush_services() after the local WAL durability flush and before any
  /// output becomes externally visible. Under quorum-ack commit the barrier
  /// ships pending WAL groups and throws UnavailableError when a majority
  /// of the voting set has not acknowledged — the flush aborts and the
  /// batch is never acknowledged to the operator. Null (the default) keeps
  /// the single-frontend behaviour.
  void set_commit_barrier(std::function<void()> barrier) {
    commit_barrier_ = std::move(barrier);
  }

  /// Attaches the frontend to the event spine (DESIGN.md §15):
  /// flush_services() publishes one kServiceFlush per restarted service.
  /// Null detaches. Service dirty tracking stays on the journal either way.
  void set_event_bus(events::EventBus* bus) { bus_ = bus; }

  /// Flushes the change bus: regenerates the config files whose source
  /// tables changed since the last flush (dirty services only), restarts
  /// the ones whose content moved, and re-pushes DHCP bindings when the
  /// nodes table changed. This is the normal post-commit path — its cost
  /// tracks the size of the change, not the cluster.
  services::ServiceManager::Report flush_services();

  /// Legacy full regeneration: marks every service dirty, flushes, and
  /// forces a DHCP binding push. Returns the restarted service names.
  std::vector<std::string> regenerate_services();

  /// useradd: adds an account row and pushes the NIS maps ("User account
  /// configuration ... synchronized from the frontend node to compute nodes
  /// with the Network Information Service", Section 5). Home directories
  /// live under the NFS-exported /export/home. The name becomes a path
  /// component, so an empty name or one holding '/' or NUL throws
  /// StateError before anything is written.
  void add_user(std::string_view name, int uid, std::string_view shell = "/bin/bash");

  /// What a compute node's ypbind resolves: the current NIS passwd map.
  [[nodiscard]] std::string nis_passwd_map();

  /// Re-runs rocks-dist (after mirroring updates or editing the XML infra).
  rocksdist::DistReport rebuild_distribution();

  /// Mirrors an errata repository, then rebuilds ("If Red Hat ships it, so
  /// do we", Section 6.2.1).
  rocksdist::DistReport apply_updates(const rpm::Repository& updates);

  /// The wiring a Node needs to boot and install.
  [[nodiscard]] NodeEnvironment environment();

 private:
  netsim::Simulator& sim_;
  netsim::SyslogBus& syslog_;
  FrontendConfig config_;
  vfs::FileSystem fs_;
  sqldb::Database db_;
  kickstart::DefaultConfiguration configuration_;
  rocksdist::RocksDist rocksdist_;
  rpm::InstallImageCache images_{rocksdist_.distribution()};
  netsim::HttpServerGroup http_;
  netsim::DhcpServer dhcp_;
  std::unique_ptr<kickstart::KickstartServer> kickstart_server_;
  services::ServiceManager services_;
  DhcpBindingPush dhcp_bindings_;
  sqldb::RecoveryReport recovery_;
  std::function<void()> commit_barrier_;  // replication quorum/ship hook
  events::EventBus* bus_ = nullptr;       // the cluster's event spine
};

}  // namespace rocks::cluster
