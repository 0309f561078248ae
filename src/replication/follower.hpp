// A follower frontend: a durable replica that serves reads (DESIGN.md §12.3).
//
// The paper's single frontend is the cluster's one irreplaceable machine —
// lose it and nothing can register, kickstart, or resolve configuration. A
// Follower closes that gap: it continuously replays the leader's shipped
// WAL into its *own* durable store (leader LSNs preserved, so its
// independent crash recovery replays the same history), regenerates the
// same /etc configuration files through the same registered services, and —
// when built with a distribution — runs a live kickstart CGI and HTTP tree
// that installing nodes can be re-pointed at (Node::repoint). DML is fenced:
// the underlying Database is read-only with a redirect-to-leader hint, and
// only replication traffic (apply_shipment / bootstrap) writes.
//
// Epoch fencing: the follower remembers the highest leader epoch it has
// seen. Shipments from a lower epoch are refused without touching state —
// a resurrected stale leader cannot commit anything here — and a higher
// epoch is adopted (a promotion happened). promote() turns the follower
// itself into the new epoch's leader: the write fence drops and the
// ControlPlane re-points the ship stream at its database.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cluster/frontend.hpp"
#include "cluster/node.hpp"
#include "kickstart/defaults.hpp"
#include "kickstart/server.hpp"
#include "netsim/dhcp.hpp"
#include "netsim/engine.hpp"
#include "netsim/http.hpp"
#include "netsim/syslog.hpp"
#include "replication/shipment.hpp"
#include "rocksdist/rocksdist.hpp"
#include "rpm/image.hpp"
#include "services/manager.hpp"
#include "sqldb/engine.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::replication {

struct FollowerConfig {
  std::string name = "frontend-1";
  Ipv4 ip{10, 1, 1, 2};
  std::string state_dir = "/state/db";
  std::string dist_version = "7.2";
  double http_capacity = 7.5 * 1024 * 1024;
  std::size_t http_servers = 1;
  /// Needed for the serving role's DHCP server; null = no DHCP service.
  netsim::SyslogBus* syslog = nullptr;
};

class Follower {
 public:
  /// A storage-only replica when `distro` is null; with a distribution the
  /// follower also builds its own rocks-dist tree and serves kickstart +
  /// HTTP — the full read path installing nodes need after a failover.
  Follower(netsim::Simulator& sim, const rpm::SynthDistro* distro, FollowerConfig config);

  [[nodiscard]] const std::string& name() const { return config_.name; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] std::uint64_t last_lsn() const { return db_.last_lsn(); }
  [[nodiscard]] bool serving() const { return kickstart_ != nullptr; }
  [[nodiscard]] bool leader() const { return !db_.read_only(); }

  // --- the replication receive path ----------------------------------------
  /// Decodes and applies one wire shipment; a corrupt envelope is refused
  /// (never throws — the link delivered bytes, the answer is an Ack).
  Ack handle_shipment(std::string_view wire);
  Ack apply_shipment(const Shipment& shipment);
  /// Installs a leader bootstrap image (snapshot catch-up), fenced by epoch
  /// like any shipment.
  Ack apply_bootstrap(std::string_view image, std::uint64_t shipment_epoch);

  /// Failover: this follower becomes the leader of `new_epoch` (must be
  /// above every epoch it has seen). Drops the write fence and regenerates
  /// services so the promoted frontend's config files are current before it
  /// answers anything.
  void promote(std::uint64_t new_epoch);

  // --- the read-serving surface --------------------------------------------
  [[nodiscard]] sqldb::Database& db() { return db_; }
  [[nodiscard]] const sqldb::Database& db() const { return db_; }
  /// The follower's disk (durable store + generated config files); tests
  /// copy_tree this for shadow-replay verification.
  [[nodiscard]] vfs::FileSystem& disk() { return disk_; }
  [[nodiscard]] const vfs::FileSystem& disk() const { return disk_; }
  [[nodiscard]] const sqldb::RecoveryReport& recovery() const { return recovery_; }
  [[nodiscard]] services::ServiceManager& services() { return services_; }
  [[nodiscard]] kickstart::KickstartServer& kickstart_server() { return *kickstart_; }

  /// The wiring to re-point an installing Node at this follower
  /// (Node::repoint after a failover). Requires the serving role.
  [[nodiscard]] cluster::NodeEnvironment environment();

  // --- observability ---------------------------------------------------------
  [[nodiscard]] std::uint64_t shipments_applied() const { return shipments_applied_; }
  [[nodiscard]] std::uint64_t fenced() const { return fenced_; }
  [[nodiscard]] std::uint64_t bootstraps() const { return bootstraps_; }

 private:
  /// Post-apply flush: regenerate dirty services into the follower's disk
  /// and (when serving DHCP) re-push bindings — the same derived-state
  /// convergence the leader's Frontend::flush_services performs.
  void flush_services();

  netsim::Simulator& sim_;
  FollowerConfig config_;
  vfs::FileSystem disk_;
  sqldb::Database db_;
  sqldb::RecoveryReport recovery_;
  services::ServiceManager services_;

  std::uint64_t epoch_ = 0;
  std::uint64_t shipments_applied_ = 0;
  std::uint64_t fenced_ = 0;
  std::uint64_t bootstraps_ = 0;

  // Serving role (null for storage-only replicas).
  std::optional<kickstart::DefaultConfiguration> configuration_;
  std::unique_ptr<rocksdist::RocksDist> rocksdist_;
  std::unique_ptr<rpm::InstallImageCache> images_;  // of rocksdist_'s distribution
  std::unique_ptr<netsim::HttpServerGroup> http_;
  std::unique_ptr<netsim::DhcpServer> dhcp_;
  std::unique_ptr<kickstart::KickstartServer> kickstart_;
  cluster::DhcpBindingPush dhcp_bindings_;
};

}  // namespace rocks::replication
