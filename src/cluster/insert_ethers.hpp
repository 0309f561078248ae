// insert-ethers: automatic node integration.
//
// "Insert-ethers monitors syslog messages for DHCP requests from new hosts
// and when found, generates a hostname, determines the next free IP
// address, binds the hostname and IP address to its Ethernet MAC address,
// and inserts this information into the database. Insert-ethers then
// rebuilds service-specific configuration files ... and restarting the
// respective services" (paper Section 6.4).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <unordered_set>
#include <vector>

#include "cluster/frontend.hpp"
#include "support/ip.hpp"

namespace rocks::cluster {

struct InsertEthersOptions {
  /// Which membership new nodes join (2 = Compute, per Table III).
  int membership = 2;
  /// Hostname prefix; full names are "<basename>-<rack>-<rank>".
  std::string basename = "compute";
  /// Current cabinet; ranks count up within it. Sequential booting binds
  /// hostnames to physical positions (the paper's footnote on seriality).
  int rack = 0;
  /// Architecture recorded for new nodes.
  std::string arch = "i386";
  /// IPs are handed out downward from here, skipping taken addresses.
  Ipv4 ip_ceiling{10, 255, 255, 254};
  /// Flush the change bus (regenerate dirty services, push DHCP bindings)
  /// after every discovery, so the node's next DHCP retry succeeds. Turn
  /// off to coalesce a burst of registrations into one flush() — N nodes
  /// then restart each service once, not N times.
  bool auto_flush = true;
};

class InsertEthers {
 public:
  InsertEthers(Frontend& frontend, netsim::SyslogBus& syslog, InsertEthersOptions options = {});
  ~InsertEthers();
  InsertEthers(const InsertEthers&) = delete;
  InsertEthers& operator=(const InsertEthers&) = delete;

  /// Begin/stop watching syslog. (The real tool runs only while the
  /// administrator integrates nodes.)
  void start();
  void stop();

  /// Moving the crash cart to the next cabinet.
  void set_rack(int rack) { options_.rack = rack; }
  void set_membership(int membership, std::string basename);
  /// The administrator selects the hardware architecture of the nodes being
  /// integrated (recorded in the nodes table; the kickstart CGI reads it).
  void set_arch(std::string arch) { options_.arch = std::move(arch); }

  /// Registers a burst of known MACs directly (no syslog round-trip), then
  /// flushes the bus once: every service restarts at most once for the
  /// whole batch. Returns how many were newly inserted (duplicates skip).
  int register_batch(const std::vector<Mac>& macs);

  /// Flushes pending changes to the services (used with auto_flush=false).
  void flush();

  /// Event spine hookup: each successful registration publishes kMembership
  /// (subject = new hostname, value = total inserted). Null detaches.
  void set_event_bus(events::EventBus* bus) { bus_ = bus; }

  [[nodiscard]] int nodes_inserted() const { return inserted_; }
  [[nodiscard]] const std::vector<std::string>& insertion_log() const { return log_; }

 private:
  void on_syslog(const netsim::SyslogMessage& message);
  /// Allocates name/rank/IP and inserts the row; false when the MAC is
  /// already registered. Does not flush.
  bool insert_node(const Mac& mac);
  /// Brings the allocation state up to date with the nodes table (DESIGN.md
  /// §11.5): one scan seeds it, the nodes journal's inserts advance it, and
  /// any update, delete or truncation reseeds it.
  void sync_allocator();
  void seed_allocator(sqldb::Database& db);
  void take(const sqldb::Row& row);  // membership, rack, rank, ip
  /// The highest free IP at or below the ceiling.
  [[nodiscard]] Ipv4 next_free_ip();
  /// One past the highest rank in the current membership and rack.
  [[nodiscard]] int next_rank() const;

  Frontend& frontend_;
  netsim::SyslogBus& syslog_;
  InsertEthersOptions options_;
  events::EventBus* bus_ = nullptr;
  std::size_t subscription_ = 0;
  bool active_ = false;
  int inserted_ = 0;
  std::vector<std::string> log_;

  services::JournalCursor nodes_cursor_{"nodes"};
  // The lookups insert_node runs per node, prepared once.
  sqldb::Database::PreparedStatement name_by_mac_, select_allocation_, allocation_by_id_;
  /// Every address in (ip_cursor_, ceiling] is taken; below it, the
  /// addresses some row holds as canonical dotted-quad text.
  Ipv4 ip_cursor_;
  std::unordered_set<std::uint32_t> taken_ips_;
  /// (membership, rack) -> the rank ORDER BY rank DESC puts first.
  std::map<sqldb::Row, sqldb::Value, services::SortKeyLess> top_rank_;
};

}  // namespace rocks::cluster
