// DHCP: "For configuring Ethernet devices on compute nodes, the Dynamic
// Host Configuration Protocol (DHCP) is essential" (paper Section 5).
//
// The server answers DISCOVERs from MACs that appear in its configuration
// (generated from the SQL nodes table); unknown MACs are logged to syslog —
// that log line is exactly what insert-ethers listens for.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "netsim/engine.hpp"
#include "netsim/syslog.hpp"
#include "support/ip.hpp"

namespace rocks::netsim {

class FaultInjector;

struct DhcpLease {
  Ipv4 ip;
  std::string hostname;
  Ipv4 server;  // next-server: where kickstart files are fetched from
};

class DhcpServer {
 public:
  DhcpServer(Simulator& sim, SyslogBus& syslog, std::string host_name, Ipv4 server_ip);

  /// Replaces the static binding table (a dhcpd.conf reload).
  void configure(std::map<Mac, DhcpLease> bindings);
  /// Binds (or rebinds) one MAC without touching the others.
  void add_binding(Mac mac, DhcpLease lease);
  void remove_binding(Mac mac) { bindings_.erase(mac); }
  [[nodiscard]] const std::map<Mac, DhcpLease>& bindings() const { return bindings_; }
  [[nodiscard]] std::size_t binding_count() const { return bindings_.size(); }
  [[nodiscard]] bool knows(Mac mac) const { return bindings_.contains(mac); }

  /// A client broadcasts DISCOVER. Known MAC: returns its lease (an OFFER)
  /// and logs "DHCPDISCOVER/DHCPOFFER". Unknown MAC: logs the request and
  /// returns nullopt (no free-pool in a Rocks cluster; insert-ethers must
  /// add the node first).
  std::optional<DhcpLease> discover(Mac mac);

  [[nodiscard]] std::size_t discover_count() const { return discovers_; }
  [[nodiscard]] std::size_t unanswered_count() const { return unanswered_; }

  /// Wires a fault injector that may drop DISCOVER broadcasts on the wire
  /// (the server never sees them: no syslog line, no OFFER). nullptr
  /// detaches.
  void set_fault_injector(FaultInjector* faults) { faults_ = faults; }

 private:
  Simulator& sim_;
  SyslogBus& syslog_;
  std::string host_name_;
  Ipv4 server_ip_;
  std::map<Mac, DhcpLease> bindings_;
  FaultInjector* faults_ = nullptr;
  std::size_t discovers_ = 0;
  std::size_t unanswered_ = 0;
};

}  // namespace rocks::netsim
