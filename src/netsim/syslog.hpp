// A cluster-wide syslog bus.
//
// insert-ethers works by "monitoring syslog messages for DHCP requests from
// new hosts" (paper Section 6.4); this bus is what it subscribes to. All
// simulated services publish here. The retained log and the listener list
// are one support::ChannelLog stream, so a listener may subscribe or
// unsubscribe reentrantly (insert-ethers installs a node, which emits more
// syslog traffic).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/channel_log.hpp"

namespace rocks::netsim {

struct SyslogMessage {
  double time = 0.0;
  std::string facility;  // "dhcpd", "kickstart", "ekv", ...
  std::string host;      // reporting host
  std::string text;
  std::uint64_t seq = 0;  // position on the bus, stamped by publish()
};

class SyslogBus {
 public:
  using Listener = std::function<void(const SyslogMessage&)>;

  /// Subscribes a listener; returns an id usable with unsubscribe.
  std::size_t subscribe(Listener listener) { return log_.subscribe_all(std::move(listener)); }
  void unsubscribe(std::size_t id) { log_.unsubscribe(id); }

  void publish(SyslogMessage message) { log_.publish({}, std::move(message)); }

  /// Messages retained for recent(); older ones are dropped. Listeners see
  /// every message live, so the retained tail is only for recent(), and a
  /// longer cap grows RSS with every message published.
  static constexpr std::size_t kLogCap = 1024;

  /// The newest min(limit, kLogCap) messages, oldest first.
  [[nodiscard]] std::vector<SyslogMessage> recent(std::size_t limit) const {
    return log_.recent({}, limit);
  }
  [[nodiscard]] std::size_t total_published() const { return log_.seq({}); }

 private:
  support::ChannelLog<SyslogMessage> log_{kLogCap};
};

}  // namespace rocks::netsim
