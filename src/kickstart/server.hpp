// The kickstart CGI service.
//
// "At installation time, a machine requests its kickstart file via HTTP
// from a CGI script on the frontend server. This script uses the requesting
// node's IP address to drive a series of SQL queries that determine the
// appliance type, software distribution, and localization of the node"
// (paper Section 6.1). KickstartServer is that script: sqldb in, kickstart
// text out.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "kickstart/generator.hpp"
#include "sqldb/engine.hpp"
#include "support/threadpool.hpp"

namespace rocks::kickstart {

/// Creates the cluster's configuration tables when absent:
///   nodes(id, mac, name, membership, rack, rank, ip, arch, comment)
///   memberships(id, name, appliance, compute)
///   appliances(id, name, graph_root)
///   site(name, value)                        -- site-wide key/value config
/// and seeds memberships/appliances with the paper's Table III rows.
void ensure_cluster_schema(sqldb::Database& db);

/// Convenience: inserts one row into nodes (mac/name/membership/rack/rank/
/// ip/arch/comment), returning nothing; reads happen through SQL. Every
/// field is a bound value, so text reads back verbatim whatever it holds.
void insert_node_row(sqldb::Database& db, std::string_view mac, std::string_view name,
                     int membership, int rack, int rank, std::string_view ip,
                     std::string_view arch = "i386", std::string_view comment = "");

class KickstartServer {
 public:
  /// `distribution_url` is the HTTP base installing nodes pull RPMs from.
  KickstartServer(sqldb::Database& db, const NodeFileSet& files, const Graph& graph,
                  Ipv4 frontend_ip, std::string distribution_url,
                  const rpm::Repository* distro = nullptr);

  /// Resolves the requesting IP to a NodeConfig via SQL. Throws LookupError
  /// when the IP is not in the nodes table or its membership has no
  /// kickstartable appliance.
  [[nodiscard]] NodeConfig resolve(Ipv4 requester) const;

  /// The CGI entry point: IP in, kickstart text out. Throws
  /// UnavailableError while the availability probe reports the service down
  /// (the installer's HTTP fetch sees a refused connection and must retry).
  /// Safe to call concurrently (the Database locks reads shared, the
  /// profile cache is striped — DESIGN.md §9).
  [[nodiscard]] std::string handle_request(Ipv4 requester);
  [[nodiscard]] KickstartFile handle_request_file(Ipv4 requester);

  /// One batch of a mass reinstall (Section 6.3): every node in
  /// `requesters` asking at once. Slot i holds the kickstart text for
  /// requesters[i], or empty with errors[i] set when that request failed —
  /// one bad node never aborts the batch.
  struct BatchReport {
    std::vector<std::string> results;  // per-request kickstart text
    std::vector<std::string> errors;   // per-request error, "" when served
    std::size_t served = 0;
    std::size_t failed = 0;
  };

  /// Fans the batch across `pool`. Requests run genuinely concurrently
  /// (lock-free MVCC reads, striped profile cache).
  [[nodiscard]] BatchReport handle_many(support::ThreadPool& pool,
                                        const std::vector<Ipv4>& requesters);

  /// Models frontend httpd/CGI outages: while `probe` returns false every
  /// request is refused. An empty probe means always available.
  void set_availability_probe(std::function<bool()> probe) { available_ = std::move(probe); }

  // Profile invalidation flows through the change bus: the generator is
  // subscribed to the kickstart channels of db.journal(), so graph,
  // node-file, and distribution publishers invalidate it without a wrapper
  // here (DESIGN.md §10).
  [[nodiscard]] const Generator& generator() const { return generator_; }

  [[nodiscard]] std::uint64_t requests_served() const {
    return requests_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t requests_refused() const {
    return refused_.load(std::memory_order_relaxed);
  }

 private:
  sqldb::Database& db_;
  // The two resolve queries, prepared once: a request binds its IP and the
  // node's membership and parses nothing.
  sqldb::Database::PreparedStatement node_by_ip_;
  sqldb::Database::PreparedStatement appliance_of_;
  Generator generator_;
  Ipv4 frontend_ip_;
  std::string distribution_url_;
  std::function<bool()> available_;
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> refused_{0};
};

}  // namespace rocks::kickstart
