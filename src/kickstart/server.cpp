#include "kickstart/server.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::kickstart {

void ensure_cluster_schema(sqldb::Database& db) {
  if (db.has_table("nodes")) return;
  db.execute(
      "CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, mac TEXT, name TEXT, "
      "membership INT, rack INT, rank INT, ip TEXT, arch TEXT, comment TEXT)");
  db.execute(
      "CREATE TABLE memberships (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, "
      "appliance INT, compute TEXT)");
  db.execute(
      "CREATE TABLE appliances (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, "
      "graph_root TEXT)");
  db.execute("CREATE TABLE site (name TEXT, value TEXT)");

  // The CGI hot path resolves nodes by ip (kickstart requests), by mac
  // (dhcpd/insert-ethers), and joins nodes.membership = memberships.id;
  // primary-key columns are indexed automatically at CREATE TABLE.
  db.execute("CREATE INDEX nodes_ip ON nodes (ip)");
  db.execute("CREATE INDEX nodes_mac ON nodes (mac)");
  db.execute("CREATE INDEX nodes_membership ON nodes (membership)");

  // Appliances: which graph root a membership kickstarts from. Switches and
  // power units are real appliances without an OS (empty graph_root).
  db.execute(
      "INSERT INTO appliances (name, graph_root) VALUES "
      "('frontend', 'frontend'), ('compute', 'compute'), ('nfs', 'nfs'), "
      "('network', ''), ('power', ''), ('web', 'web')");
  // The paper's Table III, verbatim.
  db.execute(
      "INSERT INTO memberships (name, appliance, compute) VALUES "
      "('Frontend', 1, 'no'), ('Compute', 2, 'yes'), ('External', 1, 'no'), "
      "('Ethernet Switches', 4, 'no'), ('Myrinet Switches', 4, 'no'), "
      "('Power Units', 5, 'no')");
  // Memberships 7/8 appear in the paper's Table II (NFS and web servers).
  db.execute(
      "INSERT INTO memberships (id, name, appliance, compute) VALUES "
      "(7, 'NFS Servers', 3, 'no'), (8, 'Web Servers', 6, 'no')");
}

void insert_node_row(sqldb::Database& db, std::string_view mac, std::string_view name,
                     int membership, int rack, int rank, std::string_view ip,
                     std::string_view arch, std::string_view comment) {
  db.execute(
      "INSERT INTO nodes (mac, name, membership, rack, rank, ip, arch, comment) "
      "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
      {mac, name, membership, rack, rank, ip, arch, comment});
}

KickstartServer::KickstartServer(sqldb::Database& db, const NodeFileSet& files,
                                 const Graph& graph, Ipv4 frontend_ip,
                                 std::string distribution_url, const rpm::Repository* distro)
    : db_(db),
      node_by_ip_(db.prepare("SELECT name, membership, arch FROM nodes WHERE ip = ?")),
      appliance_of_(db.prepare(
          "SELECT appliances.graph_root FROM appliances, memberships WHERE "
          "memberships.appliance = appliances.id AND memberships.id = ?")),
      generator_(files, graph, distro, &db.journal()),
      frontend_ip_(frontend_ip),
      distribution_url_(std::move(distribution_url)) {}

NodeConfig KickstartServer::resolve(Ipv4 requester) const {
  // One pinned read view for both lookups: the node row and its membership
  // resolve against the same committed state, so a concurrent re-membership
  // (or insert-ethers burst) can never make the two queries disagree.
  sqldb::ReadView view = db_.read_view();
  const auto node = view.execute(*node_by_ip_, {requester.to_string()});
  if (node.row_count() != 1)
    throw LookupError(
        strings::cat("kickstart request from unknown address ", requester.to_string()));

  // SELECT order is name, membership, arch.
  const sqldb::Value& name = node.at(0, 0);
  const sqldb::Value& membership = node.at(0, 1);
  const sqldb::Value& arch = node.at(0, 2);
  const auto appliance = view.execute(*appliance_of_, {membership});
  if (appliance.row_count() != 1)
    throw LookupError(
        strings::cat("node ", name.to_string(), " has membership with no appliance"));
  const std::string graph_root = appliance.rows[0][0].to_string();
  if (graph_root.empty())
    throw LookupError(strings::cat("appliance for ", name.to_string(),
                                   " is not kickstartable (no graph root)"));

  NodeConfig config;
  config.hostname = name.to_string();
  config.appliance = graph_root;
  config.arch = arch.is_null() ? "i386" : arch.to_string();
  config.ip = requester;
  config.frontend_ip = frontend_ip_;
  config.distribution_url = distribution_url_;
  return config;
}

std::string KickstartServer::handle_request(Ipv4 requester) {
  return handle_request_file(requester).render();
}

KickstartFile KickstartServer::handle_request_file(Ipv4 requester) {
  if (available_ && !available_()) {
    refused_.fetch_add(1, std::memory_order_relaxed);
    throw UnavailableError(
        strings::cat("kickstart: CGI unavailable for ", requester.to_string(),
                     " (frontend httpd down)"));
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  return generator_.generate(resolve(requester));
}

KickstartServer::BatchReport KickstartServer::handle_many(
    support::ThreadPool& pool, const std::vector<Ipv4>& requesters) {
  BatchReport report;
  report.results.resize(requesters.size());
  report.errors.resize(requesters.size());
  std::atomic<std::size_t> served{0};
  // Each index writes only its own slots, so the fan-out needs no locking
  // of its own; the Database/Generator locks below carry the concurrency.
  pool.parallel_for(requesters.size(), [&](std::size_t i) {
    try {
      report.results[i] = handle_request(requesters[i]);
      served.fetch_add(1, std::memory_order_relaxed);
    } catch (const Error& error) {
      report.errors[i] = error.what();
    }
  });
  report.served = served.load();
  report.failed = requesters.size() - report.served;
  return report;
}

}  // namespace rocks::kickstart
