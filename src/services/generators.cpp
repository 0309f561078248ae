#include "services/generators.hpp"

#include <memory>

#include "support/strings.hpp"

namespace rocks::services {

using strings::cat;

namespace {

// Per-line renderers shared by the full generators and the incremental
// specs, so the two renderings cannot drift apart (byte-identity is a
// tested invariant, DESIGN.md §10).

std::string hosts_line(const std::string& ip, const std::string& host) {
  return cat(ip, "\t", host, ".local ", host, "\n");
}

/// One dhcpd.conf host stanza ("" when the node has no MAC binding).
std::string dhcpd_stanza(const std::string& host, const std::string& mac,
                         const std::string& ip) {
  if (mac.empty() || mac == "NULL") return {};
  return cat("host ", host, " {\n",
             "    hardware ethernet ", mac, ";\n",
             "    fixed-address ", ip, ";\n",
             "    option host-name \"", host, "\";\n",
             "}\n");
}

std::string pbs_line(const std::string& host, int np) {
  return cat(host, " np=", np, "\n");
}

constexpr const char* kHostsHeader =
    "# /etc/hosts -- generated by rocks; do not edit, regenerate from the database\n"
    "127.0.0.1\tlocalhost.localdomain localhost\n";

std::string dhcpd_header(Ipv4 frontend_ip) {
  return cat(
      "# /etc/dhcpd.conf -- generated by rocks\n"
      "ddns-update-style none;\n"
      "subnet 10.0.0.0 netmask 255.0.0.0 {\n"
      "    option routers ", frontend_ip.to_string(), ";\n"
      "    next-server ", frontend_ip.to_string(), ";\n"
      "}\n");
}

constexpr const char* kPbsHeader = "# PBS nodes file -- generated by rocks\n";

}  // namespace

std::string generate_hosts(sqldb::Database& db) {
  std::string out = kHostsHeader;
  const auto rows =
      db.execute("SELECT ip, name FROM nodes ORDER BY id");
  // Resolve column positions once; the loop uses positional at().
  const std::size_t ip = rows.column_index("ip");
  const std::size_t name = rows.column_index("name");
  for (std::size_t i = 0; i < rows.row_count(); ++i)
    out += hosts_line(rows.at(i, ip).to_string(), rows.at(i, name).to_string());
  return out;
}

std::string generate_dhcpd_conf(sqldb::Database& db, Ipv4 frontend_ip) {
  std::string out = dhcpd_header(frontend_ip);
  const auto rows = db.execute("SELECT name, mac, ip FROM nodes ORDER BY id");
  const std::size_t name = rows.column_index("name");
  const std::size_t mac_col = rows.column_index("mac");
  const std::size_t ip = rows.column_index("ip");
  for (std::size_t i = 0; i < rows.row_count(); ++i)
    out += dhcpd_stanza(rows.at(i, name).to_string(), rows.at(i, mac_col).to_string(),
                        rows.at(i, ip).to_string());
  return out;
}

std::string generate_pbs_nodes(sqldb::Database& db, int np) {
  // The same memberships join the paper feeds to cluster-kill (Section 6.4).
  std::string out = kPbsHeader;
  const auto rows = db.execute(
      "SELECT nodes.name FROM nodes, memberships WHERE "
      "nodes.membership = memberships.id AND memberships.compute = 'yes' "
      "ORDER BY nodes.rack, nodes.rank");
  const std::size_t name = rows.column_index("nodes.name");
  for (std::size_t i = 0; i < rows.row_count(); ++i)
    out += pbs_line(rows.at(i, name).to_string(), np);
  return out;
}

void ensure_users_table(sqldb::Database& db) {
  if (db.has_table("users")) return;
  // A read-only replica must not create the table itself — it arrives over
  // replication. Until then the user-derived maps render empty instead of
  // tripping the write fence (DESIGN.md §12.3).
  if (db.read_only()) return;
  db.execute("CREATE TABLE users (name TEXT, uid INT, home TEXT, shell TEXT)");
  db.execute("INSERT INTO users VALUES ('root', 0, '/root', '/bin/bash')");
}

std::string generate_nis_passwd(sqldb::Database& db) {
  ensure_users_table(db);
  if (!db.has_table("users")) return {};  // read-only replica, users not yet shipped
  std::string out;
  const auto rows = db.execute("SELECT name, uid, home, shell FROM users ORDER BY uid");
  const std::size_t name = rows.column_index("name");
  const std::size_t uid = rows.column_index("uid");
  const std::size_t home = rows.column_index("home");
  const std::size_t shell = rows.column_index("shell");
  for (std::size_t i = 0; i < rows.row_count(); ++i) {
    const std::string uid_text = rows.at(i, uid).to_string();
    out += cat(rows.at(i, name).to_string(), ":x:", uid_text, ":", uid_text, "::",
               rows.at(i, home).to_string(), ":", rows.at(i, shell).to_string(), "\n");
  }
  return out;
}

IncrementalReport::Spec hosts_report_spec() {
  IncrementalReport::Spec spec;
  spec.header = kHostsHeader;
  spec.table = "nodes";
  spec.select_all = "SELECT id, ip, name FROM nodes ORDER BY id";
  spec.select_one = "SELECT id, ip, name FROM nodes WHERE id = ?";
  // ORDER BY id: the PK is the whole sort key.
  spec.key_of = [](const sqldb::ResultSet& rows, std::size_t i) {
    return sqldb::Row{rows.at(i, 0)};
  };
  spec.render_row = [](const sqldb::ResultSet& rows, std::size_t i) {
    return hosts_line(rows.at(i, 1).to_string(), rows.at(i, 2).to_string());
  };
  return spec;
}

IncrementalReport::Spec dhcpd_report_spec(Ipv4 frontend_ip) {
  IncrementalReport::Spec spec;
  spec.header = dhcpd_header(frontend_ip);
  spec.table = "nodes";
  spec.select_all = "SELECT id, name, mac, ip FROM nodes ORDER BY id";
  spec.select_one = "SELECT id, name, mac, ip FROM nodes WHERE id = ?";
  spec.key_of = [](const sqldb::ResultSet& rows, std::size_t i) {
    return sqldb::Row{rows.at(i, 0)};
  };
  spec.render_row = [](const sqldb::ResultSet& rows, std::size_t i) {
    return dhcpd_stanza(rows.at(i, 1).to_string(), rows.at(i, 2).to_string(),
                        rows.at(i, 3).to_string());
  };
  return spec;
}

IncrementalReport::Spec pbs_nodes_report_spec(int np) {
  IncrementalReport::Spec spec;
  spec.header = kPbsHeader;
  spec.table = "nodes";
  // The compute flag gates inclusion through the join, and membership rows
  // don't map 1:1 onto lines — any memberships change forces a rebuild.
  spec.rescan_tables = {"memberships"};
  spec.select_all =
      "SELECT nodes.rack, nodes.rank, nodes.id, nodes.name FROM nodes, memberships "
      "WHERE nodes.membership = memberships.id AND memberships.compute = 'yes' "
      "ORDER BY nodes.rack, nodes.rank";
  spec.select_one =
      "SELECT nodes.rack, nodes.rank, nodes.id, nodes.name FROM nodes, memberships "
      "WHERE nodes.membership = memberships.id AND memberships.compute = 'yes' "
      "AND nodes.id = ?";
  // ORDER BY rack, rank is a stable sort over id-ordered input, so (rack,
  // rank, id) reproduces the full query's emission order exactly.
  spec.key_of = [](const sqldb::ResultSet& rows, std::size_t i) {
    return sqldb::Row{rows.at(i, 0), rows.at(i, 1), rows.at(i, 2)};
  };
  spec.render_row = [np](const sqldb::ResultSet& rows, std::size_t i) {
    return pbs_line(rows.at(i, 3).to_string(), np);
  };
  return spec;
}

void register_standard_services(ServiceManager& manager, Ipv4 frontend_ip) {
  // The generated-configuration services (Section 6.4), each declaring the
  // tables it is derived from. The node reports render incrementally: the
  // IncrementalReport consumes nodes-table journal deltas and re-renders
  // only the lines that changed, byte-identical to the full generators.
  const auto dhcpd_report =
      std::make_shared<IncrementalReport>(dhcpd_report_spec(frontend_ip));
  manager.register_service(
      "dhcpd", "/etc/dhcpd.conf",
      [dhcpd_report](sqldb::Database& db) { return dhcpd_report->render(db); }, {"nodes"});
  const auto hosts_report = std::make_shared<IncrementalReport>(hosts_report_spec());
  manager.register_service(
      "hosts", "/etc/hosts",
      [hosts_report](sqldb::Database& db) { return hosts_report->render(db); }, {"nodes"});
  const auto pbs_report = std::make_shared<IncrementalReport>(pbs_nodes_report_spec());
  manager.register_service(
      "pbs", "/var/spool/pbs/server_priv/nodes",
      [pbs_report](sqldb::Database& db) { return pbs_report->render(db); },
      {"nodes", "memberships"});
  manager.register_service("nis", "/var/yp/passwd", generate_nis_passwd, {"users"});
  manager.register_service("nfs", "/etc/exports", generate_nfs_exports, {"users"});
}

std::string generate_nfs_exports(sqldb::Database& db) {
  ensure_users_table(db);
  std::string out = "# /etc/exports -- generated by rocks\n";
  out += "/export/home 10.0.0.0/255.0.0.0(rw,no_root_squash)\n";
  if (!db.has_table("users")) return out;  // read-only replica, users not yet shipped
  const auto rows =
      db.execute("SELECT home FROM users WHERE uid > 0 ORDER BY uid");
  const std::size_t home = rows.column_index("home");
  for (std::size_t i = 0; i < rows.row_count(); ++i)
    out += cat("# home: ", rows.at(i, home).to_string(), "\n");
  return out;
}

}  // namespace rocks::services
