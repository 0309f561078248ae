// Seeded operator churn around insert-ethers registrations, shared by the
// frontend and follower differential tests.
//
// Each step is either a registration or an operator's SQL edit of the nodes
// table: DELETEs; UPDATEs of ip, rank, rack, membership, mac and id; hand
// INSERTs that take the next IP or reuse a MAC; NULL and garbage cells; a
// DROP and re-CREATE of the table. The references are the full-scan SQL
// that insert-ethers' allocator and the DHCP binding push answer from
// journal deltas: a registration must land on exactly the rank and IP the
// reference queries give (or fail where they fail), and after a flush the
// DHCP bindings must equal a full push of the table.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "cluster/frontend.hpp"
#include "cluster/insert_ethers.hpp"
#include "netsim/dhcp.hpp"
#include "sqldb/engine.hpp"
#include "support/error.hpp"
#include "support/ip.hpp"
#include "support/strings.hpp"

namespace rocks::churn {

using strings::cat;

/// The next free IP as a full scan finds it: every ip cell as text, walked
/// down from the ceiling.
inline Ipv4 reference_next_ip(sqldb::Database& db, Ipv4 ceiling) {
  std::set<std::string> taken;
  for (const auto& ip : db.query_column("SELECT ip FROM nodes")) taken.insert(ip);
  Ipv4 candidate = ceiling;
  while (taken.contains(candidate.to_string())) candidate = candidate.prev();
  return candidate;
}

/// The next rank as ORDER BY rank DESC LIMIT 1 finds it; nullopt where that
/// row's rank has no integer value (NULL or text), so registration fails.
inline std::optional<int> reference_next_rank(sqldb::Database& db, int membership, int rack) {
  const auto rows = db.execute(cat("SELECT rank FROM nodes WHERE membership = ", membership,
                                   " AND rack = ", rack, " ORDER BY rank DESC LIMIT 1"));
  if (rows.row_count() == 0) return 0;
  if (rows.rows[0][0].type() != sqldb::Type::kInt && rows.rows[0][0].type() != sqldb::Type::kReal)
    return std::nullopt;
  return static_cast<int>(rows.rows[0][0].as_int()) + 1;
}

/// The bindings a full push of the table makes: every row in id order, the
/// first row of each MAC wins, unparsable rows bind nothing.
inline std::map<Mac, netsim::DhcpLease> reference_bindings(sqldb::Database& db, Ipv4 server) {
  std::map<Mac, netsim::DhcpLease> bindings;
  if (!db.has_table("nodes")) return bindings;
  for (const auto& row : db.execute("SELECT mac, name, ip FROM nodes ORDER BY id").rows) {
    const auto mac = Mac::parse(row[0].to_string());
    const auto ip = Ipv4::parse(row[2].to_string());
    if (!mac || !ip) continue;
    bindings.emplace(*mac, netsim::DhcpLease{*ip, row[1].to_string(), server});
  }
  return bindings;
}

/// Bindings as sorted text lines, so a failed comparison prints a readable diff.
inline std::vector<std::string> describe(const std::map<Mac, netsim::DhcpLease>& bindings) {
  std::vector<std::string> lines;
  for (const auto& [mac, lease] : bindings)
    lines.push_back(cat(mac.to_string(), " ", lease.ip.to_string(), " ", lease.hostname, " ",
                        lease.server.to_string()));
  return lines;
}

inline void create_nodes_table(sqldb::Database& db) {
  db.execute(
      "CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, mac TEXT, name TEXT, "
      "membership INT, rack INT, rank INT, ip TEXT, arch TEXT, comment TEXT)");
  db.execute("CREATE INDEX nodes_ip ON nodes (ip)");
  db.execute("CREATE INDEX nodes_mac ON nodes (mac)");
  db.execute("CREATE INDEX nodes_membership ON nodes (membership)");
}

class RegistrationChurn {
 public:
  RegistrationChurn(cluster::Frontend& frontend, cluster::InsertEthers& insert_ethers,
                    unsigned seed)
      : frontend_(frontend), insert_ethers_(insert_ethers), rng_(seed) {}

  /// Registrations the reference SQL refuses (the top rank is NULL or text).
  [[nodiscard]] int refused() const { return refused_; }

  /// One seeded step on the frontend's database. Returns what it did, for
  /// failure messages. Does not flush: the caller decides where the
  /// bindings are compared.
  std::string step() {
    const unsigned kind = pick(100);
    if (kind < 40 || ids().empty()) return register_one();
    if (kind < 48) return exec(cat("DELETE FROM nodes WHERE id = ", any_id()));
    if (kind < 50) return exec(cat("DELETE FROM nodes WHERE rack = ", pick(3)));
    if (kind < 58) return exec(cat("UPDATE nodes SET ip = ", ip_value(), " WHERE id = ", any_id()));
    if (kind < 65) return exec(cat("UPDATE nodes SET rank = ", rank_value(), " WHERE id = ", any_id()));
    if (kind < 70) return exec(cat("UPDATE nodes SET rack = ", rack_value(), " WHERE id = ", any_id()));
    if (kind < 73)
      return exec(cat("UPDATE nodes SET membership = ", membership_value(), " WHERE id = ",
                      any_id()));
    if (kind < 80) return exec(cat("UPDATE nodes SET mac = ", mac_value(), " WHERE id = ", any_id()));
    if (kind < 85) {
      // Only to an id AUTO_INCREMENT has passed: an UPDATE does not advance
      // it, so a higher id would later be handed out twice.
      const auto id = free_id(inserted_top_);
      if (!id) return register_one();
      return exec(cat("UPDATE nodes SET id = ", *id, " WHERE id = ", any_id()));
    }
    if (kind < 94) return hand_insert();
    if (kind < 98) return move_cart();
    return recreate_table();
  }

 private:
  unsigned pick(unsigned n) { return std::uniform_int_distribution<unsigned>(0, n - 1)(rng_); }

  sqldb::Database& db() { return frontend_.db(); }

  std::vector<std::int64_t> ids() {
    std::vector<std::int64_t> out;
    for (const auto& row : db().execute("SELECT id FROM nodes").rows) out.push_back(row[0].as_int());
    return out;
  }
  std::int64_t any_id() {
    const auto all = ids();
    return all[pick(static_cast<unsigned>(all.size()))];
  }
  /// An id in [1, top] no row holds, so ids stay unique, as the binding
  /// push and the reports assume; nullopt when there is none.
  std::optional<std::int64_t> free_id(std::int64_t top) {
    const auto all = ids();
    const std::set<std::int64_t> used(all.begin(), all.end());
    std::vector<std::int64_t> free;
    for (std::int64_t id = 1; id <= top; ++id)
      if (!used.contains(id)) free.push_back(id);
    if (free.empty()) return std::nullopt;
    return free[pick(static_cast<unsigned>(free.size()))];
  }
  std::string any_mac_text() {
    const auto macs = db().query_column("SELECT mac FROM nodes");
    return macs.empty() ? fresh_mac().to_string() : macs[pick(static_cast<unsigned>(macs.size()))];
  }
  Mac fresh_mac() { return Mac(0x00163E000000ULL + ++macs_made_); }

  /// Near the allocation cursor, so edits land where the allocator looks.
  std::string near_ip() {
    const Ipv4 next = reference_next_ip(db(), Ipv4{10, 255, 255, 254});
    return Ipv4(next.value() + 3 - pick(8)).to_string();
  }
  std::string ip_value() {
    switch (pick(6)) {
      case 0: return "NULL";
      case 1: return "'garbage'";
      case 2: return "7";  // an INT cell in the TEXT column: not an address
      case 3: {            // leading zero: parses, but is not the canonical text
        const std::string ip = near_ip();
        return cat("'0", ip, "'");
      }
      default: return cat("'", near_ip(), "'");
    }
  }
  std::string rank_value() {
    switch (pick(8)) {
      case 0: return "NULL";
      case 1: return "'x'";
      case 2: return "2.5";
      case 3: return "-3";
      default: return cat(pick(40));
    }
  }
  std::string rack_value() {
    switch (pick(5)) {
      case 0: return "NULL";
      case 1: return "1.0";  // REAL: still equal to rack 1
      case 2: return "'r'";
      default: return cat(pick(3));
    }
  }
  std::string membership_value() {
    switch (pick(4)) {
      case 0: return "NULL";
      case 1: return "2.0";
      case 2: return "7";
      default: return "2";
    }
  }
  std::string mac_value() {
    switch (pick(6)) {
      case 0: return "NULL";
      case 1: return "'garbage'";
      case 2: return cat("'", fresh_mac().to_string(), "'");
      case 3: {  // the same MAC in capitals: a different text that parses alike
        std::string mac = any_mac_text();
        for (char& c : mac) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
        return cat("'", mac, "'");  // MAC text holds no quote
      }
      default: return cat("'", any_mac_text(), "'");  // a duplicate MAC
    }
  }

  std::string exec(const std::string& sql) {
    db().execute(sql);
    return sql;
  }

  std::string hand_insert() {
    const std::string ip =
        pick(2) == 0
            ? cat("'", reference_next_ip(db(), Ipv4{10, 255, 255, 254}).to_string(), "'")
            : ip_value();
    const std::string mac = pick(2) == 0 ? mac_value() : cat("'", fresh_mac().to_string(), "'");
    const std::int64_t id = *free_id(inserted_top_ + 3);  // an INSERT does advance AUTO_INCREMENT
    inserted_top_ = std::max(inserted_top_, id);
    return exec(cat("INSERT INTO nodes (id, mac, name, membership, rack, rank, ip) VALUES (",
                    id, ", ", mac, ", 'hand-", ++hand_made_, "', ", membership_value(),
                    ", ", rack_value(), ", ", rank_value(), ", ", ip, ")"));
  }

  std::string move_cart() {
    rack_ = static_cast<int>(pick(3));
    insert_ethers_.set_rack(rack_);
    if (pick(3) == 0) {
      membership_ = membership_ == 2 ? 7 : 2;
      insert_ethers_.set_membership(membership_, membership_ == 2 ? "compute" : "nfs");
    }
    return cat("cart to membership ", membership_, " rack ", rack_);
  }

  std::string recreate_table() {
    db().execute("DROP TABLE nodes");
    create_nodes_table(db());
    inserted_top_ = 0;
    return "DROP and re-CREATE nodes";
  }

  /// Registers one fresh MAC and checks it landed where the full-scan SQL
  /// says, or failed where that SQL fails.
  std::string register_one() {
    const Mac mac = fresh_mac();
    const Ipv4 ip = reference_next_ip(db(), Ipv4{10, 255, 255, 254});
    const std::optional<int> rank = reference_next_rank(db(), membership_, rack_);
    const std::string what = cat("register ", mac.to_string(), " (membership ", membership_,
                                 " rack ", rack_, ")");
    if (!rank) {
      EXPECT_THROW(insert_ethers_.register_batch({mac}), Error) << what;
      ++refused_;
      return what;
    }
    EXPECT_EQ(insert_ethers_.register_batch({mac}), 1) << what;
    const auto row =
        db().execute(cat("SELECT rank, ip, id FROM nodes WHERE mac = '", mac.to_string(), "'"));
    EXPECT_EQ(row.row_count(), 1u) << what;
    if (row.row_count() == 1) {
      EXPECT_EQ(row.rows[0][0].as_int(), *rank) << what;
      EXPECT_EQ(row.rows[0][1].to_string(), ip.to_string()) << what;
      inserted_top_ = std::max(inserted_top_, row.rows[0][2].as_int());
    }
    return what;
  }

  cluster::Frontend& frontend_;
  cluster::InsertEthers& insert_ethers_;
  std::mt19937 rng_;
  int membership_ = 2;
  int rack_ = 0;
  std::int64_t inserted_top_ = 1;  // the highest id any INSERT has stored (the frontend's is 1)
  std::uint64_t macs_made_ = 0;
  int hand_made_ = 0;
  int refused_ = 0;
};

}  // namespace rocks::churn
