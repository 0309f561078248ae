#include "cluster/insert_ethers.hpp"

#include "support/crashpoint.hpp"
#include "support/strings.hpp"

namespace rocks::cluster {

using strings::cat;

namespace {

constexpr std::string_view kSelectAllocation = "SELECT membership, rack, rank, ip FROM nodes";

}  // namespace

InsertEthers::InsertEthers(Frontend& frontend, netsim::SyslogBus& syslog,
                           InsertEthersOptions options)
    : frontend_(frontend),
      syslog_(syslog),
      options_(std::move(options)),
      name_by_mac_(frontend.db().prepare("SELECT name FROM nodes WHERE mac = ?")),
      select_allocation_(frontend.db().prepare(kSelectAllocation)),
      allocation_by_id_(frontend.db().prepare(cat(kSelectAllocation, " WHERE id = ?"))) {}

InsertEthers::~InsertEthers() { stop(); }

void InsertEthers::start() {
  if (active_) return;
  active_ = true;
  subscription_ =
      syslog_.subscribe([this](const netsim::SyslogMessage& m) { on_syslog(m); });
}

void InsertEthers::stop() {
  if (!active_) return;
  syslog_.unsubscribe(subscription_);
  active_ = false;
}

void InsertEthers::set_membership(int membership, std::string basename) {
  options_.membership = membership;
  options_.basename = std::move(basename);
}

void InsertEthers::sync_allocator() {
  nodes_cursor_.catch_up(
      frontend_.db(), [this](sqldb::Database& db) { seed_allocator(db); },
      [this](sqldb::ReadView& view, const sqldb::ChangeRecord& record) {
        // Inserts only add taken IPs and raise ranks; anything else may free
        // them, so it reseeds.
        if (record.op != sqldb::ChangeOp::kInsert) return false;
        const auto rows = view.execute(*allocation_by_id_, {record.pk});
        for (const sqldb::Row& row : rows.rows) take(row);
        return true;
      });
}

void InsertEthers::seed_allocator(sqldb::Database& db) {
  taken_ips_.clear();
  top_rank_.clear();
  ip_cursor_ = options_.ip_ceiling;
  for (const sqldb::Row& row : db.execute(*select_allocation_).rows) take(row);
}

void InsertEthers::take(const sqldb::Row& row) {
  // Only canonical text matches the dotted quad an allocation would write.
  // Addresses above the cursor are known taken already.
  const std::string ip_text = row[3].to_string();
  if (const auto ip = Ipv4::parse(ip_text);
      ip && ip->to_string() == ip_text && *ip <= ip_cursor_)
    taken_ips_.insert(ip->value());
  // The rank ORDER BY rank DESC LIMIT 1 would return: the greatest under
  // Value::compare (text above numbers above NULL). Equal values share
  // as_int(), so which of them wins does not matter.
  const auto [it, fresh] = top_rank_.try_emplace(sqldb::Row{row[0], row[1]}, row[2]);
  if (!fresh && row[2].compare(it->second) > 0) it->second = row[2];
}

Ipv4 InsertEthers::next_free_ip() {
  while (taken_ips_.erase(ip_cursor_.value()) != 0) ip_cursor_ = ip_cursor_.prev();
  return ip_cursor_;
}

int InsertEthers::next_rank() const {
  // WHERE membership = M AND rack = R: the key compares as SQL '=' does, so
  // a REAL 2.0 rack joins rack 2 and NULL or text keys never match.
  const auto it =
      top_rank_.find(sqldb::Row{sqldb::Value(options_.membership), sqldb::Value(options_.rack)});
  if (it == top_rank_.end()) return 0;
  return static_cast<int>(it->second.as_int()) + 1;
}

bool InsertEthers::insert_node(const Mac& mac) {
  // Already known? (Several retries can race one insertion.)
  const auto existing = frontend_.db().execute(*name_by_mac_, {mac.to_string()});
  if (existing.row_count() != 0) return false;

  sync_allocator();
  const int rank = next_rank();
  const std::string name = cat(options_.basename, "-", options_.rack, "-", rank);
  const Ipv4 ip = next_free_ip();
  kickstart::insert_node_row(frontend_.db(), mac.to_string(), name, options_.membership,
                             options_.rack, rank, ip.to_string(), options_.arch,
                             "Compute node");
  ++inserted_;
  log_.push_back(cat("inserted ", name, " (", mac.to_string(), " -> ", ip.to_string(), ")"));
  if (bus_ != nullptr)
    bus_->publish(events::Event{events::EventType::kMembership, name, mac.to_string(),
                                static_cast<double>(inserted_), 0.0, 0});
  return true;
}

void InsertEthers::flush() { frontend_.flush_services(); }

int InsertEthers::register_batch(const std::vector<Mac>& macs) {
  // The commits mark services dirty through the bus as they land; one
  // flush at the end coalesces the whole burst — each service restarts at
  // most once no matter how many nodes were registered. Each node is one
  // INSERT statement, so a crash anywhere in the loop leaves a prefix of
  // fully-registered nodes (never a half-registered one); the final flush
  // is the durability barrier — only after it may the batch be
  // acknowledged to the operator.
  int fresh = 0;
  for (const Mac& mac : macs) {
    support::crash_point("insert_ethers.batch");
    if (insert_node(mac)) ++fresh;
  }
  flush();
  return fresh;
}

void InsertEthers::on_syslog(const netsim::SyslogMessage& message) {
  // The discovery signature: dhcpd logging a request it could not answer.
  if (message.facility != "dhcpd") return;
  if (!strings::contains(message.text, "DHCPDISCOVER")) return;
  if (!strings::contains(message.text, "no free leases")) return;

  // "DHCPDISCOVER from <mac> via eth0: ..."
  const auto words = strings::split_ws(message.text);
  std::string mac_text;
  for (std::size_t i = 0; i + 1 < words.size(); ++i) {
    if (words[i] == "from") {
      mac_text = words[i + 1];
      break;
    }
  }
  const auto mac = Mac::parse(mac_text);
  if (!mac) return;
  if (!insert_node(*mac)) return;

  // Flush the bus (dirty services + DHCP bindings) so the node's DHCP
  // retry succeeds; batch integrations defer this to one flush() call.
  if (options_.auto_flush) flush();
}

}  // namespace rocks::cluster
