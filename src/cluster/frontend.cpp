#include "cluster/frontend.hpp"

#include "cluster/node.hpp"
#include "services/generators.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::cluster {

using strings::cat;

namespace {

// The rebuild's scan and the per-pk re-fetch read the columns hold() reads.
constexpr std::string_view kSelectBindings = "SELECT id, mac, name, ip FROM nodes";

}  // namespace

void DhcpBindingPush::push(sqldb::Database& db, netsim::DhcpServer& dhcp, Ipv4 server_ip) {
  if (!db.has_table("nodes")) return;
  if (!select_all_) {
    select_all_ = db.prepare(kSelectBindings);
    select_one_ = db.prepare(cat(kSelectBindings, " WHERE id = ?"));
  }
  cursor_.catch_up(
      db,
      [&](sqldb::Database& db) {
        mac_of_.clear();
        holders_.clear();
        std::map<Mac, netsim::DhcpLease> bindings;
        const auto rows = db.execute(*select_all_);
        for (std::size_t i = 0; i < rows.row_count(); ++i)
          if (const auto bound = hold(rows, i, server_ip))
            bindings.insert_or_assign((*bound)->first.first, (*bound)->second);
        dhcp.configure(std::move(bindings));
      },
      [&](sqldb::ReadView& view, const sqldb::ChangeRecord& record) {
        // Whatever the record did — insert, update, delete, a key or MAC
        // change — the pk's old binding goes and its current row binds anew.
        release(dhcp, record.pk);
        if (record.op == sqldb::ChangeOp::kDelete) return true;
        const auto rows = view.execute(*select_one_, {record.pk});
        for (std::size_t i = 0; i < rows.row_count(); ++i)
          if (const auto bound = hold(rows, i, server_ip))
            dhcp.add_binding((*bound)->first.first, (*bound)->second);
        return true;
      });
}

std::optional<DhcpBindingPush::Holders::const_iterator> DhcpBindingPush::hold(
    const sqldb::ResultSet& rows, std::size_t i, Ipv4 server_ip) {
  const auto mac = Mac::parse(rows.rows[i][1].to_string());
  const auto ip = Ipv4::parse(rows.rows[i][3].to_string());
  if (!mac || !ip) return std::nullopt;
  const sqldb::Value& pk = rows.rows[i][0];
  const auto [it, held] = holders_.try_emplace(
      Holder{*mac, pk}, netsim::DhcpLease{*ip, rows.rows[i][2].to_string(), server_ip});
  if (!held) return std::nullopt;  // a duplicate id: the first row scanned keeps it
  mac_of_.insert_or_assign(pk, *mac);
  if (it != holders_.begin() && std::prev(it)->first.first == *mac) return std::nullopt;
  return it;
}

void DhcpBindingPush::release(netsim::DhcpServer& dhcp, const sqldb::Value& pk) {
  const auto owned = mac_of_.find(pk);
  if (owned == mac_of_.end()) return;
  const Mac mac = owned->second;
  mac_of_.erase(owned);
  auto it = holders_.find(Holder{mac, pk});
  const bool was_bound = it == holders_.begin() || std::prev(it)->first.first != mac;
  it = holders_.erase(it);
  if (!was_bound) return;
  if (it != holders_.end() && it->first.first == mac)
    dhcp.add_binding(mac, it->second);  // the next-lowest id takes the MAC
  else
    dhcp.remove_binding(mac);
}

Frontend::Frontend(netsim::Simulator& sim, netsim::SyslogBus& syslog,
                   const rpm::SynthDistro& distro, FrontendConfig config)
    : sim_(sim),
      syslog_(syslog),
      config_(std::move(config)),
      configuration_(kickstart::make_default_configuration(distro)),
      rocksdist_(fs_, rocksdist::DistConfig{"/home/install", config_.dist_version, "i386",
                                            32 * 1024}),
      http_(sim, config_.http_capacity, config_.http_servers),
      dhcp_(sim, syslog, config_.name, config_.ip) {
  http_.set_per_stream_cap(config_.http_per_stream_cap);
  // Durable store first (DESIGN.md §11): recovery must run against an empty
  // database, and everything the bootstrap below commits is then logged.
  if (config_.state_fs != nullptr) {
    recovery_ = db_.open_durable(*config_.state_fs, config_.state_dir);
    db_.set_wal_group_commit(config_.wal_group_commit);
  }
  // Database bootstrap: schema plus our own row (the first thing the CD
  // install does, Section 6.4). Both steps are idempotent so a recovered
  // boot passes straight through: the schema guard is has_table, and the
  // frontend row is keyed by our MAC.
  kickstart::ensure_cluster_schema(db_);
  if (db_.execute("SELECT id FROM nodes WHERE mac = ?", {config_.mac.to_string()})
          .row_count() == 0) {
    kickstart::insert_node_row(db_, config_.mac.to_string(), config_.name, /*membership=*/1,
                               /*rack=*/0, /*rank=*/0, config_.ip.to_string(), "i386",
                               "Gateway machine");
  }

  // Wire the kickstart inputs to the change bus: graph/node-file edits and
  // distribution rebuilds publish on their channels, and every subscriber
  // (the profile cache, dirty services) learns of them the same way table
  // changes propagate (DESIGN.md §10).
  configuration_.graph.set_bus(&db_.journal(),
                               std::string(kickstart::Generator::kGraphChannel));
  configuration_.files.set_bus(&db_.journal(),
                               std::string(kickstart::Generator::kNodeFilesChannel));

  // rocks-dist: mirror the stock release, build the distribution tree.
  rocksdist_.mirror(distro.repo, cat("redhat/", config_.dist_version));
  rocksdist_.dist(configuration_.files, configuration_.graph);

  kickstart_server_ = std::make_unique<kickstart::KickstartServer>(
      db_, configuration_.files, configuration_.graph, config_.ip,
      cat("http://", config_.ip.to_string(), "/install/rocks-dist"),
      &rocksdist_.distribution());

  // The generated-configuration services (Section 6.4); the same set a
  // replica frontend registers (DESIGN.md §12.3), so leader and follower
  // render byte-identical /etc content from the same database state.
  services::register_standard_services(services_, config_.ip);
  // From here on, commits mark services dirty and flush_services() renders
  // exactly the dirty ones.
  services_.attach(db_.journal());
  regenerate_services();
}

std::unique_ptr<Frontend> Frontend::recover(netsim::Simulator& sim, netsim::SyslogBus& syslog,
                                            const rpm::SynthDistro& distro,
                                            FrontendConfig config) {
  require_state(config.state_fs != nullptr,
                "Frontend::recover() needs a durable store (FrontendConfig::state_fs)");
  return std::make_unique<Frontend>(sim, syslog, distro, std::move(config));
}

services::ServiceManager::Report Frontend::flush_services() {
  // Durability barrier before anything becomes externally visible: a config
  // file or DHCP binding must never reflect state a crash could forget. A
  // flush failure (IoError with the undurable LSN range) propagates — the
  // caller's batch is NOT acknowledged.
  if (db_.durable()) db_.wal_flush();
  // Replication barrier (DESIGN.md §12.4): under quorum-ack commit this
  // ships the flushed groups and throws until a majority acknowledges.
  if (commit_barrier_) commit_barrier_();
  auto report = services_.regenerate(db_, fs_);
  dhcp_bindings_.push(db_, dhcp_, config_.ip);
  if (bus_ != nullptr) {
    for (const std::string& service : report.restarted)
      bus_->publish(events::Event{events::EventType::kServiceFlush, service, "restarted",
                                  static_cast<double>(services_.restarts(service)), 0.0, 0});
  }
  return report;
}

std::vector<std::string> Frontend::regenerate_services() {
  services_.mark_all_dirty();
  dhcp_bindings_.invalidate();  // force the binding push
  return flush_services().restarted;
}

void Frontend::add_user(std::string_view name, int uid, std::string_view shell) {
  // The name becomes a path component of the home directory.
  if (name.empty() || name.find('/') != std::string_view::npos ||
      name.find('\0') != std::string_view::npos)
    throw StateError(cat("add_user: '", name, "' is not a valid user name"));
  services::ensure_users_table(db_);
  const std::string home = cat("/export/home/", name);
  db_.execute("INSERT INTO users VALUES (?, ?, ?, ?)", {name, uid, home, shell});
  fs_.mkdir_p(home);
  // The INSERT marked nis/nfs dirty through the bus; flush renders just
  // those and pushes the fresh NIS map.
  flush_services();
}

std::string Frontend::nis_passwd_map() {
  services::ensure_users_table(db_);
  return fs_.is_file("/var/yp/passwd") ? fs_.read_file("/var/yp/passwd")
                                       : services::generate_nis_passwd(db_);
}

rocksdist::DistReport Frontend::rebuild_distribution() {
  auto report = rocksdist_.dist(configuration_.files, configuration_.graph);
  // The distribution contents changed. The kickstart profile cache and the
  // install images see the new Repository revision on their own; the bus
  // tells every other subscriber of this channel.
  db_.journal().touch(kickstart::Generator::kDistributionChannel);
  return report;
}

rocksdist::DistReport Frontend::apply_updates(const rpm::Repository& updates) {
  rocksdist_.mirror(updates, cat("updates/", config_.dist_version));
  return rebuild_distribution();
}

NodeEnvironment Frontend::environment() {
  NodeEnvironment env;
  env.sim = &sim_;
  env.syslog = &syslog_;
  env.dhcp = &dhcp_;
  env.kickstart = kickstart_server_.get();
  env.http = &http_;
  env.images = &images_;
  return env;
}

}  // namespace rocks::cluster
