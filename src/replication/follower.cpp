#include "replication/follower.hpp"

#include <utility>

#include "services/generators.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::replication {

using strings::cat;

Follower::Follower(netsim::Simulator& sim, const rpm::SynthDistro* distro,
                   FollowerConfig config)
    : sim_(sim), config_(std::move(config)) {
  // The replica's own durable store: recovery first (a restarted follower
  // resumes from whatever it had replayed), then the write fence — every
  // local DML is redirected to the leader, only replication writes.
  recovery_ = db_.open_durable(disk_, config_.state_dir);
  db_.set_read_only(true, cat("this frontend is a read-only replica (", config_.name,
                              "); writes go to the leader"));

  // The same generated-configuration services the leader registers, so both
  // render byte-identical /etc content from the same database state.
  services::register_standard_services(services_, config_.ip);
  services_.attach(db_.journal());

  if (distro != nullptr) {
    configuration_ = kickstart::make_default_configuration(*distro);
    configuration_->graph.set_bus(&db_.journal(),
                                  std::string(kickstart::Generator::kGraphChannel));
    configuration_->files.set_bus(&db_.journal(),
                                  std::string(kickstart::Generator::kNodeFilesChannel));
    rocksdist_ = std::make_unique<rocksdist::RocksDist>(
        disk_, rocksdist::DistConfig{"/home/install", config_.dist_version, "i386",
                                     32 * 1024});
    rocksdist_->mirror(distro->repo, cat("redhat/", config_.dist_version));
    rocksdist_->dist(configuration_->files, configuration_->graph);
    images_ = std::make_unique<rpm::InstallImageCache>(rocksdist_->distribution());
    http_ = std::make_unique<netsim::HttpServerGroup>(sim_, config_.http_capacity,
                                                      config_.http_servers);
    kickstart_ = std::make_unique<kickstart::KickstartServer>(
        db_, configuration_->files, configuration_->graph, config_.ip,
        cat("http://", config_.ip.to_string(), "/install/rocks-dist"),
        &rocksdist_->distribution());
    if (config_.syslog != nullptr)
      dhcp_ = std::make_unique<netsim::DhcpServer>(sim_, *config_.syslog, config_.name,
                                                   config_.ip);
  }
  flush_services();
}

Ack Follower::handle_shipment(std::string_view wire) {
  Shipment shipment;
  try {
    shipment = decode_shipment(wire);
  } catch (const Error& error) {
    return Ack{epoch_, last_lsn(), false, cat("corrupt shipment envelope: ", error.what())};
  }
  return apply_shipment(shipment);
}

Ack Follower::apply_shipment(const Shipment& shipment) {
  // Epoch fence (DESIGN.md §12.1): a stale leader's traffic is refused
  // before any byte touches state; a newer epoch is adopted.
  if (shipment.epoch < epoch_) {
    ++fenced_;
    return Ack{epoch_, last_lsn(), false,
               cat("fenced: shipment epoch ", shipment.epoch, " below follower epoch ",
                   epoch_)};
  }
  epoch_ = shipment.epoch;

  for (const std::string_view group : shipment.groups) {
    try {
      db_.replicate_apply(group);
    } catch (const Error& error) {
      // A corrupt group, or typically the LSN-gap StateError: the leader
      // must catch us up from its WAL cursor or re-bootstrap. Nothing from
      // this group applied.
      return Ack{epoch_, last_lsn(), false, error.what()};
    }
  }
  try {
    // Durability before acknowledgement: an acked LSN must survive this
    // follower crashing — promotion correctness depends on it (§12.5).
    db_.wal_flush();
  } catch (const Error& error) {
    return Ack{epoch_, last_lsn(), false, error.what()};
  }
  ++shipments_applied_;
  flush_services();
  return Ack{epoch_, last_lsn(), true, ""};
}

Ack Follower::apply_bootstrap(std::string_view image, std::uint64_t shipment_epoch) {
  if (shipment_epoch < epoch_) {
    ++fenced_;
    return Ack{epoch_, last_lsn(), false,
               cat("fenced: bootstrap epoch ", shipment_epoch, " below follower epoch ",
                   epoch_)};
  }
  epoch_ = shipment_epoch;
  try {
    db_.install_replica_snapshot(image);
  } catch (const Error& error) {
    return Ack{epoch_, last_lsn(), false, error.what()};
  }
  ++bootstraps_;
  services_.mark_all_dirty();
  dhcp_bindings_.invalidate();
  flush_services();
  return Ack{epoch_, last_lsn(), true, ""};
}

void Follower::promote(std::uint64_t new_epoch) {
  require_state(new_epoch > epoch_,
                cat("promotion epoch ", new_epoch, " must exceed every epoch seen (",
                    epoch_, ")"));
  epoch_ = new_epoch;
  db_.set_read_only(false);
  // A promoted frontend must answer with current derived state: regenerate
  // everything before the first request lands.
  services_.mark_all_dirty();
  dhcp_bindings_.invalidate();
  flush_services();
}

cluster::NodeEnvironment Follower::environment() {
  require_state(serving(),
                cat(config_.name, " is a storage-only replica; it cannot serve installs"));
  cluster::NodeEnvironment env;
  env.sim = &sim_;
  env.syslog = config_.syslog;
  env.dhcp = dhcp_.get();
  env.kickstart = kickstart_.get();
  env.http = http_.get();
  env.images = images_.get();
  return env;
}

void Follower::flush_services() {
  services_.regenerate(db_, disk_);
  if (dhcp_ != nullptr) dhcp_bindings_.push(db_, *dhcp_, config_.ip);
}

}  // namespace rocks::replication
