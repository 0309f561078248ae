#include "replication/control_plane.hpp"

#include <algorithm>
#include <limits>

#include "support/crashpoint.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::replication {

using strings::cat;

std::string_view commit_mode_name(CommitMode mode) {
  return mode == CommitMode::kQuorum ? "quorum-ack" : "async";
}

ControlPlane::ControlPlane(netsim::Simulator& sim, ControlPlaneConfig config)
    : sim_(sim), config_(config), rng_(config.seed) {}

void ControlPlane::publish(events::EventType type, std::string subject,
                           std::string detail, double value) {
  if (bus_ == nullptr) return;
  bus_->publish(events::Event{type, std::move(subject), std::move(detail), value, 0.0, 0});
}

ControlPlane::~ControlPlane() {
  stop_pump_timer();
  if (leader_db_ != nullptr) leader_db_->set_wal_sink(nullptr);
}

void ControlPlane::lead(sqldb::Database& db, std::string name) {
  require_state(leader_db_ == nullptr,
                cat("already led by ", leader_name_, "; kill_leader() first"));
  require_state(db.durable(), "the leader database needs a durable store to ship from");
  seed_log_from(db);
  if (epoch_ == 0) epoch_ = 1;
  leader_db_ = &db;
  leader_name_ = std::move(name);
  db.set_wal_sink([this](sqldb::WalGroup group) { on_commit(std::move(group)); });
}

Follower& ControlPlane::add_follower(FollowerConfig config, const rpm::SynthDistro* distro) {
  auto slot = std::make_unique<Slot>();
  slot->link = std::make_unique<netsim::ReplicationLink>(
      sim_, cat(leader_name_.empty() ? "leader" : leader_name_, "->", config.name));
  slot->follower = std::make_unique<Follower>(sim_, distro, std::move(config));
  slots_.push_back(std::move(slot));
  return *slots_.back()->follower;
}

std::vector<netsim::ReplicationLink*> ControlPlane::links() {
  std::vector<netsim::ReplicationLink*> out;
  out.reserve(slots_.size());
  for (const auto& slot : slots_) out.push_back(slot->link.get());
  return out;
}

void ControlPlane::on_commit(sqldb::WalGroup group) {
  // log_mutex_ is a leaf under the engine's exclusive lock: nothing else is
  // acquired while it is held, so the sink can run from any committing
  // thread while pump() copies the log out on another.
  std::lock_guard<std::mutex> lock(log_mutex_);
  log_.push_back(std::move(group));
  trim_log_locked();
}

void ControlPlane::seed_log_from(sqldb::Database& db) {
  // The whole committed stream: a group-commit tail still in the WAL
  // buffer would otherwise be missing from the log, and the next shipped
  // group would open an LSN gap at every follower.
  db.wal_flush();
  const std::vector<sqldb::WalGroup> groups = sqldb::wal_groups_after(db.wal_image(), 0);
  std::lock_guard<std::mutex> lock(log_mutex_);
  log_.assign(groups.begin(), groups.end());
  // Everything the durable WAL no longer covers (absorbed by a snapshot)
  // is below the floor; a follower acked below it must bootstrap.
  floor_ = log_.empty() ? db.last_lsn() : log_.front().first_lsn - 1;
  trim_log_locked();
}

void ControlPlane::trim_log_locked() {
  while (log_.size() > config_.max_log_groups) {
    // Overflow raises the floor: a follower acked below it re-bootstraps
    // from a snapshot image instead of replaying ancient history.
    floor_ = log_.front().last_lsn;
    log_.pop_front();
    ++log_evictions_;
  }
}

void ControlPlane::ship_to(Slot& slot, const std::vector<sqldb::WalGroup>& log,
                           std::uint64_t floor) {
  if (slot.force_bootstrap || slot.acked_lsn < floor) {
    const std::string image = leader_db_->snapshot_image();
    slot.link->deliver(image.size());
    const Ack ack = slot.follower->apply_bootstrap(image, epoch_);
    if (!ack.accepted) return;  // fenced: a newer epoch exists; stop shipping
    slot.force_bootstrap = false;
    slot.acked_lsn = ack.last_lsn;
    ++slot.bootstraps;
    ++bootstraps_;
    publish(events::EventType::kReplicationLag, slot.follower->name(), "bootstrap",
            static_cast<double>(slot.bootstraps));
  }
  Shipment shipment;
  shipment.epoch = epoch_;
  for (const sqldb::WalGroup& group : log)
    if (group.last_lsn > slot.acked_lsn) shipment.groups.push_back(group.bytes);
  if (shipment.groups.empty() && slot.connected) return;  // nothing new, nothing to probe
  const std::string wire = encode_shipment(shipment);
  slot.link->deliver(wire.size());
  const Ack ack = slot.follower->handle_shipment(wire);
  if (ack.accepted) {
    slot.acked_lsn = ack.last_lsn;
    shipped_groups_ += shipment.groups.size();
    shipped_bytes_ += wire.size();
    return;
  }
  if (ack.epoch > epoch_) return;  // fenced: we are the stale leader now
  // Refused without a fence: an LSN gap (the follower's history diverged
  // from the ship log, e.g. across a promotion). Snapshot bootstrap is the
  // repair for every such case.
  slot.force_bootstrap = true;
}

void ControlPlane::pump() {
  if (leader_db_ == nullptr) return;
  // Copy out only the log suffix some live follower still needs: in the
  // steady state every follower is acked near the tip, so a pump per commit
  // copies O(1) groups, not the whole retained log.
  std::uint64_t min_acked = std::numeric_limits<std::uint64_t>::max();
  bool anyone = false;
  for (const auto& slot : slots_) {
    if (slot->is_leader || slot->dead) continue;
    anyone = true;
    min_acked = std::min(min_acked, slot->acked_lsn);
  }
  if (!anyone) return;
  std::vector<sqldb::WalGroup> log;
  std::uint64_t floor = 0;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    floor = floor_;
    // A behind-floor follower re-bootstraps and resumes from the image's
    // LSN, so nothing below max(min_acked, floor) can ever ship again.
    const std::uint64_t needed = std::max(min_acked, floor);
    for (const sqldb::WalGroup& group : log_)
      if (group.last_lsn > needed) log.push_back(group);
  }
  for (const auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (slot.is_leader || slot.dead) continue;
    if (!slot.connected && sim_.now() < slot.retry_at) continue;
    support::crash_point("replication.ship");
    try {
      const bool was_disconnected = !slot.connected;
      ship_to(slot, log, floor);
      slot.connected = true;
      slot.attempts = 0;
      if (was_disconnected) {
        ++slot.reconnects;
        publish(events::EventType::kReplicationLag, slot.follower->name(), "reconnected",
                static_cast<double>(leader_db_->last_lsn() - slot.acked_lsn));
      }
    } catch (const UnavailableError&) {
      // Severed link or dead peer: back off (capped exponential + jitter,
      // §12.6) and try again at retry_at.
      if (slot.connected)
        publish(events::EventType::kReplicationLag, slot.follower->name(), "disconnected",
                static_cast<double>(leader_db_->last_lsn() - slot.acked_lsn));
      slot.connected = false;
      ++slot.attempts;
      slot.retry_at = sim_.now() + config_.reconnect.delay(slot.attempts, rng_);
    }
  }
}

void ControlPlane::commit_barrier() {
  if (leader_db_ == nullptr)
    throw UnavailableError("control plane is leaderless; cannot commit");
  if (config_.mode == CommitMode::kAsync) return;
  pump();
  const std::uint64_t target = leader_db_->last_lsn();
  std::size_t voters = 1;  // the leader itself
  std::size_t votes = 1;
  for (const auto& slot : slots_) {
    if (slot->is_leader || slot->dead) continue;
    ++voters;
    if (slot->connected && slot->acked_lsn >= target) ++votes;
  }
  if (votes * 2 > voters) {
    if (quorum_lost_) {
      quorum_lost_ = false;
      publish(events::EventType::kQuorum, leader_name_, "restored",
              static_cast<double>(votes));
    }
    return;
  }
  ++quorum_failures_;
  if (!quorum_lost_) {
    quorum_lost_ = true;
    publish(events::EventType::kQuorum, leader_name_, "lost", static_cast<double>(votes));
  }
  throw UnavailableError(cat("quorum-ack failed at LSN ", target, ": ", votes, " of ",
                             voters, " voters acknowledged"));
}

void ControlPlane::start_pump_timer(double interval) {
  stop_pump_timer();
  pump_timer_armed_ = true;
  pump_interval_ = interval;
  schedule_next_pump();
}

void ControlPlane::schedule_next_pump() {
  pump_event_ = sim_.schedule(pump_interval_, [this] {
    if (!pump_timer_armed_) return;
    pump();
    schedule_next_pump();
  });
}

void ControlPlane::stop_pump_timer() {
  if (!pump_timer_armed_) return;
  pump_timer_armed_ = false;
  sim_.cancel(pump_event_);
}

void ControlPlane::kill_leader() {
  if (leader_db_ == nullptr) return;
  leader_db_->set_wal_sink(nullptr);
  for (const auto& slot : slots_)
    if (slot->is_leader && &slot->follower->db() == leader_db_) slot->dead = true;
  publish(events::EventType::kReplicationEpoch, leader_name_, "leader-killed",
          static_cast<double>(epoch_));
  leader_db_ = nullptr;
  leader_name_.clear();
}

std::string ControlPlane::promote() {
  require_state(leader_db_ == nullptr,
                cat("cannot promote while ", leader_name_, " still leads"));
  Slot* best = nullptr;
  for (const auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (slot.is_leader || slot.dead || slot.link->severed()) continue;
    if (best == nullptr || slot.follower->last_lsn() > best->follower->last_lsn() ||
        (slot.follower->last_lsn() == best->follower->last_lsn() &&
         slot.follower->name() < best->follower->name()))
      best = &slot;
  }
  require_state(best != nullptr, "no live follower to promote");

  // Monotonic epoch bump: the new leader outranks every epoch ever issued,
  // so a resurrected old leader's shipments are refused everywhere.
  ++epoch_;
  best->follower->promote(epoch_);
  best->is_leader = true;
  leader_db_ = &best->follower->db();
  leader_name_ = best->follower->name();
  seed_log_from(*leader_db_);
  leader_db_->set_wal_sink([this](sqldb::WalGroup group) { on_commit(std::move(group)); });

  const std::uint64_t leader_lsn = leader_db_->last_lsn();
  const Shipment announce{epoch_, {}};
  const std::string wire = encode_shipment(announce);
  for (const auto& slot_ptr : slots_) {
    Slot& slot = *slot_ptr;
    if (slot.is_leader || slot.dead) continue;
    // A follower that replayed past the new leader (async mode's unacked
    // tail) has diverged history; snapshot bootstrap truncates it back to
    // the elected state.
    slot.acked_lsn = std::min(slot.acked_lsn, leader_lsn);
    if (slot.follower->last_lsn() > leader_lsn) slot.force_bootstrap = true;
    try {
      slot.link->deliver(wire.size());
      slot.follower->handle_shipment(wire);  // epoch announcement
    } catch (const UnavailableError&) {
      // It will learn the epoch when its link heals and pump() reaches it.
    }
  }
  publish(events::EventType::kReplicationEpoch, leader_name_, "promoted",
          static_cast<double>(epoch_));
  return leader_name_;
}

std::vector<Ack> ControlPlane::broadcast(const Shipment& shipment) {
  std::vector<Ack> acks;
  const std::string wire = encode_shipment(shipment);
  for (const auto& slot : slots_) {
    if (slot->is_leader || slot->dead) continue;
    try {
      slot->link->deliver(wire.size());
      acks.push_back(slot->follower->handle_shipment(wire));
    } catch (const UnavailableError& error) {
      acks.push_back(Ack{0, 0, false, error.what()});
    }
  }
  return acks;
}

ControlPlaneStatus ControlPlane::status() const {
  ControlPlaneStatus status;
  status.leader = leader_name_;
  status.epoch = epoch_;
  status.mode = config_.mode;
  status.leader_lsn = leader_db_ != nullptr ? leader_db_->last_lsn() : 0;
  for (const auto& slot : slots_) {
    FollowerStatus fs;
    fs.name = slot->follower->name();
    fs.epoch = slot->follower->epoch();
    fs.last_lsn = slot->follower->last_lsn();
    fs.acked_lsn = slot->acked_lsn;
    fs.connected = slot->connected && !slot->link->severed();
    fs.is_leader = slot->is_leader;
    fs.dead = slot->dead;
    fs.reconnects = slot->reconnects;
    fs.bootstraps = slot->bootstraps;
    fs.fenced = slot->follower->fenced();
    status.followers.push_back(std::move(fs));
  }
  status.shipped_groups = shipped_groups_;
  status.shipped_bytes = shipped_bytes_;
  status.bootstraps = bootstraps_;
  status.quorum_failures = quorum_failures_;
  {
    std::lock_guard<std::mutex> lock(log_mutex_);
    status.log_evictions = log_evictions_;
  }
  return status;
}

std::string render_status(const ControlPlaneStatus& status) {
  std::string out =
      cat("control plane: leader=", status.leader.empty() ? "<none>" : status.leader,
          " epoch=", status.epoch, " mode=", commit_mode_name(status.mode),
          " leader_lsn=", status.leader_lsn, "\n");
  for (const FollowerStatus& f : status.followers) {
    out += cat("  ", f.name, ": epoch=", f.epoch, " lsn=", f.last_lsn,
               " acked=", f.acked_lsn, " lag=",
               status.leader_lsn > f.acked_lsn && !f.is_leader
                   ? status.leader_lsn - f.acked_lsn
                   : 0,
               f.is_leader ? " [leader]" : "", f.dead ? " [dead]" : "",
               f.connected ? "" : " [disconnected]", f.fenced > 0 ? " [fenced " : "",
               f.fenced > 0 ? cat(f.fenced, "x]") : "", "\n");
  }
  out += cat("  shipped: ", status.shipped_groups, " groups / ", status.shipped_bytes,
             " bytes; bootstraps=", status.bootstraps,
             " quorum_failures=", status.quorum_failures,
             " log_evictions=", status.log_evictions, "\n");
  return out;
}

}  // namespace rocks::replication
