// The replicated control plane: leader election, WAL shipping, failover
// (DESIGN.md §12).
//
// One ControlPlane supervises a leader Database (the active frontend's) and
// N Followers, each behind its own ReplicationLink. The leader's commit
// stream feeds a bounded in-memory ship log through Database::set_wal_sink —
// the sink runs under the engine's exclusive lock, so ship order is commit
// order by construction — and pump() drains that log to every follower:
// snapshot bootstrap when a follower is behind the log's floor, incremental
// LSN-ordered statement groups otherwise, with per-follower acked-LSN
// cursors and capped-exponential reconnect backoff (support::BackoffPolicy)
// when a link is severed or a follower refuses.
//
// Epochs are monotonic and fence everything: every shipment carries the
// leader's epoch, followers refuse lower epochs and adopt higher ones.
// kill_leader() models the frontend dying (the sink detaches — a dead
// leader ships nothing); promote() elects the connected follower with the
// highest replayed LSN, bumps the epoch, drops that follower's write fence,
// re-points the ship stream at its database, and announces the new epoch so
// any resurrected stale leader finds every follower already fenced.
//
// Commit modes bound the loss window (§12.4):
//   kAsync  — commit_barrier() returns immediately; shipping happens on the
//             next pump. Lost on leader death: everything committed since
//             the last completed pump (measurable, bounded by pump cadence).
//   kQuorum — commit_barrier() pumps and then requires a majority of the
//             voting set (leader + followers) at the leader's durable LSN,
//             throwing UnavailableError otherwise so the caller never acks.
//             An acked commit is then on ≥1 follower, and promotion picks
//             the max-LSN follower — no acked commit can be lost.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "events/bus.hpp"
#include "netsim/engine.hpp"
#include "netsim/link.hpp"
#include "replication/follower.hpp"
#include "replication/shipment.hpp"
#include "sqldb/engine.hpp"
#include "sqldb/wal.hpp"
#include "support/backoff.hpp"
#include "support/rng.hpp"

namespace rocks::replication {

enum class CommitMode { kAsync, kQuorum };

[[nodiscard]] std::string_view commit_mode_name(CommitMode mode);

struct ControlPlaneConfig {
  CommitMode mode = CommitMode::kQuorum;
  /// Ship-log cap in statement groups; overflow raises the floor and forces
  /// behind-floor followers through snapshot bootstrap instead.
  std::size_t max_log_groups = 4096;
  /// Reconnect schedule after a severed link / refused delivery (§12.6).
  support::BackoffPolicy reconnect{5.0, 60.0, 0.25};
  std::uint64_t seed = 0x5EED0C1A;
};

struct FollowerStatus {
  std::string name;
  std::uint64_t epoch = 0;
  std::uint64_t last_lsn = 0;   // the follower's durable position
  std::uint64_t acked_lsn = 0;  // last LSN it acknowledged to the leader
  bool connected = true;
  bool is_leader = false;  // promoted: now the ship stream's source
  bool dead = false;       // killed while leading; never ships again
  std::uint64_t reconnects = 0;
  std::uint64_t bootstraps = 0;
  std::uint64_t fenced = 0;
};

struct ControlPlaneStatus {
  std::string leader;  // "" while leaderless (between kill and promote)
  std::uint64_t epoch = 0;
  CommitMode mode = CommitMode::kQuorum;
  std::uint64_t leader_lsn = 0;
  std::vector<FollowerStatus> followers;
  std::uint64_t shipped_groups = 0;
  std::uint64_t shipped_bytes = 0;
  std::uint64_t bootstraps = 0;
  std::uint64_t quorum_failures = 0;
  std::uint64_t log_evictions = 0;
};

/// One-line-per-follower operator report (cluster-status --replication).
[[nodiscard]] std::string render_status(const ControlPlaneStatus& status);

class ControlPlane {
 public:
  explicit ControlPlane(netsim::Simulator& sim, ControlPlaneConfig config = {});
  ~ControlPlane();

  // --- topology --------------------------------------------------------------
  /// Installs `db` (the active frontend's durable database) as the leader of
  /// epoch 1: seeds the ship log from its WAL (flushed first, so the
  /// group-commit tail is in it) and hooks the WAL sink, so followers added
  /// later can catch up without a bootstrap when the WAL still covers them.
  void lead(sqldb::Database& db, std::string name);

  /// Adds a follower behind a fresh ReplicationLink. Storage-only when
  /// `distro` is null; serving (kickstart + HTTP + optional DHCP) otherwise.
  Follower& add_follower(FollowerConfig config, const rpm::SynthDistro* distro = nullptr);

  [[nodiscard]] std::size_t follower_count() const { return slots_.size(); }
  [[nodiscard]] Follower& follower(std::size_t index) { return *slots_[index]->follower; }
  [[nodiscard]] netsim::ReplicationLink& link(std::size_t index) {
    return *slots_[index]->link;
  }
  /// Every follower's link, for FaultInjector::wire_links.
  [[nodiscard]] std::vector<netsim::ReplicationLink*> links();

  // --- the ship loop -----------------------------------------------------------
  /// Drains the ship log to every live follower: bootstrap when behind the
  /// floor, incremental groups otherwise. A failed delivery marks the
  /// follower disconnected and schedules its retry (backoff with jitter);
  /// pumping before `retry_at` skips it. Crash point: "replication.ship".
  void pump();

  /// The hook for Frontend::set_commit_barrier (§12.4): under kQuorum,
  /// ships and throws UnavailableError unless a majority of the voting set
  /// has acknowledged the leader's durable LSN; under kAsync, returns
  /// immediately (the loss window is whatever the next pump hasn't shipped).
  void commit_barrier();

  /// Schedules pump() every `interval` simulated seconds (the async mode's
  /// background shipper). Stops on stop_pump_timer() or destruction.
  void start_pump_timer(double interval);
  void stop_pump_timer();

  // --- failover ----------------------------------------------------------------
  /// The leader dies: detaches the sink (a dead leader ships nothing) and
  /// leaves the plane leaderless. If the leader was a promoted follower its
  /// slot is marked dead. The epoch does NOT advance here — promotion owns
  /// the epoch bump.
  void kill_leader();

  /// Elects the live follower with the highest replayed LSN (deterministic
  /// name tiebreak), bumps the epoch, promotes it (write fence drops,
  /// services regenerate), re-points the ship stream at its database, and
  /// announces the new epoch to the remaining followers. Returns the new
  /// leader's name. Throws StateError when a leader is still installed or
  /// no live follower exists.
  std::string promote();

  /// Delivers an arbitrary shipment to every live follower — the stale-
  /// leader resurrection drill: a revenant leader re-shipping at its old
  /// epoch must collect only fenced refusals.
  std::vector<Ack> broadcast(const Shipment& shipment);

  // --- observability -----------------------------------------------------------
  /// Event spine hookup (DESIGN.md §15): epoch transitions publish
  /// kReplicationEpoch (promotion and leader death), per-follower
  /// disconnect/reconnect/bootstrap publish kReplicationLag, and quorum
  /// lost/restored transitions publish kQuorum. Null detaches.
  void set_event_bus(events::EventBus* bus) { bus_ = bus; }
  [[nodiscard]] ControlPlaneStatus status() const;
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] bool has_leader() const { return leader_db_ != nullptr; }
  [[nodiscard]] const std::string& leader_name() const { return leader_name_; }
  [[nodiscard]] CommitMode mode() const { return config_.mode; }
  void set_mode(CommitMode mode) { config_.mode = mode; }

 private:
  struct Slot {
    std::unique_ptr<Follower> follower;
    std::unique_ptr<netsim::ReplicationLink> link;
    std::uint64_t acked_lsn = 0;
    bool connected = true;
    bool is_leader = false;
    bool dead = false;
    bool force_bootstrap = false;  // set when the follower diverged (§12.5)
    int attempts = 0;              // consecutive failed deliveries
    double retry_at = 0.0;         // next attempt time (sim clock)
    std::uint64_t reconnects = 0;
    std::uint64_t bootstraps = 0;
  };

  /// The WAL sink: appends one committed statement's group to the ship log.
  /// Runs under the leader engine's exclusive lock — log_mutex_ is a leaf
  /// below it, and pump() copies the log out before delivering, so the two
  /// lock orders never interleave.
  void on_commit(sqldb::WalGroup group);

  /// Rebuilds the ship log from `db`'s flushed WAL (lead/promote).
  void seed_log_from(sqldb::Database& db);
  /// Evicts groups past max_log_groups, raising the floor (log_mutex_ held).
  void trim_log_locked();

  /// Ships to one slot from a log copy: bootstrap when forced or behind the
  /// floor, incremental groups otherwise. Throws UnavailableError when the
  /// link refuses; the caller owns retry bookkeeping.
  void ship_to(Slot& slot, const std::vector<sqldb::WalGroup>& log, std::uint64_t floor);
  void schedule_next_pump();
  void publish(events::EventType type, std::string subject, std::string detail,
               double value);

  netsim::Simulator& sim_;
  ControlPlaneConfig config_;
  Rng rng_;

  sqldb::Database* leader_db_ = nullptr;
  std::string leader_name_;
  std::uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;

  // The ship log: whole committed statement groups above floor_. Guarded by
  // log_mutex_ (the sink may run from any committing thread).
  mutable std::mutex log_mutex_;
  std::deque<sqldb::WalGroup> log_;
  std::uint64_t floor_ = 0;  // every LSN <= floor_ has left the log
  std::uint64_t log_evictions_ = 0;

  // Pump-thread stats (status() reads them; call sites are single-threaded).
  std::uint64_t shipped_groups_ = 0;
  std::uint64_t shipped_bytes_ = 0;
  std::uint64_t bootstraps_ = 0;
  std::uint64_t quorum_failures_ = 0;

  events::EventBus* bus_ = nullptr;
  bool quorum_lost_ = false;  // edge-detect: publish lost/restored once each

  bool pump_timer_armed_ = false;
  double pump_interval_ = 0.0;
  netsim::EventId pump_event_ = 0;
};

}  // namespace rocks::replication
