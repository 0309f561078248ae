// The change-propagation bus (DESIGN.md §10).
//
// Every piece of derived state in the toolkit — /etc configuration files,
// DHCP bindings, cached kickstart profiles — is a function of the SQL
// database plus a handful of non-SQL inputs (the XML graph, the node files,
// the distribution tree). The paper's update loop regenerates all of it
// after every insert-ethers change (Section 6.4); at production scale the
// cost of a change must track the size of the *change*, not the cluster.
//
// The ChangeJournal is the one mechanism every consumer invalidates
// through. It is a support::ChannelLog of (op, primary key, revision)
// records: per named channel a monotonic revision, bumped once per
// row-level change (or touch), and a bounded changelog, so consumers can
// turn "something changed" into "exactly these rows changed" — or learn
// the log was truncated and a full rescan is due. Subscribers are notified
// once per committed statement, not once per record.
//
// Channels are case-insensitive names. Table channels ("nodes",
// "memberships", ...) are fed by the Database's INSERT/UPDATE/DELETE paths
// under its exclusive lock; external channels ("kickstart.graph", ...) are
// fed by touch() from whoever mutates the corresponding input. A touch
// carries no row identity, so it always reads back as "truncated" — the
// bus-level way of saying "full rescan required".
//
// Locking: the ChannelLog's two leaf mutexes; callbacks run after both are
// dropped. record() does NOT notify (the Database batches one notification
// per statement and dispatches it after releasing its table lock, so
// callbacks may safely re-enter the Database); touch() notifies immediately
// and must not be called while holding a lock the callbacks might take.
// Callbacks run on the committing thread and may fire concurrently with
// anything; subscribers must do thread-safe work (flip an atomic dirty
// flag, not regenerate a file). unsubscribe() does not wait for in-flight
// callbacks — quiesce writers before destroying a subscriber.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sqldb/value.hpp"
#include "support/channel_log.hpp"

namespace rocks::sqldb {

enum class ChangeOp { kInsert, kUpdate, kDelete };

/// One row-level change: what happened, to which primary key, at which
/// channel revision (`seq`). A NULL pk means the table has no primary key
/// and the row cannot be identified — record() turns it into a truncation
/// instead of logging it.
struct ChangeRecord {
  ChangeOp op = ChangeOp::kInsert;
  Value pk;
  std::uint64_t seq = 0;
};

class ChangeJournal {
 public:
  /// Callback: (channel, revision after the change batch). Runs on the
  /// committing thread, outside all journal locks.
  using Callback = std::function<void(std::string_view channel, std::uint64_t revision)>;

  /// Subscribing to kAllChannels receives every notification on the bus.
  static constexpr std::string_view kAllChannels = "*";

  /// Default per-channel changelog bound. Big enough that a burst of node
  /// registrations between two flushes stays incremental; small enough that
  /// an unconsumed journal cannot grow without bound.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit ChangeJournal(std::size_t capacity = kDefaultCapacity) : log_(capacity) {}

  /// Appends one change record, bumping the channel revision. Does NOT
  /// notify — callers batch notifications per statement (see notify()).
  /// A record whose pk is NULL poisons the covered range: since() reports
  /// it as truncated, because the row cannot be re-fetched by key.
  /// Returns the new revision.
  std::uint64_t record(std::string_view channel, ChangeOp op, Value pk);

  /// Bumps the channel revision with no row identity and notifies
  /// subscribers. Deltas spanning a touch read as truncated — this is the
  /// coarse "something changed, rescan" signal for inputs without row
  /// semantics (graph edits, distribution rebuilds, DROP TABLE).
  void touch(std::string_view channel);

  /// Like touch() but without the notification — for callers that must not
  /// run callbacks yet (the Database's DDL paths, which hold the table
  /// lock). Pair with a later notify().
  void truncate(std::string_view channel);

  /// Current revision of a channel; 0 for channels never written.
  [[nodiscard]] std::uint64_t revision(std::string_view channel) const;

  /// Truncation floor of a channel (see support::ChannelDelta::floor); 0
  /// for channels never written or never truncated. Bounded-changelog
  /// trims, touches, NULL-pk records and WAL-replay trims all raise it, so
  /// since() cursors and replay-driven IncrementalReports get the same
  /// answer to "is a full rescan required".
  [[nodiscard]] std::uint64_t floor(std::string_view channel) const;

  /// Cursor read: every record after `revision`, or truncated == true when
  /// the changelog no longer covers that range. Always returns the current
  /// channel revision (`seq`), so callers can advance their cursor either
  /// way.
  [[nodiscard]] support::ChannelDelta<ChangeRecord> since(std::string_view channel,
                                                          std::uint64_t revision) const;

  /// Registers a callback for one channel (or kAllChannels). Returns an id
  /// for unsubscribe(). Safe to call concurrently with commits.
  std::size_t subscribe(std::string_view channel, Callback callback);
  void unsubscribe(std::size_t id) { log_.unsubscribe(id); }

  /// Invokes every subscriber of `channel` (and every kAllChannels
  /// subscriber) with the channel's current revision. Called by the
  /// Database once per committed statement, after its table lock is
  /// released; external publishers get it via touch().
  void notify(std::string_view channel);

  /// Changelog bound; shrinking immediately trims every channel, which may
  /// truncate open cursors.
  void set_capacity(std::size_t capacity) { log_.set_capacity(capacity); }

  // --- durability hooks (DESIGN.md §11) ------------------------------------
  /// Every channel's (name, revision) — what a snapshot persists. Names are
  /// the lowered channel keys, in sorted order.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> channel_states() const {
    return log_.seqs();
  }

  /// Recovery: reinstates a channel at `revision` with an empty changelog
  /// and floor == revision — the snapshot carries no row-level records, so
  /// consumers resuming below the floor correctly see "rescan required".
  /// Does not notify.
  void restore_channel(std::string_view channel, std::uint64_t revision);

  // Observability (tests, tuning).
  [[nodiscard]] std::uint64_t records_written() const {
    return records_written_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t notifications_sent() const { return log_.notifications_sent(); }

 private:
  // Keyed by lowered channel name.
  support::ChannelLog<ChangeRecord, std::string, Callback> log_;
  std::atomic<std::uint64_t> records_written_{0};
};

}  // namespace rocks::sqldb
