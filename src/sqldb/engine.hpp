// The mini SQL database engine (the toolkit's MySQL stand-in).
//
// Rocks keeps all "global knowledge" of the cluster — the nodes and
// memberships tables, site configuration — in a SQL database and derives
// every service-specific configuration file from query reports (paper
// Sections 1 and 6.4). This engine executes the SQL those components issue.
//
// Hot-path machinery (see DESIGN.md §8): prepare() parses a statement once;
// its `?` placeholders take values per execute, and its table and column
// names are bound to positions once per catalog, so a caller that holds the
// statement pays neither the parser nor name lookup again. Ad-hoc SQL text
// (operator queries, cluster-kill --query=) goes through an LRU cache of
// prepared statements. SELECT runs through a small planner that probes
// per-column hash indexes for equality predicates (`col = literal` and
// `col = ?` alike) and hash-joins two-table equi-joins, falling back to the
// nested-loop scan whenever a query doesn't fit those shapes.
//
// Concurrency (DESIGN.md §13): multi-version concurrency control. Writers
// (DML/DDL) serialize on one mutex — WAL order is commit order — but
// readers never touch it: every SELECT pins the current commit timestamp
// in a ReaderRegistry and evaluates against the version chains visible at
// that timestamp, so an insert-ethers burst can no longer stall kickstart
// generation. Commit timestamps are WAL LSNs (the commit-marked record's),
// making "the state at ts" and "the state after replaying LSNs <= ts"
// identical by construction; recovery, replication apply, and snapshot
// restore all reconstruct the same timestamps. ReadView exposes a pinned
// multi-statement view (consistent kickstart resolution); snapshot() and
// snapshot_image() serialize from a pinned view while DML proceeds —
// checkpoints are zero-pause. Superseded row versions are reclaimed once
// no live view can reach them (Table::reclaim, every 64 commits).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sqldb/journal.hpp"
#include "sqldb/mvcc.hpp"
#include "sqldb/parser.hpp"
#include "sqldb/table.hpp"

namespace rocks::vfs {
class FileSystem;
}

namespace rocks::sqldb {

struct WalRecord;
struct WalGroup;
struct SnapshotData;
struct Binding;
class ReadView;

/// What open_durable() found and did while bringing the store back up.
struct RecoveryReport {
  bool snapshot_loaded = false;         // a valid snapshot was restored
  std::uint64_t snapshot_seq = 0;       // its sequence number
  std::uint64_t snapshot_lsn = 0;       // its last absorbed LSN
  std::size_t snapshots_skipped = 0;    // corrupt snapshots passed over
  std::size_t wal_records_replayed = 0; // applied on top of the snapshot
  std::size_t wal_records_skipped = 0;  // at or below the snapshot LSN
  std::size_t wal_records_dropped = 0;  // unusable after an LSN gap
  bool wal_torn = false;                // a torn/corrupt tail was truncated
  std::uint64_t last_lsn = 0;           // store position after recovery
};

/// The outcome of a statement: SELECTs fill columns/rows; writes fill
/// affected_rows.
class ResultSet {
 public:
  std::vector<std::string> columns;
  std::vector<Row> rows;
  std::size_t affected_rows = 0;

  [[nodiscard]] std::size_t row_count() const { return rows.size(); }
  /// Index of the named output column; throws LookupError when absent.
  /// The name -> index map is built once on first use and cached, so looping
  /// callers don't pay a linear scan per cell; don't mutate `columns` after
  /// the first lookup.
  [[nodiscard]] std::size_t column_index(std::string_view name) const;
  /// Value at (row, named column).
  [[nodiscard]] const Value& at(std::size_t row, std::string_view column) const;
  /// Value at (row, positional column) — pair with column_index() hoisted
  /// out of the loop.
  [[nodiscard]] const Value& at(std::size_t row, std::size_t column) const;
  /// Renders as an ASCII table (used by benches to print Tables II/III).
  [[nodiscard]] std::string render() const;

 private:
  mutable std::unordered_map<std::string, std::size_t> column_cache_;  // lowered name
};

/// One table the catalog has ever known. Entries are append-only: DROP
/// TABLE stamps the table's dropped_ts instead of removing the entry, so a
/// reader whose pin predates the drop still resolves it. `seq` orders
/// entries sharing a (recreated) name — the latest visible entry wins.
struct CatalogEntry {
  std::shared_ptr<Table> table;
  std::uint64_t seq = 0;
};

/// An immutable published table set, sorted by (lowered name, seq).
/// Readers load the current catalog once per view; superseded catalogs are
/// retained for the Database's lifetime (bounded by DDL count), which is
/// why a raw atomic pointer suffices. `id` is unique in the process: a
/// prepared statement's binding names its catalog by id, which no later
/// catalog (of any Database) reuses, as an address could be.
struct Catalog {
  std::vector<CatalogEntry> entries;
  std::uint64_t id = 0;
};

/// A parsed statement, executed many times with values for its `?`
/// placeholders (Database::prepare). The first execute against a catalog
/// binds it: the FROM tables, every column reference's (table, column)
/// position, `*` expansion and the output names are resolved in one step
/// and kept with the statement. Later executes against that catalog read
/// positions only. CREATE TABLE publishes a new catalog and DROP TABLE
/// makes the bound table invisible, so the next execute rebinds (or
/// throws LookupError). Immutable apart from that cache, which is safe to
/// fill from several threads: share one statement freely.
class Prepared {
 public:
  explicit Prepared(ParsedStatement parsed);
  ~Prepared();  // out-of-line: Binding is incomplete here
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  [[nodiscard]] const Statement& statement() const { return parsed_.statement; }
  /// How many `?` placeholders an execute must bind.
  [[nodiscard]] std::size_t param_count() const { return parsed_.params; }

 private:
  friend class Database;
  ParsedStatement parsed_;
  // The newest binding, read lock-free by every execute. Bindings made
  // earlier stay in bindings_ until the statement dies (a pinned reader
  // may still be using one); their count is bounded by the catalogs the
  // statement ran against.
  mutable std::atomic<const Binding*> binding_{nullptr};
  mutable std::mutex bind_mutex_;
  mutable std::vector<std::unique_ptr<const Binding>> bindings_;
};

/// MVCC observability (cluster-status --engine, bench_mvcc): the commit
/// cursor, the active read-view horizon, and version-chain shape.
struct MvccStatus {
  std::uint64_t commit_ts = 0;        // newest committed timestamp (== last LSN when durable)
  std::uint64_t min_active_ts = 0;    // oldest pinned read ts (commit_ts when idle)
  std::size_t active_read_views = 0;  // pins live right now
  std::uint64_t read_views_opened = 0;
  std::uint64_t versions_reclaimed = 0;  // freed over the engine's life
  std::size_t versions_live = 0;         // version nodes currently linked
  std::size_t retired_pending = 0;       // superseded, awaiting the ts horizon
  std::size_t limbo_versions = 0;        // unlinked, awaiting walker drain
  std::size_t max_chain = 0;
  std::array<std::size_t, 9> chain_histogram{};  // [i] = chains of length i+1; [8] = >8
  struct TableStatus {
    std::string table;
    Table::Stats stats;
  };
  std::vector<TableStatus> tables;
};

class Database {
 public:
  Database();
  ~Database();  // out-of-line: Durability is incomplete here

  /// A parsed, shareable statement. Holders keep it valid even after the
  /// cache evicts the entry.
  using PreparedStatement = std::shared_ptr<const Prepared>;

  /// Parses one statement, consulting/filling the LRU statement cache keyed
  /// on the exact SQL text; every parse counts as a cache miss. Throws
  /// ParseError. A caller that runs a statement repeatedly prepares it once
  /// and executes the handle.
  [[nodiscard]] PreparedStatement prepare(std::string_view sql);

  /// Executes a prepared statement with one value per `?`, in text order.
  /// A wrong number of values throws StateError before anything changes.
  /// Throws LookupError for names the catalog does not know. SELECTs run
  /// lock-free against a snapshot-isolation view pinned at the current
  /// commit timestamp.
  ResultSet execute(const Prepared& statement, std::span<const Value> params = {});
  ResultSet execute(const Prepared& statement, std::initializer_list<Value> params) {
    return execute(statement, std::span<const Value>(params.begin(), params.size()));
  }
  /// Executes a prepared INSERT once per group of param_count() values in
  /// `rows`, as one statement: one WAL group and one commit, exactly like
  /// a multi-row INSERT, without a statement per row count. Throws
  /// StateError, changing nothing, for a non-INSERT, an INSERT with no
  /// placeholders, or a value count that is not a whole number of groups.
  ResultSet insert_rows(const Prepared& statement, std::span<const Value> rows);
  /// Prepares (through the statement cache) and executes one SQL statement:
  /// the path for ad-hoc text. Throws ParseError as well.
  ResultSet execute(std::string_view sql, std::span<const Value> params = {});
  ResultSet execute(std::string_view sql, std::initializer_list<Value> params) {
    return execute(sql, std::span<const Value>(params.begin(), params.size()));
  }

  /// Convenience: run a SELECT and return the single-column results as text.
  [[nodiscard]] std::vector<std::string> query_column(std::string_view sql);

  /// Opens a pinned read view at the current commit timestamp: every SELECT
  /// executed through it sees the same committed state, however many
  /// writers commit in between — the kickstart resolve path uses one view
  /// for its node + membership lookups so they can never disagree. Holding
  /// a view defers version reclamation past its timestamp; release (destroy)
  /// views promptly.
  [[nodiscard]] ReadView read_view();

  // --- change-propagation bus (DESIGN.md §10) ------------------------------
  // Every INSERT/UPDATE/DELETE records (op, PK, revision) into the journal
  // under the exclusive writer lock; subscribers are notified once per
  // committed statement, after the lock is released, so callbacks may
  // re-enter the Database. CREATE/DROP TABLE truncate the table's channel
  // (full rescan). Channel names are the (case-insensitive) table names.
  [[nodiscard]] ChangeJournal& journal() { return journal_; }
  [[nodiscard]] const ChangeJournal& journal() const { return journal_; }
  /// Current change revision of a table's channel (0 = never written).
  [[nodiscard]] std::uint64_t revision(std::string_view table) const {
    return journal_.revision(table);
  }
  /// Row-level changes after `revision`, or "truncated, rescan required".
  [[nodiscard]] support::ChannelDelta<ChangeRecord> since(std::string_view table,
                                                          std::uint64_t revision) const {
    return journal_.since(table, revision);
  }

  // --- durable store (DESIGN.md §11) ---------------------------------------
  // Without a store the Database is the in-RAM engine it always was. With
  // one, every committed mutation appends physical WAL records under the
  // exclusive lock (commit order == WAL order), snapshot() checkpoints, and
  // open_durable() on a fresh Database brings back the exact committed
  // state — tables, AUTO_INCREMENT cursors, index definitions, and journal
  // channel revisions alike.

  /// Attaches the store rooted at `dir` (created if absent) and recovers:
  /// loads the newest valid snapshot (skipping corrupt ones), truncates a
  /// torn WAL tail, and replays the remaining records — reconstructing each
  /// statement's commit timestamp from its commit-marked record's LSN. Must
  /// be called on a Database with no tables; throws StateError otherwise.
  /// The store stays attached — subsequent mutations are logged.
  RecoveryReport open_durable(vfs::FileSystem& fs, std::string_view dir);
  [[nodiscard]] bool durable() const { return durability_ != nullptr; }

  /// Checkpoints with zero reader/writer pause: flushes the WAL and pins a
  /// read view under a brief exclusive hold, serializes the pinned state
  /// with the lock released (DML proceeds), then republishes under another
  /// brief hold — temp file + atomic rename, WAL truncated up to the
  /// absorbed LSN (records committed during serialization survive), and
  /// snapshots older than the newest two retired. Returns the new
  /// snapshot's sequence number.
  /// Crash points: "snapshot.write.before", "snapshot.write.after",
  /// "snapshot.rename.after", "snapshot.retire.before".
  std::uint64_t snapshot();

  /// Forces buffered WAL records to disk — the group-commit barrier callers
  /// use before acknowledging work to the outside (e.g. insert-ethers
  /// completing a registration batch).
  void wal_flush();

  /// Statements per WAL flush; 1 (default) = synchronous durability on
  /// every commit, larger batches amortize the append at the cost of a
  /// bounded loss window (never an inconsistency).
  void set_wal_group_commit(std::size_t batch);

  // --- replication surface (DESIGN.md §12) ---------------------------------
  // A durable Database can act as either end of WAL shipping: the leader
  // side exposes its commit stream (set_wal_sink, wal_image) and a
  // bootstrap image (snapshot_image); the follower side applies shipped
  // statement groups (replicate_apply), installs bootstrap images
  // (install_replica_snapshot), and fences local writes (set_read_only).

  /// Commit hook for WAL shipping: invoked under the exclusive writer lock
  /// with each statement's group — the frames the local WAL just buffered —
  /// in commit order (WAL order == commit order == sink order), right
  /// before the local group-commit flush. The sink must not call back into
  /// this Database. Requires a durable store (only it stamps LSNs and frames
  /// records); pass nullptr to detach (a killed leader stops shipping).
  using WalSink = std::function<void(WalGroup)>;
  void set_wal_sink(WalSink sink);

  /// Applies one shipped statement group (the leader's framed WAL bytes)
  /// to this durable replica; a torn or unterminated group throws
  /// StateError. Records at or below the current LSN are skipped (duplicate
  /// delivery is idempotent); the first genuinely new record must be exactly
  /// next in sequence or the whole group is rejected with StateError — an
  /// LSN gap means shipping skipped something and the follower must be
  /// caught up from the leader's WAL cursor or re-bootstrapped. Applied
  /// frames are appended verbatim to the replica's own WAL (leader LSNs
  /// preserved, bytes identical), so the replica's independent crash
  /// recovery replays the same history — and the leader's commit timestamps
  /// are reproduced exactly (ts == the commit record's LSN). Touched journal
  /// channels are notified after the lock drops, exactly like local
  /// commits. Returns the replica's LSN after the group.
  std::uint64_t replicate_apply(std::string_view group);

  /// Write fencing for the follower role: while read-only, every non-SELECT
  /// statement throws StateError mentioning `leader_hint` (redirect-on-
  /// write). replicate_apply and install_replica_snapshot are exempt —
  /// replication IS the write path on a follower.
  void set_read_only(bool read_only, std::string leader_hint = "");
  [[nodiscard]] bool read_only() const {
    return read_only_.load(std::memory_order_relaxed);
  }

  /// Serializes current committed state as a snapshot image — the leader
  /// side of follower bootstrap. Zero-pause like snapshot(): the LSN
  /// position and a read view are captured under a brief lock hold, the
  /// serialization itself runs against the pinned view while DML proceeds.
  [[nodiscard]] std::string snapshot_image() const;

  /// Follower bootstrap: replaces this durable replica's state with
  /// `image` — tables, journal channel revisions, and LSN cursor — and
  /// persists the image as the replica's own snapshot (plus a WAL reset) so
  /// its independent crash recovery starts from it. Accepts a non-empty
  /// database: re-bootstrap is the catch-up path for a follower that fell
  /// behind the leader's retained WAL. Readers pinned before the install
  /// keep the pre-install tables (stamped dropped at the image's LSN);
  /// views opened after see the image. Throws StateError on a corrupt
  /// image. Returns the image's last LSN.
  std::uint64_t install_replica_snapshot(std::string_view image);

  /// The durable WAL image: the on-disk bytes (unflushed tail excluded).
  /// Source for the wal_groups_after() streaming cursor — follower
  /// catch-up after a reconnect, and the promotion path's re-ship.
  [[nodiscard]] std::string wal_image() const;

  /// Deterministic dump of committed state: every table's schema, index
  /// definitions, AUTO_INCREMENT cursor and rows, plus journal channel
  /// revisions. Two Databases with equal dumps are observably identical —
  /// the crash-recovery tests compare these byte-for-byte. Reads from a
  /// pinned view, so it never blocks (or is blocked by) writers.
  [[nodiscard]] std::string dump_state() const;

  // Durability observability (tests, bench_durability). Zero when no store
  // is attached.
  [[nodiscard]] std::uint64_t last_lsn() const;
  [[nodiscard]] std::uint64_t wal_records_appended() const;
  [[nodiscard]] std::uint64_t wal_flushes() const;
  [[nodiscard]] std::uint64_t wal_bytes_written() const;

  [[nodiscard]] bool has_table(std::string_view name) const;
  [[nodiscard]] const Table& table(std::string_view name) const;
  [[nodiscard]] std::vector<std::string> table_names() const;

  // --- MVCC observability & maintenance (DESIGN.md §13) --------------------
  /// Point-in-time engine status: commit cursor, read-view horizon,
  /// version-chain histogram, reclamation counters.
  [[nodiscard]] MvccStatus mvcc_status() const;
  /// Forces a reclamation pass (normally one runs every 64 commits).
  /// Returns the number of versions freed; 0 when a pinned view (or a pin
  /// mid-registration) blocks the horizon.
  std::size_t reclaim();

  // Statement-cache observability (tests, tuning).
  [[nodiscard]] std::size_t statement_cache_size() const;
  [[nodiscard]] std::uint64_t statement_cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t statement_cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

  // Planner observability: how many SELECTs ran with each strategy.
  [[nodiscard]] std::uint64_t plans_index_probe() const {
    return plans_index_probe_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t plans_index_join() const {
    return plans_index_join_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t plans_hash_join() const {
    return plans_hash_join_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t plans_scan() const {
    return plans_scan_.load(std::memory_order_relaxed);
  }

  // Lock-contention observability (DESIGN.md §9/§13): writer-lock
  // acquisitions and cumulative wait (nanoseconds). Under MVCC the read
  // path takes no lock at all; read_views_opened() counts the pinned views
  // it opens instead.
  [[nodiscard]] std::uint64_t exclusive_lock_acquisitions() const {
    return exclusive_acquisitions_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t exclusive_lock_wait_ns() const {
    return exclusive_wait_ns_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t read_views_opened() const {
    return read_views_opened_.load(std::memory_order_relaxed);
  }

  /// Zeroes the statement-cache, planner, lock, and read-view counters so
  /// bench harnesses get per-phase numbers instead of cumulative ones.
  /// Engine state (commit timestamps, reclamation totals) is untouched.
  void reset_stats();

  /// Testing/debug knob: with the planner off every SELECT takes the
  /// nested-loop scan. Index and hash-join plans must produce identical
  /// ResultSets, so A/B tests flip this and compare.
  void set_planner_enabled(bool enabled) {
    planner_enabled_.store(enabled, std::memory_order_relaxed);
  }

 private:
  friend class ReadView;
  struct Durability;  // WAL writer + LSN/seq cursors; engine.cpp only

  // execute()'s two paths: a SELECT pins a read timestamp and takes no
  // lock; every other statement runs its handler under the writer lock,
  // commits the records it built, and notifies the channels they touched
  // after the lock is released (callbacks may re-enter the Database).
  /// A SELECT against `catalog` at read timestamp `ts` (binds first).
  ResultSet run_select(const Prepared& prepared, const Catalog& catalog, std::uint64_t ts,
                       std::span<const Value> params);
  /// The write path: `handler(records)` runs under the writer lock.
  template <typename Handler>
  ResultSet run_write_locked(const Handler& handler);

  /// The binding of `prepared` whose catalog is `catalog_id` and whose
  /// tables `fits` accepts: the published one, an earlier one, or a new
  /// one from `build` (which throws LookupError for unknown names).
  template <typename Fits, typename Build>
  static const Binding& binding_for(const Prepared& prepared, std::uint64_t catalog_id,
                                    const Fits& fits, const Build& build);

  // Statement handlers: each builds one physical WAL record per row-level
  // change, applies it through apply_locked, and appends it to `records`
  // (the statement's WAL group). The row statements bind to their target
  // table first. An INSERT runs its VALUES once per param_count() values
  // in `params` (insert_rows).
  ResultSet run_write(const Prepared& prepared, const InsertStmt& stmt,
                      std::span<const Value> params, std::vector<WalRecord>& records);
  ResultSet run_write(const Prepared& prepared, const UpdateStmt& stmt,
                      std::span<const Value> params, std::vector<WalRecord>& records);
  ResultSet run_write(const Prepared& prepared, const DeleteStmt& stmt,
                      std::span<const Value> params, std::vector<WalRecord>& records);
  ResultSet run_write(const CreateTableStmt& stmt, std::vector<WalRecord>& records);
  ResultSet run_write(const CreateIndexStmt& stmt, std::vector<WalRecord>& records);
  ResultSet run_write(const DropTableStmt& stmt, std::vector<WalRecord>& records);
  /// The binding of a row statement to `target` in the writer's current
  /// catalog (writer lock held).
  const Binding& bind_write_locked(const Prepared& prepared, const Table& target) const;

  /// The one mutation path, shared by live statements, WAL replay and
  /// replica apply: applies `record` to table storage and records it in the
  /// journal, never notifying. Throws StateError when the record does not
  /// fit the current state (a replayed or shipped record out of step). An
  /// INSERT's record gets the stored row back: coerced, AUTO_INCREMENT key
  /// assigned — what the WAL logs.
  void apply_locked(WalRecord& record);

  /// Commits one statement under the writer lock: stages `records` into the
  /// WAL (LSN stamping, ship to the sink), stamps every version the
  /// statement created or superseded with the commit timestamp (the commit
  /// record's LSN when durable, commit_ts + 1 otherwise), publishes the
  /// catalog if DDL changed it, advances commit_ts_, and only then issues
  /// the (possibly throwing) WAL group-commit flush — an IO failure never
  /// hides the in-RAM commit. Also runs on the partial-failure path, since
  /// this engine has no rollback.
  void commit_locked(std::vector<WalRecord>& records);
  /// The stamping half of commit_locked (shared with replay/replicate):
  /// commit_pending on every table, created/dropped stamps for DDL,
  /// commit_ts_ advance, periodic reclamation.
  void stamp_commit_locked(std::uint64_t ts);
  void maybe_reclaim_locked();
  std::size_t reclaim_locked();

  // Snapshot steps (DESIGN.md §11.3), one implementation each.
  struct CapturedImage {
    std::string bytes;
    std::uint64_t last_lsn = 0;  // the commit timestamp the image absorbs
  };
  /// Capture + encode (snapshot, snapshot_image): fixes the LSN and pins a
  /// view under one brief lock hold — flushing the WAL first when asked —
  /// then serializes the pinned view unlocked.
  [[nodiscard]] CapturedImage capture_image(bool flush_wal) const;
  /// Restore (open_durable, install_replica_snapshot): `snapshot` replaces
  /// the table set, channel revisions and LSN cursor; its rows are moved.
  void restore_snapshot_locked(SnapshotData& snapshot);
  /// Publish (snapshot, install_replica_snapshot): temp file + rename, WAL
  /// truncated through `absorbed` (reset when empty), newest two retained.
  /// Only a checkpoint (`absorbed` set) crosses the snapshot.* crash
  /// points. Returns the published sequence number.
  std::uint64_t publish_snapshot_locked(std::string bytes,
                                        std::optional<std::uint64_t> absorbed);

  /// Creates a table in both the writer map and the reader catalog; the
  /// created_ts stamp waits for commit (readers can't see it earlier).
  Table& create_table_locked(const std::string& name, const std::vector<ColumnDef>& columns);
  /// Removes a table from the writer map; the catalog entry stays and is
  /// stamped dropped at commit.
  void drop_table_locked(std::string_view name);
  /// Publishes a new catalog with `table` appended (keep-forever storage).
  void catalog_append_locked(std::shared_ptr<Table> table);

  // Table lookups used while the caller already holds table_lock_ (the
  // writer mutex is not recursive, so run_write must never re-lock).
  [[nodiscard]] const Table& table_locked(std::string_view name) const;
  [[nodiscard]] Table& table_mutable(std::string_view name);
  /// Reader-side lookup: the table named `name` visible at `ts` in a loaded
  /// catalog (latest visible entry wins across recreations), or null.
  [[nodiscard]] static const Table* catalog_lookup(const Catalog& catalog,
                                                   std::string_view name, std::uint64_t ts);

  /// Case-insensitive, allocation-free table-name ordering (heterogeneous
  /// lookup: find(string_view) never builds a lowered temporary).
  struct NameLess {
    using is_transparent = void;
    bool operator()(std::string_view a, std::string_view b) const;
  };

  // The writer's current tables, keyed by name (case-insensitive) — the
  // same shape the statement handlers always worked against. The
  // shared_ptrs are co-owned by catalog entries, so a DROP removes the
  // table here while pinned readers keep resolving it through the catalog.
  std::map<std::string, std::shared_ptr<Table>, NameLess> tables_;

  // The reader-facing catalog, published via an atomic pointer; superseded
  // catalogs are kept until destruction (count bounded by DDL statements).
  std::vector<std::unique_ptr<const Catalog>> catalog_storage_;
  std::atomic<const Catalog*> catalog_{nullptr};
  std::uint64_t catalog_seq_ = 0;

  // MVCC commit cursor: the newest committed timestamp (== last LSN when
  // durable). Readers pin it; writers advance it after stamping, so a pin
  // taken at ts T always observes every version of every statement <= T.
  std::atomic<std::uint64_t> commit_ts_{0};
  mutable ReaderRegistry registry_;
  std::vector<std::shared_ptr<Table>> pending_creates_;  // stamped at commit
  std::vector<std::shared_ptr<Table>> pending_drops_;
  std::uint64_t commits_since_reclaim_ = 0;
  static constexpr std::uint64_t kReclaimInterval = 64;

  // Commit-time change journal. Internally synchronized with its own leaf
  // mutexes, so apply_locked may record into it while holding table_lock_
  // without adding lock acquisitions the contention counters would see.
  ChangeJournal journal_;

  // Durable store; null until open_durable(). Guarded by table_lock_ (the
  // WAL is written under the writer lock, so WAL order is commit order).
  std::unique_ptr<Durability> durability_;

  // Replication state (DESIGN.md §12). The sink and the fencing message are
  // written under the writer lock and read there too; read_only_ is
  // additionally readable without the lock (generators probe it).
  WalSink wal_sink_;
  std::atomic<bool> read_only_{false};
  std::string read_only_error_;

  // --- writer lock (DESIGN.md §13) -----------------------------------------
  // Serializes DML/DDL, WAL appends, and durability file IO. SELECTs never
  // take it — they pin a read timestamp instead. snapshot() releases it
  // during serialization (zero-pause checkpoint); snapshot_mutex_ keeps
  // two checkpoints from interleaving across that window.
  mutable std::mutex table_lock_;
  mutable std::mutex snapshot_mutex_;
  mutable std::atomic<std::uint64_t> exclusive_acquisitions_{0};
  mutable std::atomic<std::uint64_t> exclusive_wait_ns_{0};
  mutable std::atomic<std::uint64_t> read_views_opened_{0};

  // --- prepared-statement LRU cache (ad-hoc SQL text) ----------------------
  static constexpr std::size_t kStatementCacheCapacity = 256;
  // Guards lru_ + statement_cache_ (a cache *hit* still splices the LRU
  // list, so reads need the mutex too). Leaf lock: nothing else is
  // acquired while it is held. Callers that hold their statements never
  // take it after prepare().
  mutable std::mutex statement_mutex_;
  // Most-recently-used at the front. The unordered_map's string_view keys
  // point into the list nodes' stable strings.
  std::list<std::pair<std::string, PreparedStatement>> lru_;
  std::unordered_map<std::string_view,
                     std::list<std::pair<std::string, PreparedStatement>>::iterator>
      statement_cache_;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> plans_index_probe_{0};
  std::atomic<std::uint64_t> plans_index_join_{0};
  std::atomic<std::uint64_t> plans_hash_join_{0};
  std::atomic<std::uint64_t> plans_scan_{0};
  std::atomic<bool> planner_enabled_{true};
};

/// A pinned snapshot-isolation read view over a Database: every SELECT
/// executed through it evaluates against the same commit timestamp, no
/// matter how many writers commit in between. Move-only; the pin releases
/// (and reclamation may proceed past its timestamp) on destruction.
/// SELECT-only by construction — mutations go through Database::execute.
class ReadView {
 public:
  ReadView() = default;
  ReadView(ReadView&&) noexcept = default;
  ReadView& operator=(ReadView&&) noexcept = default;

  /// The view's commit timestamp (== the last LSN it observes when durable).
  [[nodiscard]] std::uint64_t ts() const { return pin_.ts(); }
  [[nodiscard]] explicit operator bool() const { return db_ != nullptr; }

  /// Executes a prepared SELECT against the pinned view, with one value
  /// per `?`. Throws StateError for non-SELECT statements.
  ResultSet execute(const Prepared& statement, std::span<const Value> params = {});
  ResultSet execute(const Prepared& statement, std::initializer_list<Value> params) {
    return execute(statement, std::span<const Value>(params.begin(), params.size()));
  }
  /// Ad-hoc SQL text, prepared through the Database's statement cache.
  ResultSet execute(std::string_view sql, std::span<const Value> params = {});

 private:
  friend class Database;
  Database* db_ = nullptr;
  ReaderRegistry::Pin pin_;
  const Catalog* catalog_ = nullptr;
};

}  // namespace rocks::sqldb
