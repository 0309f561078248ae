// Table storage for the mini SQL engine — multi-versioned (DESIGN.md §13).
//
// Rows live in append-only slots holding newest-first version chains
// (sqldb/mvcc.hpp). The writer side — insert/update_row/erase_rows, index
// maintenance, commit stamping, reclamation — is serialized by the
// Database's exclusive lock exactly as before. The reader side is new:
// Table::Reader evaluates a point-in-time view at a commit timestamp
// without any lock, against storage the writer only ever grows or
// atomically republishes.
//
// Two invariants carry the old engine's external contracts:
//
//   1. Slot order == historical row order. Inserts append slots, deletes
//      remove positions from the live list without reordering, and slots
//      are never reused — so enumerating slots ascending reproduces the
//      row order the old contiguous rows_ vector had, keeping SELECT scan
//      emission, probe_rows ordering, and dump_state() byte-identical.
//   2. The live list (position -> slot) IS the old row indexing. WAL
//      records address rows positionally (row_index / row_indexes);
//      live_row(i) resolves those positions against the current state, so
//      replay applies old logs bit-for-bit.
//
// Hash indexes are per-column bucket arrays of (key, slot) entries built
// over *all* versions and never pruned in place: a probe may surface
// slots whose visible row no longer carries the key (stale entries, or a
// version invisible at the reader's ts), so every probe re-checks the
// visible row's key — the same "index consumes the conjunct" semantics
// the planner always had. Arrays are republished wholesale on growth or
// post-reclamation staleness; superseded arrays and slot directories are
// retained until the table dies (bounded by a geometric series), which is
// what lets readers hold raw pointers with no refcount traffic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sqldb/mvcc.hpp"
#include "sqldb/value.hpp"

namespace rocks::sqldb {

struct ColumnDef {
  std::string name;
  Type type = Type::kText;
  bool primary_key = false;
  bool auto_increment = false;
};

class Table {
 public:
  Table(std::string name, std::vector<ColumnDef> columns);
  ~Table();
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<ColumnDef>& columns() const { return columns_; }

  /// Index of a column by (case-insensitive) name; nullopt when unknown.
  [[nodiscard]] std::optional<std::size_t> column_index(std::string_view name) const;

  /// Index of the PRIMARY KEY column, if the table declares one. The change
  /// journal uses it to stamp row identity onto change records.
  [[nodiscard]] std::optional<std::size_t> primary_key_column() const;

  // --- writer side (requires the Database's exclusive lock) ----------------

  /// Inserts a full-width row; AUTO_INCREMENT columns left NULL are
  /// assigned the next sequence value. Values are coerced to column types
  /// (int text -> int, etc.). The new version is uncommitted (invisible to
  /// every reader) until commit_pending() stamps it. Returns the row's
  /// live position.
  std::size_t insert(Row row);

  /// Appends a snapshot row verbatim — no coercion, no AUTO_INCREMENT
  /// assignment — already committed (begin_ts 0, the base state every read
  /// timestamp sees). insert() would be wrong here: an image written before
  /// UPDATE coerced may hold a value coercion would alter, and recovery
  /// must reproduce that image byte-for-byte; the cursor comes from the
  /// image too.
  std::size_t restore_row(Row row);

  /// The engine's UPDATE path: publishes a new version of the row at
  /// `position` with `cells` (column, value) overwrites applied. Values are
  /// coerced to column types and a key set on an AUTO_INCREMENT column
  /// advances the cursor, as in insert(); on a throw the row is unchanged.
  /// The old version stays visible to readers until the commit stamp
  /// retires it.
  void update_row(std::size_t position, const std::vector<std::pair<std::size_t, Value>>& cells);

  /// Removes the rows at `sorted_positions` (ascending) from the live set.
  /// Their final versions stay visible to pinned readers until stamped and
  /// reclaimed. Surviving rows keep their relative order (invariant 1).
  void erase_rows(const std::vector<std::size_t>& sorted_positions);

  /// Current committed+pending row of a live position (WAL replay and the
  /// UPDATE/DELETE scans address rows positionally).
  [[nodiscard]] const Row& live_row(std::size_t position) const;
  /// Writer-exact live row count.
  [[nodiscard]] std::size_t live_size() const { return live_.size(); }

  /// Writer-side index probe: the live positions whose *current* row has
  /// `column` == `key`, ascending — exactly the rows the UPDATE/DELETE scan
  /// with `column = key` would visit, in the same order. Stale entries
  /// (superseded keys, dead slots) are filtered by re-checking the current
  /// row, like Reader::probe_rows. Requires an index on the column
  /// (StateError otherwise); a NULL key matches nothing.
  [[nodiscard]] std::vector<std::size_t> probe_positions(std::size_t column,
                                                         const Value& key) const;

  /// Stamps every version this statement created (begin_ts) or superseded
  /// (end_ts) with the statement's commit timestamp and queues superseded
  /// versions for reclamation. Called once per committed statement — also
  /// on the partial-failure path, since this engine has no rollback.
  void commit_pending(std::uint64_t ts);

  /// Frees versions no live read view can reach (see mvcc.hpp for the two
  /// safety gates). Returns the number of versions freed.
  std::size_t reclaim(const ReaderRegistry::Horizon& horizon, const ReaderRegistry& registry);

  // --- hash indexes --------------------------------------------------------
  /// Builds a hash index over `column` (idempotent). Throws LookupError on
  /// an unknown column. PRIMARY KEY columns are indexed automatically.
  /// Writer side; the array is built over every existing version so a
  /// reader pinned at any timestamp probes correctly.
  void create_index(std::string_view column);
  /// Lock-free: probed by the planner on the read path.
  [[nodiscard]] bool has_index_on(std::size_t column) const;
  /// Names of every indexed column, in creation order (dump_state relies
  /// on the order being stable). Lock-free.
  [[nodiscard]] std::vector<std::string> indexed_columns() const;

  // --- DDL visibility (the catalog analogue of row versioning) -------------
  void stamp_created(std::uint64_t ts) {
    created_ts_.store(ts, std::memory_order_seq_cst);
  }
  void stamp_dropped(std::uint64_t ts) {
    dropped_ts_.store(ts, std::memory_order_seq_cst);
  }
  [[nodiscard]] std::uint64_t dropped_ts() const {
    return dropped_ts_.load(std::memory_order_seq_cst);
  }
  [[nodiscard]] bool visible_at(std::uint64_t ts) const {
    return created_ts_.load(std::memory_order_seq_cst) <= ts &&
           ts < dropped_ts_.load(std::memory_order_seq_cst);
  }

  // --- durability hooks (DESIGN.md §11) ------------------------------------
  /// The AUTO_INCREMENT sequence cursor. Snapshots persist it and recovery
  /// restores it, because it is not derivable from the surviving rows (the
  /// highest-id row may have been deleted). Atomic so dump_state() can read
  /// it without the table lock.
  [[nodiscard]] std::int64_t next_auto() const {
    return next_auto_.load(std::memory_order_seq_cst);
  }
  void set_next_auto(std::int64_t next) { next_auto_.store(next, std::memory_order_seq_cst); }

  // --- observability (cluster-status --engine, bench_mvcc) -----------------
  struct Stats {
    std::size_t live_rows = 0;        // rows visible to a fresh reader
    std::size_t slots = 0;            // allocated (live + dead, never reused)
    std::size_t dead_slots = 0;       // fully reclaimed identities
    std::size_t versions = 0;         // version nodes currently linked
    std::size_t retired_pending = 0;  // superseded, awaiting the ts horizon
    std::size_t limbo_versions = 0;   // unlinked, awaiting walker drain
    std::uint64_t reclaimed = 0;      // versions freed over the table's life
    std::size_t max_chain = 0;
    std::array<std::size_t, 9> chain_histogram{};  // [i] = chains of length
                                                   // i+1; [8] = length > 8
  };
  /// Writer side (walks chains).
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::uint64_t versions_reclaimed() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }
  /// Lock-free live-count estimate (planner cost gates, status).
  [[nodiscard]] std::size_t live_estimate() const {
    return live_count_.load(std::memory_order_relaxed);
  }

  // --- reader side (lock-free) ---------------------------------------------
  /// A point-in-time view of this table at commit timestamp `ts`. The
  /// caller must hold a ReaderRegistry pin at (or below) `ts` for the
  /// Reader's whole lifetime, and must not use returned Row pointers after
  /// releasing the pin.
  class Reader {
   public:
    Reader(const Table& table, std::uint64_t ts);

    /// The row of `slot` visible at the view's ts, or null.
    [[nodiscard]] const Row* visible(std::uint32_t slot) const;
    /// Every visible row, in slot (== historical row) order.
    [[nodiscard]] std::vector<const Row*> visible_rows() const;
    /// Visible rows whose `column` equals `key`, in slot order — exactly
    /// the rows a full scan with `column = key` would visit. Requires an
    /// index on the column (StateError otherwise); a NULL key matches
    /// nothing (SQL '=' semantics).
    [[nodiscard]] std::vector<const Row*> probe_rows(std::size_t column, const Value& key) const;
    [[nodiscard]] std::uint64_t ts() const { return ts_; }

   private:
    const Table* table_;
    std::uint64_t ts_;
    const SlotDirectory* directory_;  // the snapshot this view iterates
  };
  [[nodiscard]] Reader reader(std::uint64_t ts) const { return Reader(*this, ts); }

 private:
  friend class Reader;

  /// One bucket-chained hash entry. `next` is written only before the
  /// entry is published into its bucket, so readers see it immutable.
  struct IndexEntry {
    Value key;
    std::uint32_t slot = 0;
    IndexEntry* next = nullptr;
  };
  /// One published index array. The writer appends entries in place
  /// (publishing each via its bucket head); readers walk bucket chains.
  /// The deque arena keeps entry addresses stable across appends.
  struct IndexArray {
    explicit IndexArray(std::size_t bucket_count) : buckets(bucket_count) {}
    std::vector<std::atomic<IndexEntry*>> buckets;  // size is a power of two
    std::deque<IndexEntry> arena;
    std::uint64_t created_seq = 0;  // creation order, for indexed_columns()
  };
  struct ColumnIndex {
    std::atomic<const IndexArray*> published{nullptr};
    IndexArray* current = nullptr;  // same object, writer-mutable
  };

  static Value coerce(const Value& value, Type type);
  /// The AUTO_INCREMENT cursor after a key set by hand on that column:
  /// past the key, never backwards; a NULL key leaves it. insert() and
  /// update_row() both advance through here.
  [[nodiscard]] static std::int64_t next_auto_after(const Value& key, std::int64_t cursor);
  [[nodiscard]] std::uint32_t allocate_slot();
  [[nodiscard]] RowSlot& slot_ref(std::uint32_t slot) const;
  void index_insert(std::size_t column, const Value& key, std::uint32_t slot);
  IndexArray* build_index_array(std::size_t column, std::size_t min_buckets);
  void publish_index(std::size_t column, IndexArray* array);
  void maybe_rebuild_stale_indexes();
  std::size_t free_chain(RowVersion* version);

  std::string name_;
  std::vector<ColumnDef> columns_;

  // Slot storage. Superseded directories are retained until destruction;
  // the chunks they share are refcounted, so retention costs pointers, not
  // row data.
  std::vector<std::unique_ptr<const SlotDirectory>> directory_storage_;
  std::atomic<const SlotDirectory*> directory_{nullptr};
  std::size_t slots_used_ = 0;

  std::vector<std::uint32_t> live_;  // position -> slot, writer-side
  std::atomic<std::size_t> live_count_{0};
  /// slot -> live position (kNoPosition when the slot's row left the live
  /// set) — what lets probe_positions answer in O(hits) instead of O(live).
  static constexpr std::size_t kNoPosition = ~std::size_t{0};
  std::vector<std::size_t> slot_position_;

  std::vector<ColumnIndex> indexes_;  // per column; sized once, never grown
  std::vector<std::unique_ptr<IndexArray>> index_storage_;  // kept until death
  std::uint64_t index_seq_ = 0;

  // Commit pipeline (writer-side).
  std::vector<RowVersion*> pending_begin_;                    // created this stmt
  std::vector<std::pair<std::uint32_t, RowVersion*>> pending_end_;  // superseded
  struct Retired {
    std::uint32_t slot = 0;
    std::uint64_t end_ts = 0;
  };
  std::deque<Retired> retired_;  // FIFO: end_ts is monotone per table
  struct Limbo {
    std::uint64_t reg = 0;  // registration stamp taken after the unlink
    RowVersion* chain = nullptr;
    std::size_t count = 0;
  };
  std::vector<Limbo> limbo_;

  std::size_t versions_ = 0;    // version nodes currently linked
  std::size_t dead_slots_ = 0;  // heads unlinked (row identity gone)
  std::atomic<std::uint64_t> reclaimed_{0};

  std::atomic<std::int64_t> next_auto_{1};
  std::atomic<std::uint64_t> created_ts_{kTsUncommitted};
  std::atomic<std::uint64_t> dropped_ts_{kTsInfinity};
};

}  // namespace rocks::sqldb
