// Incremental report rendering (DESIGN.md §10).
//
// The paper's configuration files are all "header + one line per database
// row" reports. A full render is O(cluster): every node row is re-queried
// and re-formatted after every change. IncrementalReport instead keeps the
// rendered lines in a map ordered by the report's sort key and applies
// journal deltas — a single node registration re-renders one line, not ten
// thousand — while remaining byte-identical to the full render (asserted in
// tests for every spec).
//
// A report consumes the change journal of one *driving* table, whose
// primary keys identify lines. Other tables the report joins against are
// declared as rescan tables: any change to them forces a full rebuild
// (joins do not map 1:1 onto lines, so deltas cannot be applied by key).
// Truncated journals, NULL-PK deltas, and the first render also rebuild.
//
// Delta application is idempotent: each record re-fetches the row's current
// state by primary key, so replaying a suffix of the journal twice (the
// cursor is only advanced to the delta's revision, while the re-fetch may
// observe newer commits) converges instead of corrupting.
//
// The journal loop itself — cursor, since(), rebuild when the journal cannot
// say what changed, re-fetch through one pinned read view — is JournalCursor,
// shared with the DHCP binding push and insert-ethers' allocator (DESIGN.md
// §10.3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "sqldb/engine.hpp"

namespace rocks::services {

/// Lexicographic Value-row ordering — the ORDER BY of the report's full
/// query, expressed over extracted sort keys.
struct SortKeyLess {
  bool operator()(const sqldb::Row& a, const sqldb::Row& b) const;
};

/// One consumer's cursor on one table's change journal: the loop every
/// journal-fed view runs. catch_up() brings the view up to date either by
/// `rebuild` (a full scan) or by `apply` per journal record, against one
/// pinned read view. It rebuilds on the first call, after invalidate(), when
/// the journal was truncated, when a rescan table moved, and when `apply`
/// returns false ("this record cannot be applied
/// incrementally"). A throw from either callback leaves the cursor
/// unprimed, so the next call rebuilds. Views must tolerate a record applied
/// twice: a re-fetch may already see commits the cursor has not reached.
class JournalCursor {
 public:
  using Rebuild = std::function<void(sqldb::Database&)>;
  using Apply = std::function<bool(sqldb::ReadView&, const sqldb::ChangeRecord&)>;

  explicit JournalCursor(std::string table, std::vector<std::string> rescan_tables = {})
      : table_(std::move(table)), rescan_tables_(std::move(rescan_tables)) {}

  /// Forces the next catch_up() to rebuild.
  void invalidate() { primed_ = false; }

  /// Returns how many records were applied (0 after a rebuild).
  std::size_t catch_up(sqldb::Database& db, const Rebuild& rebuild, const Apply& apply);

 private:
  std::string table_;
  std::vector<std::string> rescan_tables_;
  bool primed_ = false;
  std::uint64_t cursor_ = 0;                   // table_'s journal revision
  std::vector<std::uint64_t> rescan_cursors_;  // parallel to rescan_tables_
};

class IncrementalReport {
 public:
  struct Spec {
    /// Static preamble emitted before the per-row lines.
    std::string header;
    /// Driving table: journal channel whose (op, PK) deltas map to lines.
    std::string table;
    /// Tables the report reads but is not keyed by; any revision change
    /// forces a full rebuild.
    std::vector<std::string> rescan_tables;
    /// Full query; must ORDER BY the same key `key_of` extracts.
    std::string select_all;
    /// SQL selecting the same columns as select_all for the primary key
    /// bound to its one `?`; zero result rows mean "this row renders no
    /// line" (filtered out).
    std::string select_one;
    /// Sort key of a result row, including a unique tie-break column (the
    /// PK) so the map order reproduces the full query's ORDER BY exactly.
    std::function<sqldb::Row(const sqldb::ResultSet&, std::size_t)> key_of;
    /// Rendered line for a result row ("" = row contributes no text).
    std::function<std::string(const sqldb::ResultSet&, std::size_t)> render_row;
  };

  explicit IncrementalReport(Spec spec)
      : cursor_(spec.table, spec.rescan_tables), spec_(std::move(spec)) {}

  /// Renders the report, incrementally when the journal permits. Matches
  /// ServiceManager::Generator once wrapped in a lambda. Not re-entrant.
  [[nodiscard]] std::string render(sqldb::Database& db);

  // Observability: how renders were satisfied (tests assert minimality).
  [[nodiscard]] std::uint64_t full_rebuilds() const { return full_rebuilds_; }
  [[nodiscard]] std::uint64_t delta_applies() const { return delta_applies_; }

 private:
  struct Entry {
    sqldb::Row key;
    std::string line;
  };

  void rebuild(sqldb::Database& db);
  /// Re-fetches one primary key and inserts/replaces/removes its line.
  void apply_one(sqldb::ReadView& view, const sqldb::ChangeRecord& record);
  void upsert(const sqldb::Value& pk, sqldb::Row key, std::string line);
  void erase_pk(const sqldb::Value& pk);

  JournalCursor cursor_;
  Spec spec_;
  // Both queries, prepared on the first render and held after.
  sqldb::Database::PreparedStatement select_all_, select_one_;

  std::map<sqldb::Row, std::string, SortKeyLess> lines_;  // sort key -> line
  std::unordered_map<sqldb::Value, sqldb::Row, sqldb::ValueHash, sqldb::ValueEqual>
      key_by_pk_;  // pk -> its current sort key in lines_

  std::size_t last_render_size_ = 0;  // sizes renders' reserve; sticky is fine
  std::uint64_t full_rebuilds_ = 0;
  std::uint64_t delta_applies_ = 0;
};

}  // namespace rocks::services
