// Write-ahead log for the configuration database (DESIGN.md §11).
//
// The paper's frontend keeps the whole cluster's identity in MySQL; ours
// kept it in RAM, so a frontend crash forgot every insert-ethers
// registration. The WAL closes that gap: every committed DML/DDL statement
// appends one record per row-level change — the same granularity the
// ChangeJournal records, hooked off the same commit point, so WAL replay
// reproduces table contents AND bus revisions in lockstep.
//
// Records are *physical*: an INSERT logs the post-coercion row (with its
// assigned AUTO_INCREMENT key), an UPDATE logs (row index, changed cells),
// a DELETE logs the doomed row indexes. Replay applies them straight to
// Table storage — deterministic and byte-identical, because the base state
// a record applies to is pinned by its LSN (a global, gapless sequence
// number): a snapshot remembers the last LSN it contains, replay skips
// records at or below it, and a gap in the sequence (only possible when
// data loss already happened) stops replay rather than corrupting.
//
// On-disk format (all little-endian, see support/binary.hpp):
//   file  := record*
//   record := u32 payload_len | u32 crc32(payload) | payload
//   payload := u64 lsn | u8 op | str table | op-specific fields
// A torn tail — a partial record, or one whose CRC fails — ends the log:
// read_wal() reports every record before it and the byte offset where
// validity ends, and recovery truncates the file there (crash-safe: the
// tail was never acknowledged as committed).
//
// Group commit: the writer buffers serialized records and flushes once per
// `group_commit` committed statements (1 = every statement is durable when
// execute() returns). Batching amortizes the append under registration
// bursts at the cost of the unflushed tail on a crash — a documented,
// bounded loss window, never an inconsistency.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sqldb/table.hpp"
#include "sqldb/value.hpp"
#include "support/binary.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::sqldb {

// Shared Value/ColumnDef wire codec (WAL records and snapshots use the same
// encoding, so a row round-trips identically through either path).
void encode_value(support::BinaryWriter& out, const Value& value);
[[nodiscard]] Value decode_value(support::BinaryReader& in);
void encode_column(support::BinaryWriter& out, const ColumnDef& column);
[[nodiscard]] ColumnDef decode_column(support::BinaryReader& in);

enum class WalOp : std::uint8_t {
  kInsert = 1,       // append `row` to `table`
  kUpdate = 2,       // set `cells` of row `row_index` in `table`
  kDelete = 3,       // erase `row_indexes` (ascending) from `table`
  kCreateTable = 4,  // create `table` with `schema`
  kDropTable = 5,    // drop `table`
  kCreateIndex = 6,  // create index on `column` of `table`
};

struct WalRecord {
  std::uint64_t lsn = 0;
  WalOp op = WalOp::kInsert;
  /// Statement-commit marker: set on the last record of each statement.
  /// Replay applies records in whole statements only — a torn flush that
  /// splits a multi-record statement (one UPDATE touching many rows) drops
  /// the unterminated tail group, so statement atomicity survives any
  /// crash, not just crashes between statements.
  bool commit = false;
  std::string table;

  Row row{};                                          // kInsert
  std::size_t row_index = 0;                          // kUpdate
  std::vector<std::pair<std::size_t, Value>> cells{}; // kUpdate
  std::vector<std::size_t> row_indexes{};             // kDelete
  std::vector<ColumnDef> schema{};                    // kCreateTable
  std::string column{};                               // kCreateIndex
};

/// Serializes one record, framing (length + CRC) included.
[[nodiscard]] std::string encode_wal_record(const WalRecord& record);

struct WalReadResult {
  std::vector<WalRecord> records;  // every valid record, in file order
  std::vector<std::size_t> ends;   // ends[i]: offset where records[i]'s frame ends
  std::uint64_t valid_bytes = 0;   // offset where the valid prefix ends
  bool torn = false;               // a partial/corrupt tail was found after valid_bytes

  /// Where records[i]'s frame starts (valid_bytes for i == size()): callers
  /// slice the original bytes instead of re-encoding a record.
  [[nodiscard]] std::size_t frame_start(std::size_t i) const { return i == 0 ? 0 : ends[i - 1]; }
};

/// Decodes a WAL image, stopping cleanly at the first torn or corrupt
/// record. Never throws on bad framing — a damaged tail is an expected
/// crash artifact, reported rather than fatal.
[[nodiscard]] WalReadResult read_wal(std::string_view bytes);

/// One whole committed statement, as framed bytes ready to re-append or
/// ship: every record of the statement (the last one carries the commit
/// marker), plus its LSN range.
struct WalGroup {
  std::uint64_t first_lsn = 0;
  std::uint64_t last_lsn = 0;
  std::string bytes;  // concatenated framed records (length | crc | payload)
};

/// The streaming cursor over a WAL image (DESIGN.md §12.2): splits `bytes`
/// into committed statement groups and returns those whose last LSN is
/// above `floor` — exactly what a leader ships to a follower acked through
/// `floor`. A torn tail and a trailing group with no commit marker are
/// dropped (neither was ever acknowledged). Each group is a slice of
/// `bytes`, so shipped groups replay the same way local recovery would.
[[nodiscard]] std::vector<WalGroup> wal_groups_after(std::string_view bytes,
                                                     std::uint64_t floor);

/// Appends records to the log file with group-commit batching. All calls
/// must be externally serialized (the Database holds its exclusive table
/// lock across append + commit), matching WAL order to commit order.
class WalWriter {
 public:
  WalWriter(vfs::FileSystem& fs, std::string path) : fs_(&fs), path_(std::move(path)) {}

  /// Buffers one record (already LSN-stamped by the caller): the one place
  /// a WAL frame is encoded.
  void append(const WalRecord& record);
  /// Buffers one already-framed record verbatim (a replica's shipped frames).
  void append_frame(std::uint64_t lsn, std::string_view frame);
  /// The frames buffered since the last commit(), as they will reach disk.
  [[nodiscard]] std::string_view statement_bytes() const {
    return std::string_view(pending_).substr(statement_start_);
  }

  /// Marks the end of one committed statement; flushes when the batch
  /// policy says so. Crash points: "wal.flush.before", "wal.flush.torn",
  /// "wal.flush.after".
  void commit();

  /// Forces the buffer to disk (group-commit barrier; also used before a
  /// snapshot and by Database::wal_flush()). An IO failure surfaces as
  /// IoError naming the buffered LSN range that did NOT become durable;
  /// the buffer is kept intact so a later flush retries the same bytes —
  /// callers (the frontend's durability barrier) must refuse to
  /// acknowledge work until a flush succeeds.
  void flush();

  /// Statements per flush; 1 = synchronous commit.
  void set_group_commit(std::size_t batch) { group_commit_ = batch == 0 ? 1 : batch; }
  [[nodiscard]] std::size_t group_commit() const { return group_commit_; }

  /// Empties the buffer and truncates the file (snapshot just absorbed it).
  void reset();

  /// Truncates only what a snapshot absorbed: rewrites the file as the byte
  /// suffix of records with lsn > `floor` (statements that committed while
  /// the zero-pause checkpoint was serializing). Publication is temp file +
  /// atomic rename, so a crash mid-rewrite leaves the old file intact. The
  /// unflushed buffer is untouched — its records are all above the floor by
  /// construction (the checkpoint flushed before fixing it).
  void reset_through(std::uint64_t floor);

  [[nodiscard]] const std::string& path() const { return path_; }

  // Observability (tests, bench_durability).
  [[nodiscard]] std::uint64_t records_appended() const { return records_appended_; }
  [[nodiscard]] std::uint64_t flushes() const { return flushes_; }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::size_t pending_bytes() const { return pending_.size(); }
  /// Flush attempts that failed with an IO error (the buffer survived).
  [[nodiscard]] std::uint64_t flush_failures() const { return flush_failures_; }

 private:
  vfs::FileSystem* fs_;
  std::string path_;
  std::string pending_;                 // serialized, unflushed records
  std::size_t statement_start_ = 0;     // where the uncommitted statement starts in pending_
  std::size_t pending_statements_ = 0;  // commits since last flush
  // LSN range of the buffered records; 0/0 when the buffer is empty. Names
  // the exact records an IO failure left non-durable.
  std::uint64_t pending_first_lsn_ = 0;
  std::uint64_t pending_last_lsn_ = 0;
  std::size_t group_commit_ = 1;
  std::uint64_t records_appended_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t flush_failures_ = 0;
  std::uint64_t bytes_written_ = 0;
};

}  // namespace rocks::sqldb
