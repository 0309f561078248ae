// The durable configuration store (DESIGN.md §11): CRC/WAL/snapshot codecs,
// recovery round trips, corruption handling, group commit, the crash-point
// sweep (byte-identical recovery from a simulated power cut at every
// registered point), atomic config-file publication, and insert-ethers
// registration crash safety.
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "services/manager.hpp"
#include "sqldb/engine.hpp"
#include "sqldb/snapshot.hpp"
#include "sqldb/wal.hpp"
#include "support/crashpoint.hpp"
#include "support/crc.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/path.hpp"

namespace rocks {
namespace {

using sqldb::Database;
using sqldb::RecoveryReport;
using sqldb::WalOp;
using sqldb::WalRecord;
using support::CrashError;
using support::CrashPoints;

constexpr const char* kDir = "/state/db";

class DurabilityTest : public ::testing::Test {
 protected:
  void TearDown() override { CrashPoints::instance().disarm_all(); }
};

/// Executes `statements` against a fresh in-RAM database and dumps it — the
/// ground truth a recovered store must match byte-for-byte (dump_state
/// covers schema, indexes, AUTO_INCREMENT cursors, rows, and journal
/// channel revisions).
std::string replay_dump(const std::vector<std::string>& statements) {
  Database db;
  for (const std::string& statement : statements) db.execute(statement);
  return db.dump_state();
}

// --- CRC32 -------------------------------------------------------------------

TEST_F(DurabilityTest, Crc32MatchesKnownVectorsAndChains) {
  EXPECT_EQ(support::crc32(""), 0u);
  EXPECT_EQ(support::crc32("123456789"), 0xCBF43926u);  // the standard check value
  const std::string data = "the quick brown fox";
  EXPECT_EQ(support::crc32(data.substr(10), support::crc32(data.substr(0, 10))),
            support::crc32(data));
  EXPECT_NE(support::crc32("a"), support::crc32("b"));
}

// --- crash points ------------------------------------------------------------

TEST_F(DurabilityTest, CrashPointsArmCountdownAndSelfDisarm) {
  auto& points = CrashPoints::instance();
  support::crash_point("test.point");  // unarmed: registers, does nothing
  const auto names = points.registered();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.point"), names.end());

  points.arm("test.point", 3);
  support::crash_point("test.point");
  support::crash_point("test.point");
  EXPECT_THROW(support::crash_point("test.point"), CrashError);
  // One crash per arm: the point disarmed itself.
  support::crash_point("test.point");
  EXPECT_GE(points.hits("test.point"), 5u);
}

// --- WAL codec ---------------------------------------------------------------

TEST_F(DurabilityTest, WalRecordsRoundTripThroughEveryOp) {
  std::vector<WalRecord> in(4);
  in[0].lsn = 1;
  in[0].op = WalOp::kCreateTable;
  in[0].commit = true;
  in[0].table = "nodes";
  in[0].schema = {{"id", sqldb::Type::kInt, true, true}, {"name", sqldb::Type::kText}};
  in[1].lsn = 2;
  in[1].op = WalOp::kInsert;
  in[1].table = "nodes";
  in[1].row = {sqldb::Value(std::int64_t{1}), sqldb::Value("compute-0-0")};
  in[2].lsn = 3;
  in[2].op = WalOp::kUpdate;
  in[2].commit = true;
  in[2].table = "nodes";
  in[2].row_index = 0;
  in[2].cells = {{1, sqldb::Value("renamed")}, {0, sqldb::Value::null()}};
  in[3].lsn = 4;
  in[3].op = WalOp::kDelete;
  in[3].commit = true;
  in[3].table = "nodes";
  in[3].row_indexes = {0, 2, 5};

  std::string bytes;
  for (const WalRecord& record : in) bytes += sqldb::encode_wal_record(record);
  const auto out = sqldb::read_wal(bytes);
  EXPECT_FALSE(out.torn);
  EXPECT_EQ(out.valid_bytes, bytes.size());
  ASSERT_EQ(out.records.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out.records[i].lsn, in[i].lsn);
    EXPECT_EQ(out.records[i].op, in[i].op);
    EXPECT_EQ(out.records[i].commit, in[i].commit);
    EXPECT_EQ(out.records[i].table, in[i].table);
  }
  EXPECT_EQ(out.records[1].row.size(), 2u);
  EXPECT_EQ(out.records[1].row[1].as_text(), "compute-0-0");
  EXPECT_EQ(out.records[2].cells.size(), 2u);
  EXPECT_TRUE(out.records[2].cells[1].second.is_null());
  EXPECT_EQ(out.records[3].row_indexes, (std::vector<std::size_t>{0, 2, 5}));
  EXPECT_EQ(out.records[0].schema[0].name, "id");
  EXPECT_TRUE(out.records[0].schema[0].auto_increment);
}

TEST_F(DurabilityTest, WalReadStopsAtTornTail) {
  WalRecord record;
  record.op = WalOp::kInsert;
  record.table = "t";
  record.row = {sqldb::Value("v")};
  std::string bytes;
  for (std::uint64_t lsn = 1; lsn <= 3; ++lsn) {
    record.lsn = lsn;
    bytes += sqldb::encode_wal_record(record);
  }
  const std::size_t intact = bytes.size();
  record.lsn = 4;
  const std::string last = sqldb::encode_wal_record(record);
  bytes += last.substr(0, last.size() / 2);  // a power cut mid-append

  const auto out = sqldb::read_wal(bytes);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.records.size(), 3u);
  EXPECT_EQ(out.valid_bytes, intact);
}

TEST_F(DurabilityTest, WalReadStopsAtCorruptRecord) {
  WalRecord record;
  record.op = WalOp::kInsert;
  record.table = "t";
  record.row = {sqldb::Value("some payload bytes")};
  record.lsn = 1;
  std::string bytes = sqldb::encode_wal_record(record);
  const std::size_t first = bytes.size();
  record.lsn = 2;
  bytes += sqldb::encode_wal_record(record);
  record.lsn = 3;
  bytes += sqldb::encode_wal_record(record);

  bytes[first + 12] ^= 0x40;  // flip one bit inside record 2's payload
  const auto out = sqldb::read_wal(bytes);
  EXPECT_TRUE(out.torn);
  EXPECT_EQ(out.records.size(), 1u);  // records after the corruption are gone
  EXPECT_EQ(out.valid_bytes, first);
}

// --- snapshot codec ----------------------------------------------------------

TEST_F(DurabilityTest, SnapshotRoundTripsAndRejectsCorruption) {
  sqldb::SnapshotData in;
  in.last_lsn = 42;
  in.seq = 7;
  sqldb::TableState table;
  table.name = "nodes";
  table.columns = {{"id", sqldb::Type::kInt, true, true}, {"name", sqldb::Type::kText}};
  table.indexed = {"id", "name"};
  table.next_auto = 9;
  table.rows = {{sqldb::Value(std::int64_t{1}), sqldb::Value("frontend-0")},
                {sqldb::Value(std::int64_t{2}), sqldb::Value::null()}};
  in.tables.push_back(table);
  in.channels = {{"nodes", 12}, {"kickstart.graph", 3}};

  const std::string bytes = sqldb::encode_snapshot(in);
  const auto out = sqldb::decode_snapshot(bytes);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->last_lsn, 42u);
  EXPECT_EQ(out->seq, 7u);
  ASSERT_EQ(out->tables.size(), 1u);
  EXPECT_EQ(out->tables[0].next_auto, 9);
  EXPECT_EQ(out->tables[0].indexed, (std::vector<std::string>{"id", "name"}));
  ASSERT_EQ(out->tables[0].rows.size(), 2u);
  EXPECT_TRUE(out->tables[0].rows[1][1].is_null());
  EXPECT_EQ(out->channels, in.channels);

  for (const std::size_t victim : {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[victim] ^= 0x01;
    EXPECT_FALSE(sqldb::decode_snapshot(corrupt).has_value()) << "flipped byte " << victim;
  }
  EXPECT_FALSE(sqldb::decode_snapshot(bytes.substr(0, bytes.size() - 5)).has_value());
  EXPECT_FALSE(sqldb::decode_snapshot("").has_value());
}

TEST_F(DurabilityTest, SnapshotFileNamesRoundTrip) {
  EXPECT_EQ(sqldb::parse_snapshot_file_name(sqldb::snapshot_file_name(17)), 17u);
  // Zero padding keeps lexicographic listing in sequence order.
  EXPECT_LT(sqldb::snapshot_file_name(9), sqldb::snapshot_file_name(10));
  EXPECT_FALSE(sqldb::parse_snapshot_file_name("snapshot.tmp").has_value());
  EXPECT_FALSE(sqldb::parse_snapshot_file_name("wal.log").has_value());
  EXPECT_FALSE(sqldb::parse_snapshot_file_name("snapshot-12x.snap").has_value());
}

// --- database recovery round trips ------------------------------------------

const std::vector<std::string>& workload_statements() {
  static const std::vector<std::string> statements = {
      "CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, mac TEXT, name TEXT, ip TEXT)",
      "CREATE INDEX nodes_mac ON nodes (mac)",
      "INSERT INTO nodes (mac, name, ip) VALUES ('aa:00', 'compute-0-0', '10.1.1.2')",
      "INSERT INTO nodes (mac, name, ip) VALUES ('aa:01', 'compute-0-1', '10.1.1.3')",
      "INSERT INTO nodes (mac, name, ip) VALUES ('aa:02', 'compute-0-2', '10.1.1.4')",
      "UPDATE nodes SET ip = '10.9.9.9' WHERE name = 'compute-0-1'",
      "CREATE TABLE site (name TEXT, value TEXT)",
      "INSERT INTO site VALUES ('cluster', 'meteor'), ('owner', 'npaci')",
      "DELETE FROM nodes WHERE name = 'compute-0-0'",
      "INSERT INTO nodes (mac, name, ip) VALUES ('aa:03', 'compute-0-3', '10.1.1.5')",
      "UPDATE nodes SET ip = '10.2.2.2'",
      "DROP TABLE site",
      "CREATE TABLE site (name TEXT, value TEXT)",
      "INSERT INTO site VALUES ('cluster', 'rebuilt')",
  };
  return statements;
}

TEST_F(DurabilityTest, WalReplayRebuildsByteIdenticalState) {
  vfs::FileSystem disk;
  std::string expected;
  {
    Database db;
    const RecoveryReport fresh = db.open_durable(disk, kDir);
    EXPECT_FALSE(fresh.snapshot_loaded);
    EXPECT_EQ(fresh.last_lsn, 0u);
    for (const std::string& statement : workload_statements()) db.execute(statement);
    expected = db.dump_state();
  }
  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_GT(report.wal_records_replayed, workload_statements().size() / 2);
  EXPECT_FALSE(report.wal_torn);
  EXPECT_EQ(report.wal_records_dropped, 0u);
  EXPECT_EQ(recovered.dump_state(), expected);
  EXPECT_EQ(recovered.dump_state(), replay_dump(workload_statements()));

  // The recovered store keeps working: new commits land in the same WAL and
  // survive another restart.
  recovered.execute("INSERT INTO site VALUES ('epoch', '2')");
  const std::string extended = recovered.dump_state();
  Database again;
  again.open_durable(disk, kDir);
  EXPECT_EQ(again.dump_state(), extended);
}

TEST_F(DurabilityTest, SnapshotPlusWalTailRecoversExactly) {
  vfs::FileSystem disk;
  std::string expected;
  {
    Database db;
    db.open_durable(disk, kDir);
    const auto& statements = workload_statements();
    for (std::size_t i = 0; i < statements.size(); ++i) {
      db.execute(statements[i]);
      if (i == 7) {
        EXPECT_EQ(db.snapshot(), 1u);
      }
    }
    expected = db.dump_state();
  }
  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshot_seq, 1u);
  EXPECT_GT(report.wal_records_replayed, 0u);
  EXPECT_EQ(report.wal_records_skipped, 0u);  // snapshot reset the WAL
  EXPECT_EQ(recovered.dump_state(), expected);
}

TEST_F(DurabilityTest, AutoIncrementCursorSurvivesDeletedMax) {
  vfs::FileSystem disk;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
    for (int i = 0; i < 3; ++i) db.execute("INSERT INTO t (v) VALUES ('x')");
    db.execute("DELETE FROM t WHERE id = 3");
    db.snapshot();  // the cursor (4) is not derivable from surviving rows
  }
  Database recovered;
  recovered.open_durable(disk, kDir);
  recovered.execute("INSERT INTO t (v) VALUES ('y')");
  const auto rows = recovered.execute("SELECT id FROM t ORDER BY id");
  ASSERT_EQ(rows.row_count(), 3u);
  EXPECT_EQ(rows.rows[2][0].as_int(), 4);  // no id reuse
}

TEST_F(DurabilityTest, UncoercedUpdateValuesSurviveSnapshotVerbatim) {
  // Coercion leaves non-numeric TEXT in an INT column as it is; a snapshot
  // restore must not touch what a row holds (restore_row, not insert).
  vfs::FileSystem disk;
  std::string expected;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
    db.execute("INSERT INTO t VALUES (1, 10)");
    db.execute("UPDATE t SET v = 'not-a-number' WHERE id = 1");
    db.snapshot();
    db.execute("UPDATE t SET v = 3.5 WHERE id = 1");  // and via WAL replay
    expected = db.dump_state();
  }
  Database recovered;
  recovered.open_durable(disk, kDir);
  EXPECT_EQ(recovered.dump_state(), expected);
}

// --- UPDATE coerces like INSERT and advances AUTO_INCREMENT -------------------

/// Recovers a store from a copy of `disk` (the original keeps running).
std::string recovered_dump(const vfs::FileSystem& disk, const std::string& probe = "") {
  vfs::FileSystem copy;
  copy.copy_tree(disk, kDir, kDir);
  Database recovered;
  recovered.open_durable(copy, kDir);
  return probe.empty() ? recovered.dump_state() : recovered.execute(probe).render();
}

TEST_F(DurabilityTest, UpdateCoercesTextToIntLiveAndAfterRecovery) {
  vfs::FileSystem disk;
  Database db;
  db.open_durable(disk, kDir);
  db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  db.execute("INSERT INTO t VALUES (1, 10), (2, 9)");
  db.execute("UPDATE t SET v = '7' WHERE id = 1");
  const auto cell = db.execute("SELECT v FROM t WHERE id = 1");
  ASSERT_EQ(cell.row_count(), 1u);
  EXPECT_EQ(cell.rows[0][0].type(), sqldb::Type::kInt);
  EXPECT_EQ(cell.rows[0][0].as_int(), 7);
  // An INT 7 sorts below 9; a TEXT '7' would sort above every number.
  const std::string order = "SELECT id FROM t ORDER BY v DESC";
  EXPECT_EQ(db.execute(order).rows[0][0].as_int(), 2);
  const std::string live = db.dump_state();
  EXPECT_EQ(recovered_dump(disk), live);  // WAL replay
  EXPECT_EQ(recovered_dump(disk, order), db.execute(order).render());
  db.snapshot();
  EXPECT_EQ(recovered_dump(disk), live);  // snapshot restore
}

TEST_F(DurabilityTest, UpdateRefusesARealOutsideTheIntRangeLiveAndAfterRecovery) {
  vfs::FileSystem disk;
  Database db;
  db.open_durable(disk, kDir);
  db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)");
  db.execute("INSERT INTO t VALUES (1, 10)");
  EXPECT_THROW(db.execute("UPDATE t SET v = 100000000000000000000000.0 WHERE id = 1"), Error);
  EXPECT_THROW(db.execute("UPDATE t SET v = 9223372036854775808 WHERE id = 1"), Error);
  // -2^63 is INT64_MIN exactly, so it fits.
  db.execute("UPDATE t SET v = -9223372036854775808.0 WHERE id = 1");
  const auto cell = db.execute("SELECT v FROM t WHERE id = 1");
  EXPECT_EQ(cell.rows[0][0].type(), sqldb::Type::kInt);
  EXPECT_EQ(cell.rows[0][0].as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_THROW(db.execute("UPDATE t SET v = -100000000000000000000000.0"), Error);
  EXPECT_EQ(db.execute("SELECT v FROM t").rows[0][0].as_int(),
            std::numeric_limits<std::int64_t>::min());
  const std::string live = db.dump_state();
  EXPECT_EQ(recovered_dump(disk), live);
  db.snapshot();
  EXPECT_EQ(recovered_dump(disk), live);
}

TEST_F(DurabilityTest, KeyUpdateAdvancesAutoIncrementLiveReplayAndSnapshot) {
  vfs::FileSystem disk;
  Database db;
  db.open_durable(disk, kDir);
  db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  for (int i = 0; i < 3; ++i) db.execute("INSERT INTO t (v) VALUES ('x')");
  db.execute("UPDATE t SET id = 27 WHERE id = 2");
  db.execute("UPDATE t SET id = 5 WHERE id = 3");  // below the cursor: no move
  const std::string next = "INSERT INTO t (v) VALUES ('next')";
  const std::string probe = "SELECT id FROM t WHERE v = 'next'";
  const auto id_after = [&](vfs::FileSystem& image) {
    Database recovered;
    recovered.open_durable(image, kDir);
    recovered.execute(next);
    const auto rows = recovered.execute(probe);
    return rows.row_count() == 1 ? rows.rows[0][0].as_int() : -1;
  };
  vfs::FileSystem wal_only;  // the UPDATEs live only in the WAL
  wal_only.copy_tree(disk, kDir, kDir);
  db.snapshot();
  vfs::FileSystem snapshotted;  // the cursor lives in the snapshot
  snapshotted.copy_tree(disk, kDir, kDir);
  db.execute(next);
  ASSERT_EQ(db.execute(probe).row_count(), 1u);
  EXPECT_EQ(db.execute(probe).rows[0][0].as_int(), 28);
  EXPECT_EQ(id_after(wal_only), 28);
  EXPECT_EQ(id_after(snapshotted), 28);
  // The copies were taken by sharing; the live store's later writes did
  // not reach them, and theirs did not reach it.
  EXPECT_EQ(db.execute("SELECT id FROM t ORDER BY id").render(),
            recovered_dump(disk, "SELECT id FROM t ORDER BY id"));
  EXPECT_EQ(db.execute("SELECT id FROM t WHERE id = 28").row_count(), 1u);
}

// --- corruption & torn tails -------------------------------------------------

TEST_F(DurabilityTest, TornWalFlushDropsOnlyTheUnacknowledgedStatement) {
  vfs::FileSystem disk;
  std::string committed_dump;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
    db.execute("INSERT INTO t (v) VALUES ('kept')");
    committed_dump = db.dump_state();
    CrashPoints::instance().arm("wal.flush.torn");
    EXPECT_THROW(db.execute("INSERT INTO t (v) VALUES ('torn')"), CrashError);
  }
  CrashPoints::instance().disarm_all();
  const std::string wal_path = vfs::join(kDir, sqldb::kWalFileName);
  const std::string damaged = disk.read_file(wal_path);
  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  EXPECT_TRUE(report.wal_torn);
  EXPECT_EQ(recovered.dump_state(), committed_dump);
  // Repair cuts the file back; it never rewrites the surviving records.
  const std::string repaired = disk.read_file(wal_path);
  EXPECT_LT(repaired.size(), damaged.size());
  EXPECT_EQ(damaged.substr(0, repaired.size()), repaired);

  // The truncated log is clean again: append, restart, no divergence.
  recovered.execute("INSERT INTO t (v) VALUES ('after')");
  Database again;
  const RecoveryReport second = again.open_durable(disk, kDir);
  EXPECT_FALSE(second.wal_torn);
  EXPECT_EQ(again.dump_state(), recovered.dump_state());
}

TEST_F(DurabilityTest, BitFlipInWalTruncatesAtLastValidRecord) {
  vfs::FileSystem disk;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
    for (int i = 0; i < 5; ++i) db.execute("INSERT INTO t (v) VALUES ('row')");
  }
  const std::string wal_path = vfs::join(kDir, sqldb::kWalFileName);
  std::string bytes = disk.read_file(wal_path);
  bytes[bytes.size() * 3 / 4] ^= 0x10;  // bit rot somewhere in the later records
  const std::string damaged = bytes;
  disk.write_file(wal_path, std::move(bytes));

  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  EXPECT_TRUE(report.wal_torn);
  EXPECT_LT(report.wal_records_replayed, 6u);
  const std::string repaired = disk.read_file(wal_path);
  EXPECT_LT(repaired.size(), damaged.size());
  EXPECT_EQ(damaged.substr(0, repaired.size()), repaired);
  // Whatever survived is a valid prefix: same as replaying that many
  // statements from scratch.
  const auto rows = recovered.execute("SELECT id FROM t ORDER BY id");
  std::vector<std::string> prefix = {
      "CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)"};
  for (std::size_t i = 0; i < rows.row_count(); ++i)
    prefix.push_back("INSERT INTO t (v) VALUES ('row')");
  EXPECT_EQ(recovered.dump_state(), replay_dump(prefix));
}

TEST_F(DurabilityTest, CorruptNewestSnapshotFallsBackAndDropsGappedWal) {
  vfs::FileSystem disk;
  std::string state_a;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
    db.execute("INSERT INTO t (v) VALUES ('a')");
    state_a = db.dump_state();
    EXPECT_EQ(db.snapshot(), 1u);
    db.execute("INSERT INTO t (v) VALUES ('b')");
    EXPECT_EQ(db.snapshot(), 2u);
    db.execute("INSERT INTO t (v) VALUES ('c')");  // lives only in the WAL
  }
  // Bit-rot the newest snapshot.
  const std::string newest = vfs::join(kDir, sqldb::snapshot_file_name(2));
  std::string bytes = disk.read_file(newest);
  bytes[bytes.size() / 2] ^= 0x01;
  disk.write_file(newest, std::move(bytes));

  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshot_seq, 1u);
  EXPECT_EQ(report.snapshots_skipped, 1u);
  // The 'c' record presumes snapshot 2's state; applying it to snapshot 1
  // would corrupt, so the LSN gap drops it.
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(report.wal_records_dropped, 1u);
  EXPECT_EQ(recovered.dump_state(), state_a);
  // Sequence numbers keep moving forward past the corrupt file.
  EXPECT_EQ(recovered.snapshot(), 3u);
}

// --- group commit ------------------------------------------------------------

TEST_F(DurabilityTest, GroupCommitLosesOnlyTheUnflushedTail) {
  vfs::FileSystem disk;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.set_wal_group_commit(8);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
    for (int i = 0; i < 20; ++i) db.execute("INSERT INTO t (v) VALUES ('x')");
    // 21 commits, batch 8: flushed at 8 and 16; five statements buffered.
    EXPECT_EQ(db.wal_flushes(), 2u);
    EXPECT_EQ(db.wal_records_appended(), 21u);
  }  // crash: the buffer dies with the process
  Database recovered;
  recovered.open_durable(disk, kDir);
  EXPECT_EQ(recovered.execute("SELECT id FROM t").row_count(), 15u);  // 16 - CREATE

  // An explicit barrier makes the tail durable.
  recovered.set_wal_group_commit(8);
  for (int i = 0; i < 3; ++i) recovered.execute("INSERT INTO t (v) VALUES ('y')");
  recovered.wal_flush();
  Database again;
  again.open_durable(disk, kDir);
  EXPECT_EQ(again.dump_state(), recovered.dump_state());
}

// --- journal truncation floor (satellite fix) --------------------------------

TEST_F(DurabilityTest, BoundedChangelogRecordsTruncationFloor) {
  Database db;
  db.journal().set_capacity(4);
  db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  const std::uint64_t after_create = db.revision("t");
  for (int i = 0; i < 10; ++i) db.execute("INSERT INTO t (v) VALUES ('x')");

  const auto stale = db.since("t", after_create);
  EXPECT_TRUE(stale.truncated);
  EXPECT_EQ(stale.floor, db.journal().floor("t"));
  EXPECT_GT(stale.floor, after_create);  // the cursor is below the floor

  // A cursor at the floor is exactly servable: one record per revision up
  // to the head — since() and the floor agree on where incremental
  // consumption may resume.
  const auto fresh = db.since("t", stale.floor);
  EXPECT_FALSE(fresh.truncated);
  EXPECT_EQ(fresh.records.size(), stale.seq - stale.floor);
}

TEST_F(DurabilityTest, ReplayedBurstBeyondCapacityForcesRescanConsistently) {
  vfs::FileSystem disk;
  std::uint64_t pre_crash_cursor = 0;
  std::uint64_t pre_crash_revision = 0;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
    pre_crash_cursor = db.revision("t");
    for (int i = 0; i < 10; ++i) db.execute("INSERT INTO t (v) VALUES ('x')");
    pre_crash_revision = db.revision("t");
  }
  // Recover with a journal capacity smaller than the replayed burst: the
  // replay trims as it re-records, so the floor must rise above the
  // pre-crash cursor and force a full rescan — NOT silently serve a
  // partial delta.
  Database recovered;
  recovered.journal().set_capacity(4);
  recovered.open_durable(disk, kDir);
  EXPECT_EQ(recovered.revision("t"), pre_crash_revision);  // revisions in lockstep
  const auto delta = recovered.since("t", pre_crash_cursor);
  EXPECT_TRUE(delta.truncated);
  EXPECT_GE(delta.floor, pre_crash_revision - 4);
  EXPECT_EQ(delta.seq, pre_crash_revision);
  // And a snapshot-based recovery (no row records at all) floors at the
  // head: every pre-crash cursor rescans.
  recovered.snapshot();
  Database from_snapshot;
  from_snapshot.open_durable(disk, kDir);
  EXPECT_EQ(from_snapshot.journal().floor("t"), pre_crash_revision);
  EXPECT_TRUE(from_snapshot.since("t", pre_crash_cursor).truncated);
}

// --- the crash sweep ---------------------------------------------------------

struct SweepRun {
  std::vector<std::string> committed;      // statements that returned
  std::optional<std::string> failing;      // the statement a crash escaped from
  bool crashed = false;
};

SweepRun run_workload(vfs::FileSystem& disk) {
  SweepRun out;
  Database db;
  db.open_durable(disk, kDir);
  const auto& statements = workload_statements();
  for (std::size_t i = 0; i < statements.size(); ++i) {
    try {
      db.execute(statements[i]);
    } catch (const CrashError&) {
      out.crashed = true;
      out.failing = statements[i];
      return out;
    }
    out.committed.push_back(statements[i]);
    if (i == 7) {
      try {
        db.snapshot();  // a checkpoint mid-workload, so snapshot points run
      } catch (const CrashError&) {
        out.crashed = true;  // no failing statement: snapshot mutates nothing
        return out;
      }
    }
  }
  return out;
}

TEST_F(DurabilityTest, CrashSweepRecoversByteIdenticalAtEveryPoint) {
  auto& points = CrashPoints::instance();
  points.disarm_all();

  // Discovery: run the workload clean and collect every crash point it
  // crosses (hit counters move only for points actually on this path).
  std::map<std::string, std::uint64_t> hits_before;
  for (const std::string& name : points.registered())
    hits_before[name] = points.hits(name);
  {
    vfs::FileSystem disk;
    const SweepRun clean = run_workload(disk);
    ASSERT_FALSE(clean.crashed);
  }
  std::vector<std::string> sweep;
  for (const std::string& name : points.registered())
    if (points.hits(name) > hits_before[name]) sweep.push_back(name);
  // The catalog this sweep must at least cover (DESIGN.md §11.4).
  for (const char* required : {"wal.flush.before", "wal.flush.torn", "wal.flush.after",
                               "snapshot.write.before", "snapshot.write.after",
                               "snapshot.rename.after", "snapshot.retire.before"})
    EXPECT_NE(std::find(sweep.begin(), sweep.end(), required), sweep.end()) << required;

  int crashes = 0;
  for (const std::string& point : sweep) {
    for (const std::uint64_t countdown : {1u, 4u, 9u}) {
      vfs::FileSystem disk;
      points.arm(point, countdown);
      const SweepRun run = run_workload(disk);
      points.disarm_all();
      crashes += run.crashed ? 1 : 0;

      Database recovered;
      recovered.open_durable(disk, kDir);
      const std::string dump = recovered.dump_state();

      // Committed state is the floor; the failing statement may or may not
      // have reached the disk before the crash (crash-after-flush), but a
      // statement is all-or-nothing — anything else fails both candidates.
      const std::string without = replay_dump(run.committed);
      bool matched = dump == without;
      if (!matched && run.failing) {
        auto with = run.committed;
        with.push_back(*run.failing);
        matched = dump == replay_dump(with);
      }
      EXPECT_TRUE(matched) << "point=" << point << " countdown=" << countdown
                           << (run.crashed ? " (crashed)" : " (ran clean)");
    }
  }
  EXPECT_GT(crashes, 0);  // the sweep actually crashed something
}

// --- atomic config-file publication ------------------------------------------

TEST_F(DurabilityTest, ConfigFileReadersSeeOldOrNewNeverPartial) {
  Database db;
  db.execute("CREATE TABLE users (name TEXT, uid INT)");
  db.execute("INSERT INTO users VALUES ('root', 0)");
  services::ServiceManager manager;
  manager.register_service("passwd", "/etc/passwd",
                           [](Database& d) {
                             std::string out;
                             const auto rows =
                                 d.execute("SELECT name, uid FROM users ORDER BY uid");
                             for (const auto& row : rows.rows)
                               out += row[0].to_string() + ":" + row[1].to_string() + "\n";
                             return out;
                           },
                           {"users"});
  vfs::FileSystem fs;
  fs.mkdir_p("/etc");
  manager.regenerate(db, fs);
  const std::string old_content = fs.read_file("/etc/passwd");
  ASSERT_NE(old_content.find("root:0"), std::string::npos);

  db.execute("INSERT INTO users VALUES ('alice', 501)");
  auto& points = CrashPoints::instance();
  // Crash before publication (mid temp-file write, or between the write
  // and the rename): the live file is still the old one, complete.
  for (const char* point : {"services.config.tmp.torn", "services.config.rename.before"}) {
    points.arm(point);
    EXPECT_THROW(manager.regenerate(db, fs), CrashError) << point;
    EXPECT_EQ(fs.read_file("/etc/passwd"), old_content) << point;
  }
  points.disarm_all();
  // Crash after the rename: the new file is live, complete.
  points.arm("services.config.rename.after");
  EXPECT_THROW(manager.regenerate(db, fs), CrashError);
  EXPECT_NE(fs.read_file("/etc/passwd").find("alice:501"), std::string::npos);
  EXPECT_NE(fs.read_file("/etc/passwd").find("root:0"), std::string::npos);
}

// --- insert-ethers crash safety ----------------------------------------------

cluster::ClusterConfig durable_config(vfs::FileSystem& state) {
  cluster::ClusterConfig config;
  config.synth.filler_packages = 20;
  config.frontend.state_fs = &state;
  return config;
}

TEST_F(DurabilityTest, TextRankUpdateNoLongerBlocksInsertEthers) {
  // insert-ethers takes the cabinet's greatest rank plus one. A rank set by
  // hand as TEXT used to sort above every number and make that step throw.
  vfs::FileSystem state;
  std::vector<Mac> macs;
  for (int i = 0; i < 5; ++i) macs.push_back(Mac{0x00508BE20000ULL + i});
  {
    cluster::Cluster cluster(durable_config(state));
    EXPECT_EQ(cluster.insert_ethers().register_batch({macs[0], macs[1], macs[2]}), 3);
    cluster.frontend().db().execute("UPDATE nodes SET rank = '7' WHERE name = 'compute-0-2'");
    EXPECT_EQ(cluster.insert_ethers().register_batch({macs[3]}), 1);
    EXPECT_EQ(cluster.frontend().db().execute("SELECT name FROM nodes WHERE rank = 8")
                  .row_count(), 1u);
  }
  cluster::Cluster cluster(durable_config(state));  // WAL replay
  EXPECT_TRUE(cluster.frontend().recovered());
  EXPECT_EQ(cluster.insert_ethers().register_batch({macs[4]}), 1);
  const auto rows = cluster.frontend().db().execute(
      "SELECT name, rank FROM nodes WHERE membership = 2 ORDER BY rank");
  ASSERT_EQ(rows.row_count(), 5u);
  EXPECT_EQ(rows.rows[3][0].to_string(), "compute-0-8");
  EXPECT_EQ(rows.rows[4][0].to_string(), "compute-0-9");
  for (const auto& row : rows.rows) EXPECT_EQ(row[1].type(), sqldb::Type::kInt);
}

TEST_F(DurabilityTest, InterruptedRegistrationRecoversCleanly) {
  auto& points = CrashPoints::instance();
  vfs::FileSystem state;  // the frontend's disk, which survives the crash
  std::vector<Mac> macs;
  for (int i = 0; i < 8; ++i) macs.push_back(Mac{0x00508BE00000ULL + i});

  std::string pre_crash_dump;
  {
    cluster::Cluster cluster(durable_config(state));
    EXPECT_FALSE(cluster.frontend().recovered());
    points.arm("insert_ethers.batch", 5);  // die before the fifth node
    EXPECT_THROW(cluster.insert_ethers().register_batch(macs), CrashError);
    points.disarm_all();
    pre_crash_dump = cluster.frontend().db().dump_state();
  }  // frontend process gone

  cluster::Cluster cluster(durable_config(state));
  EXPECT_TRUE(cluster.frontend().recovered());
  // Byte-identical to the committed pre-crash state: the four registered
  // nodes, fully registered, nothing half-written.
  EXPECT_EQ(cluster.frontend().db().dump_state(), pre_crash_dump);
  const auto rows =
      cluster.frontend().db().execute("SELECT name, ip FROM nodes ORDER BY id");
  EXPECT_EQ(rows.row_count(), 5u);  // frontend + 4 compute
  std::set<std::string> ips;
  for (const auto& row : rows.rows) ips.insert(row[1].to_string());
  EXPECT_EQ(ips.size(), rows.row_count());  // no duplicate IPs

  // The batch can simply be re-run: the four survivors are recognized, the
  // four lost ones register fresh, and the derived configs cover all.
  EXPECT_EQ(cluster.insert_ethers().register_batch(macs), 4);
  const auto after =
      cluster.frontend().db().execute("SELECT name, ip FROM nodes ORDER BY id");
  EXPECT_EQ(after.row_count(), 9u);
  std::set<std::string> final_ips;
  for (const auto& row : after.rows) {
    final_ips.insert(row[1].to_string());
    EXPECT_NE(cluster.frontend().fs().read_file("/etc/hosts").find(row[0].to_string()),
              std::string::npos);
  }
  EXPECT_EQ(final_ips.size(), after.row_count());
}

TEST_F(DurabilityTest, FrontendCheckpointBoundsRecoveryAndStateMatches) {
  vfs::FileSystem state;
  std::string expected_nodes;
  std::string expected_users;
  {
    cluster::Cluster cluster(durable_config(state));
    std::vector<Mac> macs;
    for (int i = 0; i < 6; ++i) macs.push_back(Mac{0x00508BE10000ULL + i});
    cluster.insert_ethers().register_batch(macs);
    cluster.frontend().checkpoint();
    cluster.frontend().add_user("mjk", 500);  // lands in the WAL tail
    expected_nodes =
        cluster.frontend().db().execute("SELECT * FROM nodes ORDER BY id").render();
    expected_users =
        cluster.frontend().db().execute("SELECT name, uid FROM users ORDER BY uid").render();
  }
  cluster::Cluster cluster(durable_config(state));
  EXPECT_TRUE(cluster.frontend().recovered());
  EXPECT_TRUE(cluster.frontend().recovery().snapshot_loaded);
  EXPECT_GT(cluster.frontend().recovery().wal_records_replayed, 0u);
  // Snapshot + WAL tail reproduce the tables exactly. (Full dump_state
  // equality is a Database-level property; across a frontend reboot the
  // external bus channels — graph, distribution — legitimately advance as
  // the new constructor re-touches them.)
  EXPECT_EQ(cluster.frontend().db().execute("SELECT * FROM nodes ORDER BY id").render(),
            expected_nodes);
  EXPECT_EQ(
      cluster.frontend().db().execute("SELECT name, uid FROM users ORDER BY uid").render(),
      expected_users);
  // Derived state caught up on boot: NIS map and hosts reflect the
  // recovered database.
  EXPECT_NE(cluster.frontend().nis_passwd_map().find("mjk"), std::string::npos);
  EXPECT_NE(cluster.frontend().fs().read_file("/etc/hosts").find("compute-0-5"),
            std::string::npos);
}

/// Regression: checkpoints racing a registration burst. Each snapshot
/// captures a commit boundary (last_lsn = the capture-time commit
/// timestamp) and truncates exactly the WAL prefix it absorbed, so no
/// interleaving of snapshot() against committing INSERTs can lose a
/// statement or replay one twice. Recovery from the final disk image must
/// be byte-identical to the store that wrote it, wherever the checkpoints
/// happened to land inside the burst.
TEST_F(DurabilityTest, CheckpointDuringRegistrationBurstRecoversByteIdentical) {
  constexpr std::size_t kBurst = 200;
  vfs::FileSystem disk;
  std::string expected;
  std::uint64_t snapshots_taken = 0;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.set_wal_group_commit(8);  // insert-ethers' amortization knob
    db.execute(
        "CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, mac TEXT, name TEXT)");
    db.execute("CREATE INDEX nodes_mac ON nodes (mac)");

    std::thread burst([&db] {
      for (std::size_t i = 0; i < kBurst; ++i)
        db.execute(strings::cat("INSERT INTO nodes (mac, name) VALUES ('",
                                Mac(0x00508BE00000ULL + i).to_string(), "', 'compute-0-", i,
                                "')"));
    });
    // Checkpoints fired blind into the middle of the burst: each one
    // serializes from a pinned read view while the writer keeps committing.
    for (int i = 0; i < 5; ++i) snapshots_taken = db.snapshot();
    burst.join();
    db.wal_flush();  // the barrier a real batch ends with
    expected = db.dump_state();
    EXPECT_EQ(db.execute("SELECT id FROM nodes").row_count(), kBurst);
  }
  EXPECT_GE(snapshots_taken, 5u);

  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(recovered.dump_state(), expected);
}

// --- WAL flush IO failures (§11 satellite) -----------------------------------

TEST_F(DurabilityTest, WalFlushFailureNamesLsnRangeAndBufferSurvives) {
  vfs::FileSystem disk;
  Database db;
  db.open_durable(disk, kDir);
  db.set_wal_group_commit(100);  // buffer everything; flush is explicit
  db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  db.execute("INSERT INTO t (v) VALUES ('a')");
  db.execute("INSERT INTO t (v) VALUES ('b')");

  disk.arm_write_fault(sqldb::kWalFileName);
  try {
    db.wal_flush();
    FAIL() << "flush over a failing disk must throw";
  } catch (const IoError& error) {
    // The error names exactly which LSNs did not become durable.
    EXPECT_NE(std::string(error.what()).find("LSN range [1, 3]"), std::string::npos)
        << error.what();
  }
  // Nothing reached the disk, nothing was dropped: the same buffer flushes
  // intact once the disk heals (the fault is one-shot).
  EXPECT_EQ(disk.is_file(vfs::join(kDir, sqldb::kWalFileName)), false);
  db.wal_flush();
  Database recovered;
  recovered.open_durable(disk, kDir);
  EXPECT_EQ(recovered.dump_state(), db.dump_state());
}

TEST_F(DurabilityTest, FrontendBarrierRefusesToAckOnFlushFailure) {
  vfs::FileSystem state;
  {
    cluster::Cluster cluster(durable_config(state));
    auto& frontend = cluster.frontend();
    // The durability barrier runs inside flush_services: with the WAL
    // append failing, the flush must surface the IoError — the caller's
    // batch is never acknowledged, no config file moves.
    const std::string hosts_before = frontend.fs().read_file("/etc/hosts");
    state.arm_write_fault(sqldb::kWalFileName);
    EXPECT_THROW(frontend.add_user("ghost", 600), IoError);
    EXPECT_EQ(frontend.fs().read_file("/etc/hosts"), hosts_before);
    EXPECT_EQ(frontend.nis_passwd_map().find("ghost"), std::string::npos);
    // Disk heals: the retried barrier drains the same buffer and the
    // pending row becomes durable and visible.
    frontend.flush_services();
    EXPECT_NE(frontend.nis_passwd_map().find("ghost"), std::string::npos);
  }
  cluster::Cluster cluster(durable_config(state));
  EXPECT_NE(cluster.frontend().nis_passwd_map().find("ghost"), std::string::npos);
}

// --- snapshot-corruption fallback (§11 satellite) ----------------------------

/// Builds a store with two retained snapshots and a WAL tail; returns the
/// dump after each snapshot so per-slot corruption tests can assert exactly
/// which state survives.
struct TwoSnapshotStore {
  std::string dump_snap1;
  std::string dump_snap2;
  std::string dump_final;
};

TwoSnapshotStore build_two_snapshot_store(vfs::FileSystem& disk) {
  TwoSnapshotStore out;
  Database db;
  db.open_durable(disk, kDir);
  db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  db.execute("INSERT INTO t (v) VALUES ('a')");
  out.dump_snap1 = db.dump_state();
  EXPECT_EQ(db.snapshot(), 1u);
  db.execute("INSERT INTO t (v) VALUES ('b')");
  out.dump_snap2 = db.dump_state();
  EXPECT_EQ(db.snapshot(), 2u);
  db.execute("INSERT INTO t (v) VALUES ('c')");  // lives only in the WAL
  out.dump_final = db.dump_state();
  return out;
}

void flip_bit(vfs::FileSystem& disk, const std::string& path) {
  std::string bytes = disk.read_file(path);
  bytes[bytes.size() / 2] ^= 0x01;
  disk.write_file(path, std::move(bytes));
}

TEST_F(DurabilityTest, CorruptOlderSnapshotSlotDoesNotAffectRecovery) {
  vfs::FileSystem disk;
  const TwoSnapshotStore store = build_two_snapshot_store(disk);
  flip_bit(disk, vfs::join(kDir, sqldb::snapshot_file_name(1)));

  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  // The newest slot is intact; the rotted older slot is never even read.
  EXPECT_TRUE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshot_seq, 2u);
  EXPECT_EQ(report.snapshots_skipped, 0u);
  EXPECT_EQ(report.wal_records_replayed, 1u);
  EXPECT_EQ(recovered.dump_state(), store.dump_final);
}

TEST_F(DurabilityTest, BothSnapshotsCorruptReportsCleanlyAndStoreStaysUsable) {
  vfs::FileSystem disk;
  build_two_snapshot_store(disk);
  flip_bit(disk, vfs::join(kDir, sqldb::snapshot_file_name(1)));
  flip_bit(disk, vfs::join(kDir, sqldb::snapshot_file_name(2)));

  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  // Every retained snapshot is gone; the report says so rather than
  // guessing. The WAL tail presumed snapshot 2's state, so the LSN gap
  // drops it — recovery lands on the empty store, never on garbage.
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshots_skipped, 2u);
  EXPECT_EQ(report.wal_records_replayed, 0u);
  EXPECT_EQ(report.wal_records_dropped, 1u);
  EXPECT_EQ(recovered.table_names().size(), 0u);

  // The survivor is a fully working store: new history builds, checkpoints,
  // and recovers from here (sequence numbers move past the corpses).
  recovered.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  recovered.execute("INSERT INTO t (v) VALUES ('fresh')");
  EXPECT_EQ(recovered.snapshot(), 3u);
  Database again;
  const RecoveryReport second = again.open_durable(disk, kDir);
  EXPECT_TRUE(second.snapshot_loaded);
  EXPECT_EQ(second.snapshot_seq, 3u);
  EXPECT_EQ(again.dump_state(), recovered.dump_state());
}

TEST_F(DurabilityTest, WalOnlyStoreRecoversWithNoSnapshotEverWritten) {
  vfs::FileSystem disk;
  std::string expected;
  {
    Database db;
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
    for (int i = 0; i < 10; ++i) db.execute("INSERT INTO t (v) VALUES ('w')");
    expected = db.dump_state();
  }
  Database recovered;
  const RecoveryReport report = recovered.open_durable(disk, kDir);
  EXPECT_FALSE(report.snapshot_loaded);
  EXPECT_EQ(report.snapshots_skipped, 0u);
  EXPECT_EQ(report.wal_records_replayed, 11u);
  EXPECT_EQ(recovered.dump_state(), expected);
}

}  // namespace
}  // namespace rocks
