// Unit tests for the mini SQL engine, culminating in the paper's own
// cluster-kill queries (Section 6.4) run verbatim.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "sqldb/engine.hpp"
#include "support/error.hpp"

namespace rocks::sqldb {
namespace {

class DbTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db.execute(
        "CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, mac TEXT, name TEXT, "
        "membership INT, rack INT, rank INT, ip TEXT, comment TEXT)");
    db.execute(
        "CREATE TABLE memberships (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, "
        "appliance INT, compute TEXT)");
  }

  void load_paper_tables() {
    // Table II of the paper.
    db.execute(
        "INSERT INTO nodes (mac, name, membership, rack, rank, ip, comment) VALUES "
        "('00:30:c1:d8:ac:80', 'frontend-0',  1, 0, 0, '10.1.1.1',       'Gateway machine'),"
        "('00:01:e7:1a:be:00', 'network-0-0', 4, 0, 0, '10.255.255.253', 'Switch for Cabinet 0'),"
        "('00:50:8b:a5:4d:b1', 'nfs-0-0',     7, 0, 0, '10.255.255.249', 'NFS Server in Cabinet 0'),"
        "('00:50:8b:e0:3a:a7', 'compute-0-0', 2, 0, 0, '10.255.255.245', 'Compute node'),"
        "('00:50:8b:e0:44:5e', 'compute-0-1', 2, 0, 1, '10.255.255.244', 'Compute node'),"
        "('00:50:8b:e0:40:95', 'compute-0-2', 2, 0, 2, '10.255.255.243', 'Compute node'),"
        "('00:50:8b:e0:40:93', 'compute-0-3', 2, 0, 3, '10.255.255.242', 'Compute node'),"
        "('00:50:8b:c5:c7:d3', 'web-1-0',     8, 1, 0, '10.255.255.246', 'Web Server in Cabinet 1')");
    // Table III of the paper (subset of columns we model).
    db.execute(
        "INSERT INTO memberships (name, appliance, compute) VALUES "
        "('Frontend', 1, 'no'), ('Compute', 2, 'yes'), ('External', 1, 'no'),"
        "('Ethernet Switches', 4, 'no'), ('Myrinet Switches', 4, 'no'), ('Power Units', 5, 'no')");
  }

  Database db;
};

TEST_F(DbTest, CreateAndInsertAutoIncrement) {
  load_paper_tables();
  const ResultSet r = db.execute("SELECT id, name FROM nodes ORDER BY id");
  ASSERT_EQ(r.row_count(), 8u);
  EXPECT_EQ(r.rows[0][0].as_int(), 1);
  EXPECT_EQ(r.rows[7][0].as_int(), 8);
  EXPECT_EQ(r.at(0, "name").as_text(), "frontend-0");
}

TEST_F(DbTest, CreateDuplicateTableFails) {
  EXPECT_THROW(db.execute("CREATE TABLE nodes (id INT)"), StateError);
  EXPECT_NO_THROW(db.execute("CREATE TABLE IF NOT EXISTS nodes (id INT)"));
}

TEST_F(DbTest, DropTable) {
  db.execute("DROP TABLE memberships");
  EXPECT_FALSE(db.has_table("memberships"));
  EXPECT_THROW(db.execute("DROP TABLE memberships"), LookupError);
  EXPECT_NO_THROW(db.execute("DROP TABLE IF EXISTS memberships"));
}

TEST_F(DbTest, SelectWhereComparisons) {
  load_paper_tables();
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE rack = 1").row_count(), 1u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE rank >= 2").row_count(), 2u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE rank > 0 AND rack = 0").row_count(), 3u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE rack = 1 OR membership = 7").row_count(),
            2u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE NOT membership = 2").row_count(), 4u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE membership != 2").row_count(), 4u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE membership <> 2").row_count(), 4u);
}

TEST_F(DbTest, SelectLike) {
  load_paper_tables();
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE name LIKE 'compute-%'").row_count(), 4u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE name LIKE 'compute-0-_'").row_count(), 4u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE name NOT LIKE 'compute-%'").row_count(),
            4u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE comment LIKE '%Cabinet%'").row_count(), 3u);
}

TEST_F(DbTest, SelectInList) {
  load_paper_tables();
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE membership IN (4, 7, 8)").row_count(), 3u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE membership NOT IN (2)").row_count(), 4u);
}

TEST_F(DbTest, OrderByAndLimit) {
  load_paper_tables();
  const ResultSet r =
      db.execute("SELECT name FROM nodes ORDER BY rack DESC, rank ASC LIMIT 2");
  ASSERT_EQ(r.row_count(), 2u);
  EXPECT_EQ(r.rows[0][0].as_text(), "web-1-0");
}

TEST_F(DbTest, SelectStar) {
  load_paper_tables();
  const ResultSet r = db.execute("SELECT * FROM memberships");
  EXPECT_EQ(r.columns.size(), 4u);
  EXPECT_EQ(r.row_count(), 6u);
}

TEST_F(DbTest, SelectExpressionArithmetic) {
  load_paper_tables();
  const ResultSet r =
      db.execute("SELECT name, rack * 100 + rank AS position FROM nodes WHERE name = 'web-1-0'");
  EXPECT_EQ(r.at(0, "position").as_int(), 100);
}

TEST_F(DbTest, UpdateAndDelete) {
  load_paper_tables();
  ResultSet r = db.execute("UPDATE nodes SET comment = 'down' WHERE rack = 0 AND rank = 2");
  EXPECT_EQ(r.affected_rows, 1u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE comment = 'down'").row_count(), 1u);
  r = db.execute("DELETE FROM nodes WHERE membership = 2");
  EXPECT_EQ(r.affected_rows, 4u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes").row_count(), 4u);
}

TEST_F(DbTest, UpdateEvaluatesRhsAgainstPreUpdateRow) {
  load_paper_tables();
  db.execute("UPDATE nodes SET rack = rank, rank = rack WHERE name = 'compute-0-3'");
  const ResultSet r = db.execute("SELECT rack, rank FROM nodes WHERE name = 'compute-0-3'");
  EXPECT_EQ(r.rows[0][0].as_int(), 3);  // swap, not sequential assignment
  EXPECT_EQ(r.rows[0][1].as_int(), 0);
}

TEST_F(DbTest, NullSemantics) {
  db.execute("CREATE TABLE t (a INT, b TEXT)");
  db.execute("INSERT INTO t VALUES (NULL, 'x'), (1, NULL)");
  EXPECT_EQ(db.execute("SELECT a FROM t WHERE a IS NULL").row_count(), 1u);
  EXPECT_EQ(db.execute("SELECT a FROM t WHERE a IS NOT NULL").row_count(), 1u);
  // NULL comparisons are never true.
  EXPECT_EQ(db.execute("SELECT a FROM t WHERE a = NULL").row_count(), 0u);
  EXPECT_EQ(db.execute("SELECT a FROM t WHERE a != NULL").row_count(), 0u);
}

TEST_F(DbTest, PaperClusterKillRackQuery) {
  load_paper_tables();
  // Verbatim from Section 6.4: kill runaway processes in cabinet 1.
  const auto names = db.query_column("select name from nodes where rack=1");
  EXPECT_EQ(names, (std::vector<std::string>{"web-1-0"}));
}

TEST_F(DbTest, PaperClusterKillJoinQuery) {
  load_paper_tables();
  // Verbatim from Section 6.4: the multi-table join selecting compute nodes.
  const auto names = db.query_column(
      "select nodes.name from nodes,memberships where "
      "nodes.membership = memberships.id and "
      "memberships.name = 'Compute'");
  EXPECT_EQ(names, (std::vector<std::string>{"compute-0-0", "compute-0-1", "compute-0-2",
                                             "compute-0-3"}));
}

TEST_F(DbTest, ExplicitJoinSyntaxMatchesCommaJoin) {
  load_paper_tables();
  const auto a = db.query_column(
      "select nodes.name from nodes join memberships on nodes.membership = memberships.id "
      "where memberships.compute = 'yes'");
  const auto b = db.query_column(
      "select nodes.name from nodes, memberships where nodes.membership = memberships.id "
      "and memberships.compute = 'yes'");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 4u);
}

TEST_F(DbTest, TableAliases) {
  load_paper_tables();
  const auto names = db.query_column(
      "select n.name from nodes n, memberships m where n.membership = m.id and "
      "m.name = 'Frontend'");
  EXPECT_EQ(names, (std::vector<std::string>{"frontend-0"}));
}

TEST_F(DbTest, AmbiguousColumnRejected) {
  load_paper_tables();
  // Both tables have "name".
  EXPECT_THROW(db.execute("SELECT name FROM nodes, memberships"), LookupError);
}

TEST_F(DbTest, UnknownColumnAndTableRejected) {
  EXPECT_THROW(db.execute("SELECT nope FROM nodes"), LookupError);
  EXPECT_THROW(db.execute("SELECT x.name FROM nodes"), LookupError);
  EXPECT_THROW(db.execute("SELECT name FROM ghosts"), LookupError);
  EXPECT_THROW(db.execute("INSERT INTO nodes (ghost) VALUES (1)"), LookupError);
}

TEST_F(DbTest, ParseErrors) {
  EXPECT_THROW(db.execute("SELEC name FROM nodes"), ParseError);
  EXPECT_THROW(db.execute("SELECT FROM nodes"), ParseError);
  EXPECT_THROW(db.execute("SELECT name nodes"), ParseError);
  EXPECT_THROW(db.execute("SELECT name FROM nodes WHERE"), ParseError);
  EXPECT_THROW(db.execute(""), ParseError);
  EXPECT_THROW(db.execute("SELECT name FROM nodes; extra"), ParseError);
}

TEST_F(DbTest, StringEscapes) {
  db.execute("CREATE TABLE s (v TEXT)");
  db.execute("INSERT INTO s VALUES ('it''s'), (\"dq\"), ('back\\'slash')");
  const auto vals = db.query_column("SELECT v FROM s");
  EXPECT_EQ(vals, (std::vector<std::string>{"it's", "dq", "back'slash"}));
}

TEST_F(DbTest, TextCoercionOnTypedColumns) {
  db.execute("CREATE TABLE c (n INT)");
  db.execute("INSERT INTO c VALUES ('42')");
  EXPECT_EQ(db.execute("SELECT n FROM c").rows[0][0].as_int(), 42);
}

TEST_F(DbTest, RenderProducesAsciiTable) {
  load_paper_tables();
  const std::string out = db.execute("SELECT id, name FROM memberships ORDER BY id").render();
  EXPECT_NE(out.find("Compute"), std::string::npos);
  EXPECT_NE(out.find("Power Units"), std::string::npos);
}

TEST_F(DbTest, EmptyTableSelects) {
  EXPECT_EQ(db.execute("SELECT * FROM nodes").row_count(), 0u);
  EXPECT_EQ(db.execute("SELECT nodes.name FROM nodes, memberships").row_count(), 0u);
  // Ambiguity is detected even with no rows to scan.
  EXPECT_THROW(db.execute("SELECT name FROM nodes, memberships"), LookupError);
}

TEST_F(DbTest, QueryColumnRequiresSingleColumn) {
  load_paper_tables();
  EXPECT_THROW(db.query_column("SELECT id, name FROM nodes"), StateError);
}

TEST_F(DbTest, ArithmeticEdgeCases) {
  load_paper_tables();
  // Division/modulo by zero yield NULL (so rows drop out of WHERE).
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE rank / rank > 0").row_count(), 3u)
      << "rank=0 rows produce NULL and are filtered";
  EXPECT_EQ(db.execute("SELECT 7 % 3 AS m FROM memberships LIMIT 1").rows[0][0].as_int(), 1);
  EXPECT_EQ(db.execute("SELECT -rank AS n FROM nodes WHERE name = 'compute-0-3'")
                .rows[0][0]
                .as_int(),
            -3);
  // Mixed int/real arithmetic promotes to real.
  const auto r = db.execute("SELECT rank + 0.5 AS x FROM nodes WHERE name = 'compute-0-1'");
  EXPECT_DOUBLE_EQ(r.rows[0][0].as_real(), 1.5);
}

TEST_F(DbTest, OrderByExpressionAndLimitZero) {
  load_paper_tables();
  const auto r = db.execute(
      "SELECT name FROM nodes WHERE membership = 2 ORDER BY rack * 10 + rank DESC");
  ASSERT_EQ(r.row_count(), 4u);
  EXPECT_EQ(r.rows[0][0].as_text(), "compute-0-3");
  EXPECT_EQ(db.execute("SELECT name FROM nodes LIMIT 0").row_count(), 0u);
}

TEST_F(DbTest, UpdateWithoutWhereTouchesAllRows) {
  load_paper_tables();
  const auto r = db.execute("UPDATE memberships SET compute = 'no'");
  EXPECT_EQ(r.affected_rows, 6u);
  EXPECT_EQ(db.execute("SELECT name FROM memberships WHERE compute = 'yes'").row_count(), 0u);
}

TEST_F(DbTest, SelfJoinWithAliases) {
  load_paper_tables();
  // Pairs of compute nodes in the same rack with adjacent ranks.
  const auto r = db.execute(
      "SELECT a.name, b.name FROM nodes a, nodes b WHERE a.rack = b.rack AND "
      "a.membership = 2 AND b.membership = 2 AND b.rank = a.rank + 1 ORDER BY a.rank");
  ASSERT_EQ(r.row_count(), 3u);
  EXPECT_EQ(r.rows[0][0].as_text(), "compute-0-0");
  EXPECT_EQ(r.rows[0][1].as_text(), "compute-0-1");
}

TEST_F(DbTest, ThreeTableJoin) {
  load_paper_tables();
  db.execute("CREATE TABLE racks (id INT, location TEXT)");
  db.execute("INSERT INTO racks VALUES (0, 'machine room A'), (1, 'machine room B')");
  const auto r = db.query_column(
      "SELECT racks.location FROM nodes, memberships, racks WHERE "
      "nodes.membership = memberships.id AND nodes.rack = racks.id AND "
      "memberships.name = 'Compute' AND nodes.rank = 0");
  EXPECT_EQ(r, (std::vector<std::string>{"machine room A"}));
}

TEST_F(DbTest, InListWithNullNeedleNeverMatches) {
  db.execute("CREATE TABLE t (a INT)");
  db.execute("INSERT INTO t VALUES (NULL), (1)");
  EXPECT_EQ(db.execute("SELECT a FROM t WHERE a IN (1, 2)").row_count(), 1u);
  EXPECT_EQ(db.execute("SELECT a FROM t WHERE a NOT IN (99)").row_count(), 1u);
}

// --- query planner: indexes, hash joins, and A/B equivalence ---------------

/// Requires bit-identical ResultSets (columns, row order, every Value).
void expect_same_result(const ResultSet& a, const ResultSet& b, std::string_view what) {
  ASSERT_EQ(a.columns, b.columns) << what;
  ASSERT_EQ(a.row_count(), b.row_count()) << what;
  for (std::size_t i = 0; i < a.row_count(); ++i)
    for (std::size_t j = 0; j < a.columns.size(); ++j)
      EXPECT_EQ(a.rows[i][j].compare(b.rows[i][j]), 0)
          << what << " differs at row " << i << " column " << j;
}

/// Runs `sql` (with `params` bound to its placeholders) with the planner on
/// and off and requires bit-identical ResultSets.
void expect_planner_matches_scan(Database& db, std::string_view sql,
                                 std::span<const Value> params = {}) {
  db.set_planner_enabled(true);
  const ResultSet planned = db.execute(sql, params);
  db.set_planner_enabled(false);
  const ResultSet scanned = db.execute(sql, params);
  db.set_planner_enabled(true);
  expect_same_result(planned, scanned, sql);
}

class PlannerTest : public DbTest {
 protected:
  void SetUp() override {
    DbTest::SetUp();
    load_paper_tables();
    db.execute("CREATE INDEX nodes_ip ON nodes (ip)");
    db.execute("CREATE INDEX nodes_mac ON nodes (mac)");
    db.execute("CREATE INDEX nodes_membership ON nodes (membership)");
  }
};

TEST_F(PlannerTest, IndexedAndScannedResultsIdenticalAcrossCorpus) {
  for (const char* sql : {
           // Index probes, with and without residual conjuncts.
           "SELECT name FROM nodes WHERE ip = '10.255.255.245'",
           "SELECT name FROM nodes WHERE membership = 2 AND rank > 1",
           "SELECT name FROM nodes WHERE rank > 1 AND membership = 2",
           "SELECT name FROM nodes WHERE 2 = membership",
           "SELECT name FROM nodes WHERE membership = 99",
           "SELECT * FROM nodes WHERE mac = '00:50:8b:e0:40:95'",
           "SELECT name FROM nodes WHERE membership = 2 ORDER BY rank DESC LIMIT 2",
           // Unindexed / non-equality single-table shapes (scan either way).
           "SELECT name FROM nodes WHERE rank >= 2",
           "SELECT name FROM nodes WHERE rack = 1 OR membership = 7",
           "SELECT name FROM nodes WHERE name LIKE 'compute-%'",
           // Index joins: a selective indexed literal on either side.
           "SELECT memberships.name FROM nodes, memberships WHERE "
           "nodes.membership = memberships.id AND nodes.ip = '10.255.255.245'",
           "SELECT nodes.name FROM memberships, nodes WHERE "
           "nodes.membership = memberships.id AND nodes.mac = '00:50:8b:e0:3a:a7'",
           "SELECT nodes.name FROM nodes, memberships WHERE "
           "nodes.membership = memberships.id AND nodes.ip = '10.0.0.99'",
           // Hash joins, qualified and aliased.
           "select nodes.name from nodes,memberships where "
           "nodes.membership = memberships.id and memberships.name = 'Compute'",
           "select n.name from nodes n, memberships m where n.membership = m.id and "
           "m.compute = 'yes'",
           "SELECT a.name, b.name FROM nodes a, nodes b WHERE a.rack = b.rack AND "
           "a.membership = 2 AND b.membership = 2 AND b.rank = a.rank + 1 ORDER BY a.rank",
           "SELECT nodes.name, memberships.name FROM nodes, memberships WHERE "
           "memberships.id = nodes.membership",
           // Three tables: planner falls back to the scan.
           "SELECT nodes.name FROM nodes, memberships, nodes x WHERE "
           "nodes.membership = memberships.id AND x.rank = 0 AND nodes.rack = 0",
       })
    expect_planner_matches_scan(db, sql);
}

TEST_F(PlannerTest, BoundCorpusMatchesLiteralCorpus) {
  // Each shape the planner consumes a literal from, with the literal as a
  // `?`: the bound form must plan and answer exactly like the literal one.
  struct Case {
    const char* literal;
    const char* bound;
    std::vector<Value> params;
  };
  const std::vector<Case> corpus = {
      {"SELECT name FROM nodes WHERE ip = '10.255.255.245'",
       "SELECT name FROM nodes WHERE ip = ?", {"10.255.255.245"}},
      {"SELECT name FROM nodes WHERE membership = 2 AND rank > 1",
       "SELECT name FROM nodes WHERE membership = ? AND rank > ?", {2, 1}},
      {"SELECT name FROM nodes WHERE 2 = membership", "SELECT name FROM nodes WHERE ? = membership",
       {2}},
      {"SELECT name FROM nodes WHERE membership = 99", "SELECT name FROM nodes WHERE membership = ?",
       {99}},
      {"SELECT * FROM nodes WHERE mac = '00:50:8b:e0:40:95'", "SELECT * FROM nodes WHERE mac = ?",
       {"00:50:8b:e0:40:95"}},
      {"SELECT name FROM nodes WHERE membership = 2 ORDER BY rank DESC LIMIT 2",
       "SELECT name FROM nodes WHERE membership = ? ORDER BY rank DESC LIMIT 2", {2}},
      {"SELECT name FROM nodes WHERE membership = NULL",
       "SELECT name FROM nodes WHERE membership = ?", {Value::null()}},
      {"SELECT name FROM nodes WHERE rank >= 2", "SELECT name FROM nodes WHERE rank >= ?", {2}},
      {"SELECT name FROM nodes WHERE name LIKE 'compute-%'",
       "SELECT name FROM nodes WHERE name LIKE ?", {"compute-%"}},
      {"SELECT name FROM nodes WHERE rack IN (1, 7)", "SELECT name FROM nodes WHERE rack IN (?, ?)",
       {1, 7}},
      {"SELECT memberships.name FROM nodes, memberships WHERE "
       "nodes.membership = memberships.id AND nodes.ip = '10.255.255.245'",
       "SELECT memberships.name FROM nodes, memberships WHERE "
       "nodes.membership = memberships.id AND nodes.ip = ?",
       {"10.255.255.245"}},
      {"SELECT nodes.name FROM memberships, nodes WHERE "
       "nodes.membership = memberships.id AND nodes.mac = '00:50:8b:e0:3a:a7'",
       "SELECT nodes.name FROM memberships, nodes WHERE "
       "nodes.membership = memberships.id AND nodes.mac = ?",
       {"00:50:8b:e0:3a:a7"}},
      {"select n.name from nodes n, memberships m where n.membership = m.id and "
       "m.compute = 'yes'",
       "select n.name from nodes n, memberships m where n.membership = m.id and m.compute = ?",
       {"yes"}},
      {"SELECT rank + 1, name FROM nodes WHERE rack = 0 ORDER BY rank",
       "SELECT rank + ?, name FROM nodes WHERE rack = ? ORDER BY rank", {1, 0}},
  };
  for (const Case& c : corpus) {
    expect_planner_matches_scan(db, c.bound, c.params);
    db.reset_stats();
    const ResultSet literal = db.execute(c.literal);
    const auto literal_plans = std::make_tuple(db.plans_index_probe(), db.plans_index_join(),
                                               db.plans_hash_join(), db.plans_scan());
    db.reset_stats();
    const ResultSet bound = db.execute(c.bound, c.params);
    EXPECT_EQ(literal_plans, std::make_tuple(db.plans_index_probe(), db.plans_index_join(),
                                             db.plans_hash_join(), db.plans_scan()))
        << c.bound;
    // Output headers name the placeholder, not the literal; rows must match.
    ASSERT_EQ(literal.row_count(), bound.row_count()) << c.bound;
    for (std::size_t i = 0; i < literal.row_count(); ++i)
      for (std::size_t j = 0; j < literal.rows[i].size(); ++j)
        EXPECT_EQ(literal.rows[i][j].compare(bound.rows[i][j]), 0) << c.bound;
  }
}

TEST_F(PlannerTest, BoundWritesProbeTheIndexLikeLiterals) {
  db.reset_stats();
  db.execute("UPDATE nodes SET comment = ? WHERE ip = ?", {"moved", "10.255.255.245"});
  db.execute("DELETE FROM nodes WHERE mac = ?", {"00:50:8b:e0:40:93"});
  EXPECT_EQ(db.plans_index_probe(), 2u);
  EXPECT_EQ(db.query_column("SELECT comment FROM nodes WHERE name = 'compute-0-0'"),
            std::vector<std::string>{"moved"});
  EXPECT_EQ(db.execute("SELECT name FROM nodes").row_count(), 7u);
}

TEST_F(PlannerTest, EqualityOnIndexedColumnUsesIndexProbe) {
  const auto before = db.plans_index_probe();
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE ip = '10.255.255.245'").row_count(), 1u);
  EXPECT_EQ(db.plans_index_probe(), before + 1);
}

TEST_F(PlannerTest, SelectiveLiteralInJoinUsesIndexJoin) {
  const auto before = db.plans_index_join();
  const auto rows = db.execute(
      "SELECT memberships.name FROM nodes, memberships WHERE "
      "nodes.membership = memberships.id AND nodes.ip = '10.255.255.245'");
  EXPECT_EQ(db.plans_index_join(), before + 1);
  ASSERT_EQ(rows.row_count(), 1u);
  EXPECT_EQ(rows.at(0, 0).as_text(), "Compute");
}

TEST_F(PlannerTest, UnselectiveLiteralInJoinStaysHashJoin) {
  // membership = 2 probes 4 of 8 node rows: pairing 4x6 combinations costs
  // more than hashing 8+6 rows, so the planner keeps the hash join.
  const auto joins_before = db.plans_hash_join();
  const auto index_joins_before = db.plans_index_join();
  db.execute(
      "SELECT nodes.name FROM nodes, memberships WHERE "
      "nodes.membership = memberships.id AND nodes.membership = 2");
  EXPECT_EQ(db.plans_hash_join(), joins_before + 1);
  EXPECT_EQ(db.plans_index_join(), index_joins_before);
}

TEST_F(PlannerTest, EquiJoinUsesHashJoin) {
  const auto before = db.plans_hash_join();
  db.execute(
      "select nodes.name from nodes,memberships where "
      "nodes.membership = memberships.id and memberships.name = 'Compute'");
  EXPECT_EQ(db.plans_hash_join(), before + 1);
}

TEST_F(PlannerTest, NonEqualityPredicatesFallBackToScan) {
  const auto before = db.plans_scan();
  db.execute("SELECT name FROM nodes WHERE name LIKE 'compute-%'");
  db.execute("SELECT name FROM nodes WHERE rack = 1 OR membership = 7");
  EXPECT_EQ(db.plans_scan(), before + 2);
}

TEST_F(PlannerTest, IndexProbeWithNullLiteralMatchesNothing) {
  const auto before = db.plans_index_probe();
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE ip = NULL").row_count(), 0u);
  EXPECT_EQ(db.plans_index_probe(), before + 1);
}

TEST_F(PlannerTest, IndexProbeMatchesIntAndRealKeys) {
  // The index hashes INT and REAL through double, matching compare() == 0.
  db.execute("CREATE TABLE m (x REAL)");
  db.execute("CREATE INDEX m_x ON m (x)");
  db.execute("INSERT INTO m VALUES (1.0), (2.5)");
  EXPECT_EQ(db.execute("SELECT x FROM m WHERE x = 1").row_count(), 1u);
  EXPECT_EQ(db.execute("SELECT x FROM m WHERE x = 2.5").row_count(), 1u);
}

// --- exact numeric comparison ------------------------------------------------

constexpr std::int64_t kTwo53 = std::int64_t{1} << 53;
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr double kTwo63 = 9223372036854775808.0;

TEST(ValueCompare, IntsCompareExactlyPastTwoToThe53) {
  EXPECT_EQ(Value(kTwo53).compare(Value(kTwo53 + 1)), -1);
  EXPECT_EQ(Value(kTwo53 + 1).compare(Value(kTwo53)), 1);
  EXPECT_EQ(Value(-kTwo53).compare(Value(-kTwo53 - 1)), 1);
  EXPECT_EQ(Value(kMax).compare(Value(kMax - 1)), 1);
  EXPECT_EQ(Value(kMin).compare(Value(kMin + 1)), -1);
  EXPECT_EQ(Value(kMin).compare(Value(kMax)), -1);
  EXPECT_EQ(Value(kMax).compare(Value(kMax)), 0);
}

TEST(ValueCompare, IntAgainstRealNeverRoundsTheInt) {
  const double two53 = static_cast<double>(kTwo53);
  EXPECT_EQ(Value(kTwo53 + 1).compare(Value(two53)), 1);
  EXPECT_EQ(Value(two53).compare(Value(kTwo53 + 1)), -1);
  EXPECT_EQ(Value(kTwo53).compare(Value(two53)), 0);
  EXPECT_EQ(Value(-kTwo53 - 1).compare(Value(-two53)), -1);
  // 2^63 is above every INT; -2^63 is INT64_MIN exactly.
  EXPECT_EQ(Value(kMax).compare(Value(kTwo63)), -1);
  EXPECT_EQ(Value(kTwo63).compare(Value(kMax)), 1);
  EXPECT_EQ(Value(kMin).compare(Value(-kTwo63)), 0);
  EXPECT_EQ(Value(kMin + 1).compare(Value(-kTwo63)), 1);
  // The fraction decides between an INT and the REAL it truncates to.
  EXPECT_EQ(Value(2).compare(Value(2.5)), -1);
  EXPECT_EQ(Value(3).compare(Value(2.5)), 1);
  EXPECT_EQ(Value(-2).compare(Value(-2.5)), 1);
  EXPECT_EQ(Value(-3).compare(Value(-2.5)), -1);
  EXPECT_EQ(Value(1).compare(Value(1.0)), 0);
  EXPECT_EQ(Value(0).compare(Value(-0.0)), 0);
}

TEST(ValueCompare, CompareEqualNumbersHashEqual) {
  const std::vector<std::pair<Value, Value>> equal = {
      {Value(1), Value(1.0)},
      {Value(0), Value(-0.0)},
      {Value(kTwo53), Value(static_cast<double>(kTwo53))},
      {Value(-kTwo53), Value(-static_cast<double>(kTwo53))},
      {Value(kMin), Value(-kTwo63)},
  };
  for (const auto& [a, b] : equal) {
    ASSERT_EQ(a.compare(b), 0) << a.to_string() << " vs " << b.to_string();
    EXPECT_EQ(a.hash(), b.hash()) << a.to_string() << " vs " << b.to_string();
  }
  EXPECT_NE(Value(kTwo53).compare(Value(kTwo53 + 1)), 0);
}

/// Rows around ±2^53 and ±2^63, each with an INT and a REAL cell.
class NumericBoundaryTest : public DbTest {
 protected:
  void SetUp() override {
    DbTest::SetUp();
    db.execute("CREATE TABLE big (id INT, i INT, r REAL)");
    db.execute(
        "INSERT INTO big VALUES "
        "(1, 9007199254740992, 9007199254740992.0), "       // 2^53, 2^53
        "(2, 9007199254740993, 9007199254740992.0), "       // 2^53 + 1, 2^53
        "(3, -9007199254740992, -9007199254740992.0), "     // -2^53, -2^53
        "(4, -9007199254740993, 0.5), "                     // -2^53 - 1
        "(5, 9223372036854775807, 9223372036854775808.0), " // INT64_MAX, 2^63
        "(6, -9223372036854775807 - 1, -9223372036854775808.0), "  // INT64_MIN, -2^63
        "(7, 1, 1.0)");
  }

  /// The `id` column of `sql`, requiring planner on and off to agree.
  std::vector<std::int64_t> ids(const std::string& sql) {
    expect_planner_matches_scan(db, sql);
    std::vector<std::int64_t> out;
    for (const Row& row : db.execute(sql).rows) out.push_back(row[0].as_int());
    return out;
  }

  void expect_exact_answers() {
    using Ids = std::vector<std::int64_t>;
    EXPECT_EQ(ids("SELECT id FROM big WHERE i = 9007199254740992"), Ids{1});
    EXPECT_EQ(ids("SELECT id FROM big WHERE i = 9007199254740993"), Ids{2});
    EXPECT_EQ(ids("SELECT id FROM big WHERE i = 9223372036854775807"), Ids{5});
    EXPECT_EQ(ids("SELECT id FROM big WHERE r = 9007199254740993"), Ids{});
    EXPECT_EQ(ids("SELECT id FROM big WHERE r = 9007199254740992"), (Ids{1, 2}));
    EXPECT_EQ(ids("SELECT id FROM big WHERE i = r ORDER BY id"), (Ids{1, 3, 6, 7}));
    EXPECT_EQ(ids("SELECT id FROM big WHERE i > r ORDER BY id"), Ids{2});
    EXPECT_EQ(ids("SELECT id FROM big ORDER BY i"), (Ids{6, 4, 3, 7, 1, 2, 5}));
    EXPECT_EQ(ids("SELECT id FROM big ORDER BY i DESC"), (Ids{5, 2, 1, 7, 3, 4, 6}));
    EXPECT_EQ(ids("SELECT a.id FROM big a, big b WHERE a.i = b.r ORDER BY a.id, b.id"),
              (Ids{1, 1, 3, 6, 7}));
  }
};

TEST_F(NumericBoundaryTest, ScansCompareExactly) { expect_exact_answers(); }

TEST_F(NumericBoundaryTest, IndexProbesCompareExactly) {
  db.execute("CREATE INDEX big_i ON big (i)");
  db.execute("CREATE INDEX big_r ON big (r)");
  const auto probes = db.plans_index_probe();
  expect_exact_answers();
  EXPECT_GT(db.plans_index_probe(), probes);
  // The write path probes the same index.
  EXPECT_EQ(db.execute("UPDATE big SET r = 0.0 WHERE i = 9007199254740993").affected_rows, 1u);
  EXPECT_EQ(db.execute("DELETE FROM big WHERE i = 9007199254740992").affected_rows, 1u);
  EXPECT_EQ(ids("SELECT id FROM big WHERE i >= 9007199254740992 ORDER BY id"),
            (std::vector<std::int64_t>{2, 5}));
  EXPECT_EQ(ids("SELECT id FROM big WHERE r = 0"), (std::vector<std::int64_t>{2}));
}

// --- INT range edges: overflow fails the statement, nothing saturates --------

class IntEdgeTest : public DbTest {
 protected:
  void SetUp() override {
    DbTest::SetUp();
    db.execute("CREATE TABLE t (v INT)");
    db.execute("INSERT INTO t VALUES (1)");
  }

  Value one(const std::string& sql) {
    const ResultSet rows = db.execute(sql);
    EXPECT_EQ(rows.row_count(), 1u) << sql;
    return rows.row_count() == 0 ? Value::null() : rows.rows[0][0];
  }
};

TEST_F(IntEdgeTest, ArithmeticOverflowFailsTheStatement) {
  EXPECT_THROW(db.execute("SELECT 9223372036854775807 + v FROM t"), Error);
  EXPECT_THROW(db.execute("SELECT (-9223372036854775807 - 1) - v FROM t"), Error);
  EXPECT_THROW(db.execute("SELECT 4611686018427387904 * (v + 1) FROM t"), Error);
  EXPECT_THROW(db.execute("SELECT (-9223372036854775807 - 1) / -1 FROM t"), Error);
  EXPECT_THROW(db.execute("SELECT -((-9223372036854775807 - 1) * v) FROM t"), Error);
  // The results that fit are still exact.
  EXPECT_EQ(one("SELECT 9223372036854775806 + v FROM t").as_int(), kMax);
  EXPECT_EQ(one("SELECT (-9223372036854775807 - 1) * v FROM t").as_int(), kMin);
  EXPECT_EQ(one("SELECT (-9223372036854775807 - 1) / 1 FROM t").as_int(), kMin);
  EXPECT_EQ(one("SELECT -(9223372036854775807 * v) FROM t").as_int(), -kMax);
  EXPECT_EQ(one("SELECT (-9223372036854775807 - 1) % -1 FROM t").as_int(), 0);
  EXPECT_EQ(one("SELECT -7 % -1 FROM t").as_int(), 0);
  // A write whose expression overflows changes nothing.
  EXPECT_THROW(db.execute("UPDATE t SET v = v + 9223372036854775807"), Error);
  EXPECT_EQ(one("SELECT v FROM t").as_int(), 1);
}

TEST_F(IntEdgeTest, LiteralPastInt64MaxReadsAsReal) {
  db.execute("INSERT INTO t VALUES (9223372036854775807)");
  EXPECT_EQ(db.execute("SELECT v FROM t WHERE v = 9223372036854775808").row_count(), 0u);
  EXPECT_EQ(db.execute("SELECT v FROM t WHERE v < 9223372036854775808").row_count(), 2u);
  const Value big = one("SELECT 18446744073709551616 FROM t WHERE v = 1");
  EXPECT_EQ(big.type(), Type::kReal);
  EXPECT_EQ(big.as_real(), 18446744073709551616.0);
  EXPECT_EQ(one("SELECT 9223372036854775807 FROM t WHERE v = 1").type(), Type::kInt);
}

TEST_F(IntEdgeTest, OutOfRangeNumericTextStaysText) {
  db.execute("INSERT INTO t VALUES ('99999999999999999999'), ('-99999999999999999999')");
  db.execute("INSERT INTO t VALUES ('9223372036854775807'), ('-9223372036854775808')");
  const ResultSet rows = db.execute("SELECT v FROM t");
  ASSERT_EQ(rows.row_count(), 5u);
  EXPECT_EQ(rows.rows[1][0].type(), Type::kText);
  EXPECT_EQ(rows.rows[1][0].as_text(), "99999999999999999999");
  EXPECT_EQ(rows.rows[2][0].type(), Type::kText);
  EXPECT_EQ(rows.rows[2][0].as_text(), "-99999999999999999999");
  EXPECT_EQ(rows.rows[3][0].as_int(), kMax);
  EXPECT_EQ(rows.rows[4][0].as_int(), kMin);
  EXPECT_EQ(db.execute("SELECT v FROM t WHERE v = 9223372036854775807").row_count(), 1u);
}

TEST_F(IntEdgeTest, RealOutsideIntRangeIsRefusedByAnIntColumn) {
  EXPECT_THROW(db.execute("INSERT INTO t VALUES (100000000000000000000000.0)"), Error);
  EXPECT_THROW(db.execute("INSERT INTO t VALUES (-100000000000000000000000.0)"), Error);
  EXPECT_THROW(db.execute("INSERT INTO t VALUES (9223372036854775808)"), Error);
  EXPECT_EQ(db.execute("SELECT v FROM t").row_count(), 1u);
  EXPECT_EQ(one("SELECT v FROM t").as_int(), 1);
  // -2^63 is INT64_MIN exactly, so it fits.
  db.execute("INSERT INTO t VALUES (-9223372036854775808.0)");
  EXPECT_EQ(db.execute("SELECT v FROM t WHERE v = -9223372036854775807 - 1").row_count(), 1u);

  EXPECT_THROW((void)Value(std::numeric_limits<double>::quiet_NaN()).as_int(), Error);
  EXPECT_THROW((void)Value(std::numeric_limits<double>::infinity()).as_int(), Error);
  EXPECT_THROW((void)Value(kTwo63).as_int(), Error);
  EXPECT_EQ(Value(-kTwo63).as_int(), kMin);
  EXPECT_EQ(Value(-2.9).as_int(), -2);
}

// --- index maintenance across writes ---------------------------------------

TEST_F(PlannerTest, InsertAddsRowsToExistingIndex) {
  db.execute(
      "INSERT INTO nodes (mac, name, membership, rack, rank, ip, comment) VALUES "
      "('00:50:8b:aa:bb:cc', 'compute-1-0', 2, 1, 0, '10.255.255.200', '')");
  const ResultSet r = db.execute("SELECT name FROM nodes WHERE ip = '10.255.255.200'");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "compute-1-0");
  expect_planner_matches_scan(db, "SELECT name FROM nodes WHERE membership = 2");
}

TEST_F(PlannerTest, UpdateMovesRowBetweenIndexBuckets) {
  db.execute("UPDATE nodes SET ip = '10.0.0.99' WHERE name = 'compute-0-2'");
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE ip = '10.255.255.243'").row_count(), 0u);
  const ResultSet r = db.execute("SELECT name FROM nodes WHERE ip = '10.0.0.99'");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "compute-0-2");
  // Setting an indexed column to NULL removes the row from the index.
  db.execute("UPDATE nodes SET ip = NULL WHERE name = 'compute-0-2'");
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE ip = '10.0.0.99'").row_count(), 0u);
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE ip IS NULL").row_count(), 1u);
  expect_planner_matches_scan(db, "SELECT name FROM nodes WHERE ip = '10.255.255.245'");
}

TEST_F(PlannerTest, DeleteRemovesRowsFromIndex) {
  db.execute("DELETE FROM nodes WHERE membership = 2");
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE membership = 2").row_count(), 0u);
  // Surviving rows keep correct (re-numbered) index entries.
  const ResultSet r = db.execute("SELECT name FROM nodes WHERE ip = '10.255.255.246'");
  ASSERT_EQ(r.row_count(), 1u);
  EXPECT_EQ(r.rows[0][0].as_text(), "web-1-0");
  expect_planner_matches_scan(db, "SELECT name FROM nodes WHERE membership = 4");
}

TEST_F(PlannerTest, DropTableDiscardsIndexesAndRecreateStartsFresh) {
  db.execute("DROP TABLE nodes");
  db.execute("CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, ip TEXT)");
  db.execute("CREATE INDEX nodes_ip ON nodes (ip)");
  db.execute("INSERT INTO nodes (name, ip) VALUES ('a', '1.2.3.4')");
  const auto before = db.plans_index_probe();
  EXPECT_EQ(db.execute("SELECT name FROM nodes WHERE ip = '1.2.3.4'").row_count(), 1u);
  EXPECT_EQ(db.plans_index_probe(), before + 1);
}

TEST_F(DbTest, CreateIndexErrors) {
  EXPECT_THROW(db.execute("CREATE INDEX i ON ghosts (name)"), LookupError);
  EXPECT_THROW(db.execute("CREATE INDEX i ON nodes (ghost)"), LookupError);
  EXPECT_THROW(db.execute("CREATE INDEX i ON nodes ()"), ParseError);
  EXPECT_THROW(db.execute("CREATE INDEX i nodes (ip)"), ParseError);
  // Re-creating an index is idempotent, with or without IF NOT EXISTS.
  EXPECT_NO_THROW(db.execute("CREATE INDEX i ON nodes (ip)"));
  EXPECT_NO_THROW(db.execute("CREATE INDEX i ON nodes (ip)"));
  EXPECT_NO_THROW(db.execute("CREATE INDEX IF NOT EXISTS i ON nodes (ip)"));
}

TEST_F(DbTest, TableIndexUnitBehaviour) {
  load_paper_tables();
  db.execute("CREATE INDEX nodes_ip ON nodes (ip)");
  const Table& nodes = db.table("nodes");
  // The PRIMARY KEY column is indexed automatically at CREATE TABLE.
  EXPECT_TRUE(nodes.has_index_on(0));
  const auto cols = nodes.indexed_columns();
  EXPECT_NE(std::find(cols.begin(), cols.end(), "id"), cols.end());
  EXPECT_NE(std::find(cols.begin(), cols.end(), "ip"), cols.end());
  // Readers probe through a point-in-time view pinned at a commit ts.
  const auto reader = nodes.reader(db.mvcc_status().commit_ts);
  const auto hits = reader.probe_rows(*nodes.column_index("ip"), Value("10.1.1.1"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ((*hits[0])[2].as_text(), "frontend-0");
  // Probing a column with no index is a caller bug.
  EXPECT_THROW((void)reader.probe_rows(*nodes.column_index("comment"), Value("x")), StateError);
}

TEST_F(DbTest, ReaderScansOnlyTheSlotsAllocatedBeforeIt) {
  // memberships holds 6 rows in a 256-slot chunk: a view enumerates those
  // 6, and rows inserted after it was taken stay invisible to it.
  load_paper_tables();
  const Table& memberships = db.table("memberships");
  const std::uint64_t before_ts = db.mvcc_status().commit_ts;
  const auto before = memberships.reader(before_ts);
  EXPECT_EQ(before.visible_rows().size(), 6u);
  db.execute("INSERT INTO memberships (name) VALUES ('late')");
  db.execute("DELETE FROM memberships WHERE id = 1");
  const auto rows = before.visible_rows();
  ASSERT_EQ(rows.size(), 6u);
  EXPECT_EQ((*rows[0])[1].as_text(), "Frontend");
  EXPECT_EQ(before.visible(6), nullptr);  // the late row's slot
  const auto after = memberships.reader(db.mvcc_status().commit_ts);
  const auto now = after.visible_rows();
  ASSERT_EQ(now.size(), 6u);
  EXPECT_EQ((*now.back())[1].as_text(), "late");
  EXPECT_EQ(memberships.stats().slots, 7u);
}

// --- prepared statements and the LRU cache ----------------------------------

TEST_F(DbTest, StatementCacheHitsOnRepeatedSql) {
  load_paper_tables();
  const auto misses_before = db.statement_cache_misses();
  const auto hits_before = db.statement_cache_hits();
  db.execute("SELECT name FROM nodes WHERE rack = 1");
  db.execute("SELECT name FROM nodes WHERE rack = 1");
  db.execute("SELECT name FROM nodes WHERE rack = 1");
  EXPECT_EQ(db.statement_cache_misses(), misses_before + 1);
  EXPECT_EQ(db.statement_cache_hits(), hits_before + 2);
}

TEST_F(DbTest, PrepareReturnsReusableStatement) {
  load_paper_tables();
  const Database::PreparedStatement stmt =
      db.prepare("SELECT name FROM nodes WHERE membership = 2");
  EXPECT_EQ(db.execute(*stmt).row_count(), 4u);
  db.execute("DELETE FROM nodes WHERE name = 'compute-0-3'");
  EXPECT_EQ(db.execute(*stmt).row_count(), 3u);
}

TEST_F(DbTest, PreparedStatementSurvivesDropAndRecreate) {
  load_paper_tables();
  const Database::PreparedStatement stmt = db.prepare("SELECT name FROM nodes");
  EXPECT_EQ(db.execute(*stmt).row_count(), 8u);
  db.execute("DROP TABLE nodes");
  EXPECT_THROW(db.execute(*stmt), LookupError);  // parses fine, table is gone
  db.execute("CREATE TABLE nodes (name TEXT)");
  db.execute("INSERT INTO nodes VALUES ('solo')");
  EXPECT_EQ(db.execute(*stmt).row_count(), 1u);
}

TEST_F(DbTest, PreparedStatementRebindsToTheRecreatedSchema) {
  load_paper_tables();
  const Database::PreparedStatement stmt = db.prepare("SELECT * FROM nodes WHERE name = ?");
  ASSERT_EQ(db.execute(*stmt, {"web-1-0"}).rows.at(0).at(2).as_text(), "web-1-0");
  db.execute("DROP TABLE nodes");
  db.execute("CREATE TABLE nodes (name TEXT, rack INT)");  // other columns, other order
  db.execute("INSERT INTO nodes VALUES ('solo', 3)");
  const ResultSet rows = db.execute(*stmt, {"solo"});
  EXPECT_EQ(rows.columns, (std::vector<std::string>{"name", "rack"}));
  ASSERT_EQ(rows.row_count(), 1u);
  EXPECT_EQ(rows.rows[0][1].as_int(), 3);
  db.execute("DROP TABLE nodes");
  db.execute("CREATE TABLE nodes (id INT)");  // no name column: the rebind fails
  EXPECT_THROW(db.execute(*stmt, {"solo"}), LookupError);
}

TEST_F(DbTest, PlaceholdersBindValuesInTextOrder) {
  db.execute("INSERT INTO nodes (name, rack, rank, comment) VALUES (?, ?, ?, ?)",
             {"a'b", 1, 2, Value::null()});
  db.execute("INSERT INTO nodes (name, rack) VALUES (?, ? + 1)", {"c", 4});
  db.execute("UPDATE nodes SET rank = ? WHERE name = ?", {9, "c"});
  const ResultSet rows = db.execute("SELECT name, rack, rank, comment FROM nodes WHERE rack < ?",
                                    {std::int64_t{10}});
  ASSERT_EQ(rows.row_count(), 2u);
  EXPECT_EQ(rows.rows[0][0].as_text(), "a'b");
  EXPECT_TRUE(rows.rows[0][3].is_null());
  EXPECT_EQ(rows.rows[1][1].as_int(), 5);
  EXPECT_EQ(rows.rows[1][2].as_int(), 9);
  EXPECT_EQ(db.execute("DELETE FROM nodes WHERE rank = ?", {2}).affected_rows, 1u);
  EXPECT_EQ(db.prepare("SELECT name FROM nodes WHERE rack = ? AND rank = ?")->param_count(), 2u);
}

TEST_F(DbTest, WrongParameterCountThrowsBeforeAnythingChanges) {
  const auto revision = db.revision("nodes");
  EXPECT_THROW(db.execute("INSERT INTO nodes (name, rack) VALUES (?, ?)", {"x"}), StateError);
  EXPECT_THROW(db.execute("INSERT INTO nodes (name) VALUES (?)", {"x", "y"}), StateError);
  EXPECT_THROW(db.execute("UPDATE nodes SET rack = ?"), StateError);
  EXPECT_THROW(db.execute("SELECT name FROM nodes WHERE rack = ?"), StateError);
  EXPECT_THROW(db.read_view().execute("SELECT name FROM nodes WHERE rack = ?"), StateError);
  EXPECT_EQ(db.execute("SELECT name FROM nodes").row_count(), 0u);
  EXPECT_EQ(db.revision("nodes"), revision);
  EXPECT_EQ(db.exclusive_lock_acquisitions(), 2u);  // the fixture's two CREATE TABLEs
}

TEST_F(DbTest, InsertValuesReferenceNoColumnAndCountsAreCheckedFirst) {
  // Binding rejects the statement before its first row lands.
  EXPECT_THROW(db.execute("INSERT INTO nodes (name) VALUES ('a'), (name)"), LookupError);
  EXPECT_THROW(db.execute("INSERT INTO nodes (name, rack) VALUES ('a', 1), ('b')"), StateError);
  EXPECT_EQ(db.execute("SELECT name FROM nodes").row_count(), 0u);
}

TEST_F(DbTest, InsertRowsRunsOneInsertPerGroupAsOneStatement) {
  const Database::PreparedStatement insert =
      db.prepare("INSERT INTO nodes (name, rack) VALUES (?, ?)");
  const std::vector<Value> rows = {"a", 1, "b", 2, "c", 3};
  const auto revision = db.revision("nodes");
  int notified = 0;
  const auto subscription = db.journal().subscribe("nodes", [&](std::string_view, std::uint64_t) { ++notified; });
  EXPECT_EQ(db.insert_rows(*insert, rows).affected_rows, 3u);
  db.journal().unsubscribe(subscription);
  EXPECT_EQ(notified, 1);  // one statement, one notification
  EXPECT_EQ(db.revision("nodes"), revision + 3);
  EXPECT_EQ(db.query_column("SELECT name FROM nodes WHERE rack > 1"),
            (std::vector<std::string>{"b", "c"}));
  EXPECT_THROW(db.insert_rows(*insert, std::span<const Value>(rows).first(3)), StateError);
  EXPECT_THROW(db.insert_rows(*db.prepare("SELECT name FROM nodes WHERE rack = ?"), rows),
               StateError);
  EXPECT_EQ(db.execute("SELECT name FROM nodes").row_count(), 3u);
}

TEST_F(DbTest, BoundTextIsStoredVerbatim) {
  // Values that no quoting helper could splice safely: a backslash before
  // a letter or a quote, a trailing backslash, quotes, an embedded NUL, and
  // 64 KiB of text.
  const std::vector<std::string> values = {
      "a\\nb", "C:\\", "x\\'y", "it's", "''", std::string("nul\0in", 6),
      std::string(64 * 1024, 'k') + "\\'",
  };
  for (const std::string& value : values)
    db.execute("INSERT INTO nodes (name, comment) VALUES (?, ?)", {value, value});
  const ResultSet rows = db.execute("SELECT name, comment FROM nodes ORDER BY id");
  ASSERT_EQ(rows.row_count(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(rows.rows[i][0].as_text(), values[i]);
    EXPECT_EQ(rows.rows[i][1].as_text(), values[i]);
    EXPECT_EQ(db.execute("SELECT id FROM nodes WHERE name = ?", {values[i]}).row_count(), 1u);
  }
}

TEST_F(DbTest, StatementCacheEvictsLeastRecentlyUsed) {
  load_paper_tables();
  db.execute("SELECT name FROM nodes WHERE rank = -1");
  // Flood the cache past capacity with distinct statements.
  for (int i = 0; i < 300; ++i)
    db.execute("SELECT name FROM nodes WHERE rank = " + std::to_string(i));
  EXPECT_LE(db.statement_cache_size(), 256u);
  // The first statement was least recently used and must have been evicted.
  const auto misses_before = db.statement_cache_misses();
  db.execute("SELECT name FROM nodes WHERE rank = -1");
  EXPECT_EQ(db.statement_cache_misses(), misses_before + 1);
}

TEST_F(DbTest, StatementCacheKeyIsExactText) {
  load_paper_tables();
  const auto misses_before = db.statement_cache_misses();
  db.execute("SELECT name FROM nodes WHERE rack = 1");
  db.execute("select name from nodes where rack = 1");  // different text, new entry
  EXPECT_EQ(db.statement_cache_misses(), misses_before + 2);
}

// --- AUTO_INCREMENT's end ------------------------------------------------------

TEST_F(DbTest, AutoIncrementPastInt64MaxFailsTheInsert) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  db.execute("INSERT INTO nodes (id, name) VALUES (?, 'max')", {kMax - 1});
  db.execute("INSERT INTO nodes (name) VALUES ('last')");  // takes INT64_MAX itself
  EXPECT_EQ(db.query_column("SELECT id FROM nodes WHERE name = 'last'"),
            std::vector<std::string>{std::to_string(kMax)});
  const auto revision = db.revision("nodes");
  EXPECT_THROW(db.execute("INSERT INTO nodes (name) VALUES ('past')"), StateError);
  EXPECT_EQ(db.revision("nodes"), revision);
  EXPECT_EQ(db.execute("SELECT name FROM nodes").row_count(), 2u);
  // A key given by hand still goes in; the cursor stays at its end.
  db.execute("INSERT INTO nodes (id, name) VALUES (5, 'hand')");
  EXPECT_THROW(db.execute("INSERT INTO nodes (name) VALUES ('past')"), StateError);
  EXPECT_EQ(db.table("nodes").next_auto(), Table::kAutoExhausted);
}

TEST_F(DbTest, AutoIncrementKeySetToInt64MaxByHandEndsTheSequence) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  db.execute("INSERT INTO memberships (id, name) VALUES (?, 'max')", {kMax});
  EXPECT_THROW(db.execute("INSERT INTO memberships (name) VALUES ('next')"), StateError);
  // An UPDATE that sets the key by hand ends it the same way.
  db.execute("INSERT INTO nodes (name) VALUES ('a')");
  db.execute("UPDATE nodes SET id = ? WHERE name = 'a'", {kMax});
  EXPECT_THROW(db.execute("INSERT INTO nodes (name) VALUES ('b')"), StateError);
}

// --- the change journal (DESIGN.md §10) -------------------------------------

TEST_F(DbTest, JournalBumpsRevisionOncePerRow) {
  const auto base = db.revision("nodes");  // CREATE TABLE truncated the channel
  load_paper_tables();
  EXPECT_EQ(db.revision("nodes"), base + 8);  // one revision per inserted row
  db.execute("UPDATE nodes SET rack = 9 WHERE membership = 2");  // 4 rows
  EXPECT_EQ(db.revision("nodes"), base + 12);
  EXPECT_EQ(db.revision("NODES"), base + 12);  // channel names are case-insensitive
  EXPECT_EQ(db.revision("never_written"), 0u);
}

TEST_F(DbTest, JournalSinceReturnsExactRowDelta) {
  load_paper_tables();
  const auto cursor = db.revision("nodes");
  db.execute("INSERT INTO nodes (name, rack) VALUES ('new-node', 2)");  // id 9
  db.execute("DELETE FROM nodes WHERE name = 'compute-0-3'");           // id 7
  const auto delta = db.since("nodes", cursor);
  EXPECT_FALSE(delta.truncated);
  EXPECT_EQ(delta.seq, db.revision("nodes"));
  ASSERT_EQ(delta.records.size(), 2u);
  EXPECT_EQ(delta.records[0].op, ChangeOp::kInsert);
  EXPECT_EQ(delta.records[0].pk.as_int(), 9);
  EXPECT_EQ(delta.records[1].op, ChangeOp::kDelete);
  EXPECT_EQ(delta.records[1].pk.as_int(), 7);
  // A cursor already at the head gets an empty, non-truncated delta.
  const auto current = db.since("nodes", delta.seq);
  EXPECT_FALSE(current.truncated);
  EXPECT_TRUE(current.records.empty());
}

TEST_F(DbTest, JournalUpdateReassigningPkSplitsIntoDeletePlusInsert) {
  load_paper_tables();
  const auto cursor = db.revision("nodes");
  db.execute("UPDATE nodes SET id = 100 WHERE name = 'web-1-0'");  // id 8 -> 100
  const auto delta = db.since("nodes", cursor);
  ASSERT_EQ(delta.records.size(), 2u);
  EXPECT_EQ(delta.records[0].op, ChangeOp::kDelete);
  EXPECT_EQ(delta.records[0].pk.as_int(), 8);
  EXPECT_EQ(delta.records[1].op, ChangeOp::kInsert);
  EXPECT_EQ(delta.records[1].pk.as_int(), 100);
}

TEST_F(DbTest, JournalTruncationForcesFullRescan) {
  db.journal().set_capacity(4);
  const auto base = db.revision("nodes");
  load_paper_tables();  // 8 node rows overflow the bound of 4
  const auto stale = db.since("nodes", base);
  EXPECT_TRUE(stale.truncated);
  EXPECT_TRUE(stale.records.empty());
  EXPECT_EQ(stale.seq, base + 8);  // the cursor can still advance
  // A cursor inside the retained window reads incrementally.
  const auto recent = db.since("nodes", base + 4);
  EXPECT_FALSE(recent.truncated);
  EXPECT_EQ(recent.records.size(), 4u);
  // Shrinking the capacity trims immediately: the window narrows.
  db.journal().set_capacity(2);
  EXPECT_TRUE(db.since("nodes", base + 4).truncated);
  EXPECT_FALSE(db.since("nodes", base + 6).truncated);
}

TEST_F(DbTest, JournalNotifiesOncePerStatement) {
  std::vector<std::pair<std::string, std::uint64_t>> events;
  const std::size_t id = db.journal().subscribe("nodes", [&](std::string_view channel,
                                                   std::uint64_t revision) {
    events.emplace_back(std::string(channel), revision);
  });
  const auto base = db.revision("nodes");
  load_paper_tables();  // one 8-row INSERT into nodes, one into memberships
  ASSERT_EQ(events.size(), 1u);  // batched: one notification for 8 rows
  EXPECT_EQ(events[0].first, "nodes");
  EXPECT_EQ(events[0].second, base + 8);
  db.execute("UPDATE nodes SET rack = 5 WHERE rack = 99");  // matches nothing
  EXPECT_EQ(events.size(), 1u);  // zero rows affected: no notification
  db.journal().unsubscribe(id);
  db.execute("DELETE FROM nodes WHERE name = 'web-1-0'");
  EXPECT_EQ(events.size(), 1u);  // unsubscribed: silence
}

TEST_F(DbTest, JournalWildcardSubscriberSeesEveryChannel) {
  std::vector<std::string> channels;
  db.journal().subscribe(ChangeJournal::kAllChannels,
               [&](std::string_view channel, std::uint64_t) {
                 channels.emplace_back(channel);
               });
  load_paper_tables();
  db.execute("CREATE TABLE scratch (x INT)");
  db.execute("DROP TABLE scratch");
  EXPECT_EQ(channels, (std::vector<std::string>{"nodes", "memberships", "scratch", "scratch"}));
}

TEST_F(DbTest, JournalCallbackMayReenterDatabase) {
  // Subscribers run after the table lock is released, so a callback can
  // issue its own queries — the pattern every config consumer relies on.
  std::size_t rows_seen = 0;
  db.journal().subscribe("nodes", [&](std::string_view, std::uint64_t) {
    rows_seen = db.execute("SELECT id FROM nodes").row_count();
  });
  load_paper_tables();
  EXPECT_EQ(rows_seen, 8u);
}

TEST_F(DbTest, JournalTableWithoutPrimaryKeyAlwaysTruncates) {
  db.execute("CREATE TABLE site (name TEXT, value TEXT)");  // no PRIMARY KEY
  const auto cursor = db.revision("site");
  db.execute("INSERT INTO site VALUES ('Frontend', '10.1.1.1')");
  EXPECT_GT(db.revision("site"), cursor);  // the revision still moves...
  EXPECT_TRUE(db.since("site", cursor).truncated);  // ...but rows have no identity
}

TEST_F(DbTest, JournalDdlTruncatesChannel) {
  load_paper_tables();
  const auto cursor = db.revision("memberships");
  db.execute("DROP TABLE memberships");
  EXPECT_TRUE(db.since("memberships", cursor).truncated);
  db.execute("CREATE TABLE memberships (id INT PRIMARY KEY)");
  EXPECT_TRUE(db.since("memberships", cursor).truncated);
  // Conditional DDL that does nothing journals nothing.
  const auto after = db.revision("memberships");
  db.execute("CREATE TABLE IF NOT EXISTS memberships (id INT PRIMARY KEY)");
  db.execute("DROP TABLE IF EXISTS no_such_table");
  EXPECT_EQ(db.revision("memberships"), after);
  EXPECT_EQ(db.revision("no_such_table"), 0u);
}

TEST_F(DbTest, JournalTouchSignalsCoarseRescanAndNotifies) {
  std::size_t notified = 0;
  db.journal().subscribe("kickstart.graph", [&](std::string_view, std::uint64_t) { ++notified; });
  db.journal().touch("kickstart.graph");
  EXPECT_EQ(notified, 1u);
  EXPECT_EQ(db.revision("kickstart.graph"), 1u);
  EXPECT_TRUE(db.since("kickstart.graph", 0).truncated);  // no row identity
  EXPECT_FALSE(db.since("kickstart.graph", 1).truncated);  // current cursor is fine
}

}  // namespace
}  // namespace rocks::sqldb
