#include "batch/accounting.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "support/strings.hpp"

namespace rocks::batch {

std::string_view job_state_name(JobState state) {
  switch (state) {
    case JobState::kQueued: return "Q";
    case JobState::kRunning: return "R";
    case JobState::kComplete: return "C";
    case JobState::kCancelled: return "X";
  }
  return "?";
}

void Accounting::ensure_schema(sqldb::Database& db) {
  if (db.has_table("sched_accounting")) return;
  db.execute(
      "CREATE TABLE sched_accounting ("
      "id INT PRIMARY KEY, "
      "name TEXT, state TEXT, reason TEXT, "
      "submitted REAL, started REAL, ended REAL, "
      "nodes_used INT, retries INT)");
}

void Accounting::append(sqldb::Database& db, const AccountingRecord& record) {
  db.execute(
      "INSERT INTO sched_accounting (id, name, state, reason, submitted, "
      "started, ended, nodes_used, retries) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
      {static_cast<std::int64_t>(record.id), record.name, job_state_name(record.state),
       record.reason, record.submitted, record.started, record.ended,
       static_cast<std::int64_t>(record.nodes_used), record.retries});
}

bool Accounting::has(sqldb::Database& db, JobId id) {
  const sqldb::ResultSet rows =
      db.execute("SELECT id FROM sched_accounting WHERE id = ?", {static_cast<std::int64_t>(id)});
  return rows.row_count() > 0;
}

std::optional<AccountingRecord> Accounting::lookup(sqldb::Database& db, JobId id) {
  const sqldb::ResultSet rows = db.execute(
      "SELECT id, name, state, reason, submitted, started, ended, nodes_used, "
      "retries FROM sched_accounting WHERE id = ?",
      {static_cast<std::int64_t>(id)});
  if (rows.row_count() == 0) return std::nullopt;
  AccountingRecord record;
  record.id = static_cast<JobId>(rows.at(0, "id").as_int());
  record.name = rows.at(0, "name").as_text();
  record.state = rows.at(0, "state").as_text() == job_state_name(JobState::kCancelled)
                     ? JobState::kCancelled
                     : JobState::kComplete;
  record.reason = rows.at(0, "reason").as_text();
  record.submitted = rows.at(0, "submitted").as_real();
  record.started = rows.at(0, "started").as_real();
  record.ended = rows.at(0, "ended").as_real();
  record.nodes_used = static_cast<std::size_t>(rows.at(0, "nodes_used").as_int());
  record.retries = static_cast<int>(rows.at(0, "retries").as_int());
  return record;
}

AccountingTotals Accounting::totals(sqldb::Database& db) {
  AccountingTotals out;
  const sqldb::ResultSet rows = db.execute(
      "SELECT id, state, submitted, started, ended, nodes_used FROM sched_accounting");
  const std::size_t id_col = rows.column_index("id");
  const std::size_t state_col = rows.column_index("state");
  const std::size_t submitted_col = rows.column_index("submitted");
  const std::size_t started_col = rows.column_index("started");
  const std::size_t ended_col = rows.column_index("ended");
  const std::size_t nodes_col = rows.column_index("nodes_used");
  std::unordered_set<std::int64_t> seen;
  seen.reserve(rows.row_count());
  for (std::size_t i = 0; i < rows.row_count(); ++i) {
    const std::int64_t id = rows.at(i, id_col).as_int();
    if (!seen.insert(id).second) ++out.duplicate_ids;
    const bool cancelled =
        rows.at(i, state_col).as_text() == job_state_name(JobState::kCancelled);
    if (cancelled)
      ++out.cancelled;
    else
      ++out.completed;
    const double started = rows.at(i, started_col).as_real();
    if (started >= 0.0) {
      ++out.ran;
      const double ended = rows.at(i, ended_col).as_real();
      out.node_seconds += (ended - started) * rows.at(i, nodes_col).as_real();
      out.total_wait += started - rows.at(i, submitted_col).as_real();
    }
  }
  return out;
}

JobId Accounting::max_id(sqldb::Database& db) {
  const sqldb::ResultSet rows = db.execute("SELECT id FROM sched_accounting");
  JobId max = 0;
  const std::size_t id_col = rows.row_count() ? rows.column_index("id") : 0;
  for (std::size_t i = 0; i < rows.row_count(); ++i)
    max = std::max(max, static_cast<JobId>(rows.at(i, id_col).as_int()));
  return max;
}

std::string Accounting::report(sqldb::Database& db, std::size_t limit) {
  const sqldb::ResultSet rows = db.execute(
      "SELECT id, name, state, reason, submitted, started, ended, nodes_used, "
      "retries FROM sched_accounting");
  std::vector<std::size_t> order(rows.row_count());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  const std::size_t id_col = rows.row_count() ? rows.column_index("id") : 0;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return rows.at(a, id_col).as_int() > rows.at(b, id_col).as_int();
  });
  if (order.size() > limit) order.resize(limit);

  std::string out = "JobID  Name                 State  Reason                Wait      Run  Nodes  Retries\n";
  char line[192];
  for (std::size_t i : order) {
    const double submitted = rows.at(i, "submitted").as_real();
    const double started = rows.at(i, "started").as_real();
    const double ended = rows.at(i, "ended").as_real();
    const double wait = started >= 0.0 ? started - submitted : ended - submitted;
    const double run = started >= 0.0 ? ended - started : 0.0;
    std::snprintf(line, sizeof line, "%5lld  %-19.19s  %-5.5s  %-20.20s  %7.1f  %7.1f  %5lld  %7lld\n",
                  static_cast<long long>(rows.at(i, "id").as_int()),
                  rows.at(i, "name").as_text().c_str(),
                  rows.at(i, "state").as_text().c_str(),
                  rows.at(i, "reason").as_text().c_str(), wait, run,
                  static_cast<long long>(rows.at(i, "nodes_used").as_int()),
                  static_cast<long long>(rows.at(i, "retries").as_int()));
    out += line;
  }
  return out;
}

}  // namespace rocks::batch
