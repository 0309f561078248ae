#include "services/incremental.hpp"

#include <algorithm>

namespace rocks::services {

bool SortKeyLess::operator()(const sqldb::Row& a, const sqldb::Row& b) const {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const int cmp = a[i].compare(b[i]);
    if (cmp != 0) return cmp < 0;
  }
  return a.size() < b.size();
}

std::size_t JournalCursor::catch_up(sqldb::Database& db, const Rebuild& rebuild,
                                    const Apply& apply) {
  std::vector<std::uint64_t> rescan_now;
  rescan_now.reserve(rescan_tables_.size());
  for (const std::string& table : rescan_tables_) rescan_now.push_back(db.revision(table));

  // Read the cursor *before* any query: changes committed between since()
  // and the rebuild or re-fetch are applied again on the next call.
  support::ChannelDelta<sqldb::ChangeRecord> delta;
  if (primed_ && rescan_now == rescan_cursors_) {
    delta = db.since(table_, cursor_);
  } else {
    delta.truncated = true;
    delta.seq = db.revision(table_);
  }
  std::size_t applied = 0;
  try {
    bool full = delta.truncated;
    if (!full && !delta.records.empty()) {
      // One pinned read view for the whole delta: every re-fetch resolves
      // against the same committed state, so a writer landing mid-delta
      // cannot make two re-fetched rows disagree.
      sqldb::ReadView view = db.read_view();
      for (const sqldb::ChangeRecord& record : delta.records) {
        if (!apply(view, record)) {
          full = true;
          break;
        }
        ++applied;
      }
    }
    if (full) {
      rebuild(db);
      applied = 0;
    }
  } catch (...) {
    primed_ = false;
    throw;
  }
  cursor_ = delta.seq;
  rescan_cursors_ = std::move(rescan_now);
  primed_ = true;
  return applied;
}

std::string IncrementalReport::render(sqldb::Database& db) {
  if (!select_all_) {
    select_all_ = db.prepare(spec_.select_all);
    select_one_ = db.prepare(spec_.select_one);
  }
  const std::size_t applied = cursor_.catch_up(
      db, [this](sqldb::Database& db) { rebuild(db); },
      [this](sqldb::ReadView& view, const sqldb::ChangeRecord& record) {
        apply_one(view, record);
        return true;
      });
  if (applied > 0) ++delta_applies_;

  std::string out = spec_.header;
  out.reserve(std::max(out.size(), last_render_size_));  // one allocation, not log N
  for (const auto& [key, line] : lines_) out += line;
  last_render_size_ = out.size();
  return out;
}

void IncrementalReport::rebuild(sqldb::Database& db) {
  lines_.clear();
  key_by_pk_.clear();
  const sqldb::ResultSet rows = db.execute(*select_all_);
  for (std::size_t i = 0; i < rows.row_count(); ++i) {
    sqldb::Row key = spec_.key_of(rows, i);
    // The key's tie-break column is the PK (unique), so collisions cannot
    // happen in a rebuild; last-write-wins keeps this total anyway.
    key_by_pk_.insert_or_assign(key.back(), key);
    lines_.insert_or_assign(std::move(key), spec_.render_row(rows, i));
  }
  ++full_rebuilds_;
}

void IncrementalReport::apply_one(sqldb::ReadView& view, const sqldb::ChangeRecord& record) {
  if (record.op == sqldb::ChangeOp::kDelete) {
    erase_pk(record.pk);
    return;
  }
  // Insert or update: re-fetch the row's state as of the pinned view. A
  // stale record (row since deleted, or filtered out) yields zero rows.
  const sqldb::ResultSet rows = view.execute(*select_one_, {record.pk});
  if (rows.row_count() == 0) {
    erase_pk(record.pk);
    return;
  }
  sqldb::Row key = spec_.key_of(rows, 0);
  upsert(record.pk, std::move(key), spec_.render_row(rows, 0));
}

void IncrementalReport::upsert(const sqldb::Value& pk, sqldb::Row key, std::string line) {
  const auto it = key_by_pk_.find(pk);
  if (it != key_by_pk_.end()) {
    if (!SortKeyLess{}(it->second, key) && !SortKeyLess{}(key, it->second)) {
      // Key unchanged: replace the line in place.
      lines_[key] = std::move(line);
      return;
    }
    lines_.erase(it->second);  // key changed: the line moves within the file
    key_by_pk_.erase(it);
  }
  key_by_pk_.insert_or_assign(pk, key);
  lines_.insert_or_assign(std::move(key), std::move(line));
}

void IncrementalReport::erase_pk(const sqldb::Value& pk) {
  const auto it = key_by_pk_.find(pk);
  if (it == key_by_pk_.end()) return;  // idempotent: already gone
  lines_.erase(it->second);
  key_by_pk_.erase(it);
}

}  // namespace rocks::services
