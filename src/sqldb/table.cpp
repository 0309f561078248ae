#include "sqldb/table.hpp"

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::sqldb {

Table::Table(std::string name, std::vector<ColumnDef> columns)
    : name_(std::move(name)), columns_(std::move(columns)), indexes_(columns_.size()) {
  require_state(!columns_.empty(), "a table needs at least one column");
  directory_storage_.push_back(std::make_unique<SlotDirectory>());
  directory_.store(directory_storage_.back().get(), std::memory_order_relaxed);
  for (std::size_t i = 0; i < columns_.size(); ++i)
    if (columns_[i].primary_key) create_index(columns_[i].name);
}

Table::~Table() {
  const SlotDirectory* dir = directory_.load(std::memory_order_relaxed);
  for (std::uint32_t s = 0; s < slots_used_; ++s)
    free_chain(dir->slot(s).head.load(std::memory_order_relaxed));
  for (const Limbo& limbo : limbo_) free_chain(limbo.chain);
}

std::optional<std::size_t> Table::column_index(std::string_view name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i)
    if (strings::iequals(columns_[i].name, name)) return i;
  return std::nullopt;
}

std::optional<std::size_t> Table::primary_key_column() const {
  for (std::size_t i = 0; i < columns_.size(); ++i)
    if (columns_[i].primary_key) return i;
  return std::nullopt;
}

Value Table::coerce(const Value& value, Type type) {
  if (value.is_null()) return value;
  switch (type) {
    case Type::kInt:
      if (value.type() == Type::kText) {
        char* end = nullptr;
        const std::string& text = value.as_text();
        errno = 0;
        const long long parsed = std::strtoll(text.c_str(), &end, 10);
        // Keep text that is not numeric, or past the INT range (lenient,
        // like MySQL would warn).
        if (end != nullptr && *end == '\0' && errno != ERANGE)
          return Value(static_cast<std::int64_t>(parsed));
        return value;
      }
      return Value(value.as_int());
    case Type::kReal:
      if (value.type() == Type::kText) return value;
      return Value(value.as_real());
    case Type::kText:
      if (value.type() == Type::kText) return value;
      return Value(value.to_string());
    case Type::kNull: return value;
  }
  return value;
}

std::uint32_t Table::allocate_slot() {
  const SlotDirectory* current = directory_.load(std::memory_order_relaxed);
  if (slots_used_ == current->capacity()) {
    auto grown = std::make_unique<SlotDirectory>();
    grown->chunks = current->chunks;  // shared: existing slots keep their address
    grown->chunks.push_back(std::make_shared<VersionChunk>());
    directory_storage_.push_back(std::move(grown));
    directory_.store(directory_storage_.back().get(), std::memory_order_seq_cst);
  }
  slots_published_.store(slots_used_ + 1, std::memory_order_seq_cst);
  return static_cast<std::uint32_t>(slots_used_++);
}

RowSlot& Table::slot_ref(std::uint32_t slot) const {
  return directory_.load(std::memory_order_relaxed)->slot(slot);
}

std::int64_t Table::next_auto_after(const Value& key, std::int64_t cursor) {
  if (key.is_null() || cursor == kAutoExhausted) return cursor;
  const std::int64_t taken = key.as_int();
  if (taken == std::numeric_limits<std::int64_t>::max()) return kAutoExhausted;
  return std::max(cursor, taken + 1);
}

std::size_t Table::insert(Row row) {
  if (row.size() != columns_.size())
    throw StateError(strings::cat("insert into ", name_, ": row width ", row.size(),
                                  " != column count ", columns_.size()));
  // Keys, coercion and the cursor are settled before anything changes: a
  // throw leaves the table and its cursor as they were.
  std::int64_t next_auto = next_auto_.load(std::memory_order_seq_cst);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (columns_[i].auto_increment && row[i].is_null()) {
      if (next_auto == kAutoExhausted)
        throw StateError(strings::cat("insert into ", name_, ": AUTO_INCREMENT column ",
                                      columns_[i].name, " has used every key"));
      row[i] = Value(next_auto);
      next_auto = next_auto_after(row[i], next_auto);
    } else {
      row[i] = coerce(row[i], columns_[i].type);
      if (columns_[i].auto_increment) next_auto = next_auto_after(row[i], next_auto);
    }
  }
  next_auto_.store(next_auto, std::memory_order_seq_cst);
  const std::uint32_t slot = allocate_slot();
  auto* version = new RowVersion;
  version->data = std::move(row);  // begin_ts stays kTsUncommitted until commit
  slot_ref(slot).head.store(version, std::memory_order_seq_cst);
  pending_begin_.push_back(version);
  ++versions_;
  live_.push_back(slot);
  live_count_.store(live_.size(), std::memory_order_relaxed);
  slot_position_.resize(slots_used_, kNoPosition);
  slot_position_[slot] = live_.size() - 1;
  for (std::size_t col = 0; col < indexes_.size(); ++col) {
    if (indexes_[col].current == nullptr) continue;
    const Value& key = version->data[col];
    if (!key.is_null()) index_insert(col, key, slot);
  }
  return live_.size() - 1;
}

std::size_t Table::restore_row(Row row) {
  require_state(row.size() == columns_.size(),
                strings::cat("restore into ", name_, ": row width ", row.size(),
                             " != column count ", columns_.size()));
  const std::uint32_t slot = allocate_slot();
  auto* version = new RowVersion;
  version->data = std::move(row);
  version->begin_ts.store(0, std::memory_order_relaxed);  // the base state: every ts sees it
  slot_ref(slot).head.store(version, std::memory_order_seq_cst);
  ++versions_;
  live_.push_back(slot);
  live_count_.store(live_.size(), std::memory_order_relaxed);
  slot_position_.resize(slots_used_, kNoPosition);
  slot_position_[slot] = live_.size() - 1;
  for (std::size_t col = 0; col < indexes_.size(); ++col) {
    if (indexes_[col].current == nullptr) continue;
    const Value& key = version->data[col];
    if (!key.is_null()) index_insert(col, key, slot);
  }
  return live_.size() - 1;
}

void Table::update_row(std::size_t position,
                       const std::vector<std::pair<std::size_t, Value>>& cells) {
  require_state(position < live_.size(), "update_row: row index out of range");
  const std::uint32_t slot = live_[position];
  RowSlot& row_slot = slot_ref(slot);
  RowVersion* old = row_slot.head.load(std::memory_order_relaxed);
  // Coerce, and move the AUTO_INCREMENT cursor past a key set by hand,
  // exactly as insert() does; anything that throws does so before the row
  // changes.
  Row data = old->data;
  std::int64_t next_auto = next_auto_.load(std::memory_order_seq_cst);
  for (const auto& [column, value] : cells) {
    require_state(column < columns_.size(), "update_row: column index out of range");
    data[column] = coerce(value, columns_[column].type);
    if (columns_[column].auto_increment) next_auto = next_auto_after(data[column], next_auto);
  }
  next_auto_.store(next_auto, std::memory_order_seq_cst);
  auto* version = new RowVersion;
  version->data = std::move(data);
  version->older.store(old, std::memory_order_relaxed);
  row_slot.head.store(version, std::memory_order_seq_cst);
  pending_begin_.push_back(version);
  pending_end_.emplace_back(slot, old);
  ++versions_;
  for (const auto& [column, value] : cells) {
    if (indexes_[column].current == nullptr) continue;
    const Value& after = version->data[column];
    if (after.is_null()) continue;  // probes never match NULL; no entry needed
    const Value& before = old->data[column];
    if (!before.is_null() && ValueEqual{}(before, after)) continue;  // key unchanged
    index_insert(column, after, slot);
  }
}

void Table::erase_rows(const std::vector<std::size_t>& sorted_positions) {
  if (sorted_positions.empty()) return;
  for (const std::size_t doomed : sorted_positions)
    require_state(doomed < live_.size(), "erase_rows: index out of range");
  for (const std::size_t doomed : sorted_positions) {
    const std::uint32_t slot = live_[doomed];
    RowVersion* head = slot_ref(slot).head.load(std::memory_order_relaxed);
    pending_end_.emplace_back(slot, head);
  }
  // Order-preserving compaction: surviving positions keep their relative
  // order, exactly like the old rows_.erase() path, so positional WAL
  // records replay identically.
  std::size_t next_doomed = 0;
  std::size_t out = 0;
  for (std::size_t i = 0; i < live_.size(); ++i) {
    if (next_doomed < sorted_positions.size() && sorted_positions[next_doomed] == i) {
      slot_position_[live_[i]] = kNoPosition;
      ++next_doomed;
      continue;
    }
    slot_position_[live_[i]] = out;  // survivors shift left past the gaps
    live_[out++] = live_[i];
  }
  live_.resize(out);
  live_count_.store(live_.size(), std::memory_order_relaxed);
}

std::vector<std::size_t> Table::probe_positions(std::size_t column, const Value& key) const {
  const IndexArray* array =
      column < indexes_.size() ? indexes_[column].current : nullptr;
  if (array == nullptr)
    throw StateError(strings::cat("probe_positions: column ", column, " of ", name_,
                                  " has no hash index"));
  std::vector<std::size_t> positions;
  if (key.is_null()) return positions;  // '=' never matches NULL
  const std::size_t mask = array->buckets.size() - 1;
  for (const IndexEntry* entry =
           array->buckets[key.hash() & mask].load(std::memory_order_relaxed);
       entry != nullptr; entry = entry->next) {
    if (!ValueEqual{}(entry->key, key)) continue;
    if (entry->slot >= slot_position_.size()) continue;
    const std::size_t position = slot_position_[entry->slot];
    if (position == kNoPosition) continue;  // the slot's row left the live set
    // Entries may be stale (a superseded version's key): the current row
    // must actually carry the key for the probe to consume the conjunct.
    const Value& current = live_row(position)[column];
    if (current.is_null() || !ValueEqual{}(current, key)) continue;
    positions.push_back(position);
  }
  std::sort(positions.begin(), positions.end());  // restore scan order
  positions.erase(std::unique(positions.begin(), positions.end()), positions.end());
  return positions;
}

const Row& Table::live_row(std::size_t position) const {
  require_state(position < live_.size(), "live_row: index out of range");
  return slot_ref(live_[position]).head.load(std::memory_order_relaxed)->data;
}

void Table::commit_pending(std::uint64_t ts) {
  for (RowVersion* version : pending_begin_)
    version->begin_ts.store(ts, std::memory_order_seq_cst);
  for (const auto& [slot, version] : pending_end_) {
    version->end_ts.store(ts, std::memory_order_seq_cst);
    retired_.push_back({slot, ts});
  }
  pending_begin_.clear();
  pending_end_.clear();
}

std::size_t Table::free_chain(RowVersion* version) {
  std::size_t freed = 0;
  while (version != nullptr) {
    RowVersion* older = version->older.load(std::memory_order_relaxed);
    delete version;
    version = older;
    ++freed;
  }
  return freed;
}

std::size_t Table::reclaim(const ReaderRegistry::Horizon& horizon,
                           const ReaderRegistry& registry) {
  std::size_t freed = 0;
  // Gate 2 (mvcc.hpp): limbo chains whose unlink predates every active
  // pin's registration can no longer be reached by any walker.
  std::size_t i = 0;
  while (i < limbo_.size()) {
    if (limbo_[i].reg <= horizon.reg) {
      freed += free_chain(limbo_[i].chain);
      limbo_[i] = limbo_.back();
      limbo_.pop_back();
    } else {
      ++i;
    }
  }
  // Gate 1: versions superseded at or before the oldest active read ts.
  // retired_ is FIFO in end_ts, so the prefix with end_ts <= horizon is
  // exactly the reclaimable set.
  const SlotDirectory* dir = directory_.load(std::memory_order_relaxed);
  bool unlinked_head = false;
  while (!retired_.empty() && retired_.front().end_ts <= horizon.ts) {
    const std::uint32_t slot_id = retired_.front().slot;
    retired_.pop_front();
    RowSlot& slot = dir->slot(slot_id);
    RowVersion* head = slot.head.load(std::memory_order_relaxed);
    if (head == nullptr) continue;  // an earlier entry already emptied this slot
    if (head->end_ts.load(std::memory_order_relaxed) <= horizon.ts) {
      // Deleted row: the whole chain is invisible at every active ts, but a
      // reader may have loaded the head pointer just before this unlink —
      // park the chain in limbo until every active registration postdates it.
      slot.head.store(nullptr, std::memory_order_seq_cst);
      std::size_t chain_len = 0;
      for (RowVersion* v = head; v != nullptr; v = v->older.load(std::memory_order_relaxed))
        ++chain_len;
      versions_ -= chain_len;
      ++dead_slots_;
      limbo_.push_back({0, head, chain_len});  // stamped below, after all unlinks
      unlinked_head = true;
      continue;
    }
    // Live row: truncate the dead suffix (first version with end_ts <= the
    // horizon, plus everything older). No reader walk can reach it — the
    // walk stops at the suffix's predecessor or earlier (mvcc.hpp, gate 1)
    // — so it is freed immediately.
    RowVersion* pred = head;
    RowVersion* v = pred->older.load(std::memory_order_relaxed);
    while (v != nullptr && v->end_ts.load(std::memory_order_relaxed) > horizon.ts) {
      pred = v;
      v = v->older.load(std::memory_order_relaxed);
    }
    if (v == nullptr) continue;
    pred->older.store(nullptr, std::memory_order_seq_cst);
    const std::size_t chain_len = free_chain(v);
    versions_ -= chain_len;
    freed += chain_len;
  }
  if (unlinked_head) {
    // Taken after the unlinks: any pin registered at or past this stamp
    // observed the nulled head (seq_cst total order), so once the minimum
    // active registration reaches it the chain is unreachable.
    const std::uint64_t stamp = registry.registration_sequence();
    for (Limbo& limbo : limbo_)
      if (limbo.reg == 0) limbo.reg = stamp;
  }
  maybe_rebuild_stale_indexes();
  if (freed != 0) reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  return freed;
}

void Table::create_index(std::string_view column) {
  const auto col = column_index(column);
  require_found(col.has_value(),
                strings::cat("no column '", std::string(column), "' in table ", name_,
                             " to index"));
  if (has_index_on(*col)) return;
  IndexArray* array = build_index_array(*col, 64);
  array->created_seq = ++index_seq_;
  publish_index(*col, array);
}

bool Table::has_index_on(std::size_t column) const {
  return column < indexes_.size() &&
         indexes_[column].published.load(std::memory_order_seq_cst) != nullptr;
}

std::vector<std::string> Table::indexed_columns() const {
  std::vector<std::pair<std::uint64_t, std::size_t>> created;
  for (std::size_t col = 0; col < indexes_.size(); ++col) {
    const IndexArray* array = indexes_[col].published.load(std::memory_order_seq_cst);
    if (array != nullptr) created.emplace_back(array->created_seq, col);
  }
  std::sort(created.begin(), created.end());
  std::vector<std::string> out;
  out.reserve(created.size());
  for (const auto& [seq, col] : created) out.push_back(columns_[col].name);
  return out;
}

Table::IndexArray* Table::build_index_array(std::size_t column, std::size_t min_buckets) {
  const SlotDirectory* dir = directory_.load(std::memory_order_relaxed);
  std::size_t candidates = 0;
  for (std::uint32_t s = 0; s < slots_used_; ++s)
    for (RowVersion* v = dir->slot(s).head.load(std::memory_order_relaxed); v != nullptr;
         v = v->older.load(std::memory_order_relaxed))
      if (!v->data[column].is_null()) ++candidates;
  const std::size_t buckets =
      std::bit_ceil(std::max({min_buckets, candidates, std::size_t{64}}));
  auto array = std::make_unique<IndexArray>(buckets);
  const std::size_t mask = buckets - 1;
  std::vector<const Value*> seen;  // distinct keys of one chain (chains are short)
  for (std::uint32_t s = 0; s < slots_used_; ++s) {
    seen.clear();
    for (RowVersion* v = dir->slot(s).head.load(std::memory_order_relaxed); v != nullptr;
         v = v->older.load(std::memory_order_relaxed)) {
      const Value& key = v->data[column];
      if (key.is_null()) continue;
      bool duplicate = false;
      for (const Value* prior : seen)
        if (ValueEqual{}(*prior, key)) {
          duplicate = true;
          break;
        }
      if (duplicate) continue;
      seen.push_back(&key);
      IndexEntry& entry = array->arena.emplace_back();
      entry.key = key;
      entry.slot = s;
      auto& bucket = array->buckets[key.hash() & mask];
      entry.next = bucket.load(std::memory_order_relaxed);
      bucket.store(&entry, std::memory_order_relaxed);  // array not yet published
    }
  }
  IndexArray* raw = array.get();
  index_storage_.push_back(std::move(array));
  return raw;
}

void Table::publish_index(std::size_t column, IndexArray* array) {
  indexes_[column].current = array;
  indexes_[column].published.store(array, std::memory_order_seq_cst);
}

void Table::index_insert(std::size_t column, const Value& key, std::uint32_t slot) {
  IndexArray* array = indexes_[column].current;
  if (array->arena.size() + 1 > 2 * array->buckets.size()) {
    IndexArray* grown = build_index_array(column, array->buckets.size() * 2);
    grown->created_seq = array->created_seq;
    // The rebuild walked the chains, which already hold the version being
    // indexed — nothing left to append.
    publish_index(column, grown);
    return;
  }
  IndexEntry& entry = array->arena.emplace_back();
  entry.key = key;
  entry.slot = slot;
  auto& bucket = array->buckets[key.hash() & (array->buckets.size() - 1)];
  entry.next = bucket.load(std::memory_order_relaxed);
  // Release the fully built entry into the bucket chain; readers that load
  // it see key/slot/next complete.
  bucket.store(&entry, std::memory_order_seq_cst);
}

void Table::maybe_rebuild_stale_indexes() {
  for (std::size_t col = 0; col < indexes_.size(); ++col) {
    IndexArray* array = indexes_[col].current;
    if (array == nullptr) continue;
    // Entries pointing at reclaimed versions are harmless (probes re-check
    // the visible row) but accumulate; rebuild once they dominate.
    if (array->arena.size() <= 2 * versions_ + 64) continue;
    IndexArray* rebuilt = build_index_array(col, 64);
    rebuilt->created_seq = array->created_seq;
    publish_index(col, rebuilt);
  }
}

Table::Stats Table::stats() const {
  Stats out;
  out.live_rows = live_.size();
  out.slots = slots_used_;
  out.dead_slots = dead_slots_;
  out.retired_pending = retired_.size();
  out.reclaimed = reclaimed_.load(std::memory_order_relaxed);
  for (const Limbo& limbo : limbo_) out.limbo_versions += limbo.count;
  const SlotDirectory* dir = directory_.load(std::memory_order_relaxed);
  for (std::uint32_t s = 0; s < slots_used_; ++s) {
    std::size_t length = 0;
    for (RowVersion* v = dir->slot(s).head.load(std::memory_order_relaxed); v != nullptr;
         v = v->older.load(std::memory_order_relaxed))
      ++length;
    if (length == 0) continue;
    out.versions += length;
    out.max_chain = std::max(out.max_chain, length);
    ++out.chain_histogram[std::min<std::size_t>(length, 9) - 1];
  }
  return out;
}

Table::Reader::Reader(const Table& table, std::uint64_t ts)
    : table_(&table),
      ts_(ts),
      directory_(table.directory_.load(std::memory_order_seq_cst)),
      slots_(std::min(table.slots_published_.load(std::memory_order_seq_cst),
                      directory_->capacity())) {}

const Row* Table::Reader::visible(std::uint32_t slot) const {
  // A slot allocated after this view holds no version committed at its ts.
  if (slot >= slots_) return nullptr;
  RowVersion* v = directory_->slot(slot).head.load(std::memory_order_seq_cst);
  while (v != nullptr && v->begin_ts.load(std::memory_order_seq_cst) > ts_)
    v = v->older.load(std::memory_order_seq_cst);
  if (v == nullptr) return nullptr;
  if (v->end_ts.load(std::memory_order_seq_cst) <= ts_) return nullptr;
  return &v->data;
}

std::vector<const Row*> Table::Reader::visible_rows() const {
  std::vector<const Row*> out;
  out.reserve(table_->live_count_.load(std::memory_order_relaxed));
  for (std::uint32_t slot = 0; slot < slots_; ++slot) {
    const Row* row = visible(slot);
    if (row != nullptr) out.push_back(row);
  }
  return out;
}

std::vector<const Row*> Table::Reader::probe_rows(std::size_t column, const Value& key) const {
  const IndexArray* array =
      column < table_->indexes_.size()
          ? table_->indexes_[column].published.load(std::memory_order_seq_cst)
          : nullptr;
  if (array == nullptr)
    throw StateError(strings::cat("probe_index: column ", column, " of ", table_->name_,
                                  " has no hash index"));
  if (key.is_null()) return {};  // '=' never matches NULL
  std::vector<std::uint32_t> slots;
  const std::size_t mask = array->buckets.size() - 1;
  for (const IndexEntry* entry =
           array->buckets[key.hash() & mask].load(std::memory_order_seq_cst);
       entry != nullptr; entry = entry->next)
    if (ValueEqual{}(entry->key, key)) slots.push_back(entry->slot);
  std::sort(slots.begin(), slots.end());  // restore scan order
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  std::vector<const Row*> out;
  out.reserve(slots.size());
  for (const std::uint32_t slot : slots) {
    const Row* row = visible(slot);
    if (row == nullptr) continue;
    // Entries may be stale (superseded version's key) — the visible row
    // must actually carry the key for the probe to consume the conjunct.
    const Value& current = (*row)[column];
    if (!current.is_null() && ValueEqual{}(current, key)) out.push_back(row);
  }
  return out;
}

}  // namespace rocks::sqldb
