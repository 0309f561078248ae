#include "sqldb/engine.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <chrono>
#include <exception>
#include <limits>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>

#include "sqldb/snapshot.hpp"
#include "sqldb/wal.hpp"
#include "support/crashpoint.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/path.hpp"

namespace rocks::sqldb {

/// The attached durable store: the WAL writer plus the two cursors that
/// define its position — the next LSN to stamp and the next snapshot
/// sequence number to publish. Lives behind table_lock_ (mutations write
/// the WAL under the writer lock; snapshot()'s brief holds take it too).
struct Database::Durability {
  Durability(vfs::FileSystem& filesystem, std::string directory, std::string wal_path)
      : fs(&filesystem), dir(std::move(directory)), wal(filesystem, std::move(wal_path)) {}

  vfs::FileSystem* fs;
  std::string dir;
  WalWriter wal;
  std::uint64_t next_lsn = 1;
  std::uint64_t next_snapshot_seq = 1;
};

namespace {

/// Process-wide catalog numbering: a binding names its catalog by id, and
/// ids are never reused, even across Database instances.
std::atomic<std::uint64_t> next_catalog_id{1};

}  // namespace

Database::Database() {
  // Publish the empty catalog so readers never observe a null pointer.
  auto empty = std::make_unique<Catalog>();
  empty->id = next_catalog_id.fetch_add(1, std::memory_order_relaxed);
  catalog_storage_.push_back(std::move(empty));
  catalog_.store(catalog_storage_.back().get(), std::memory_order_relaxed);
}
Database::~Database() = default;

namespace {

/// Lock acquisition timed into a wait-time counter: the cost of the two
/// clock reads (~tens of ns) is noise against even the cheapest indexed
/// SELECT (~9 µs), and the counter is what lets a bench distinguish "slow
/// because scanning" from "slow because serialized on the writer".
template <typename Lock, typename Mutex>
Lock timed_lock(Mutex& mutex, std::atomic<std::uint64_t>& acquisitions,
                std::atomic<std::uint64_t>& wait_ns) {
  const auto start = std::chrono::steady_clock::now();
  Lock lock(mutex);
  wait_ns.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start)
                        .count(),
                    std::memory_order_relaxed);
  acquisitions.fetch_add(1, std::memory_order_relaxed);
  return lock;
}

/// Rejects an execute whose values do not match the statement's `?`
/// placeholders, before anything runs.
void require_params(const Prepared& prepared, std::span<const Value> params) {
  if (params.size() != prepared.param_count())
    throw StateError(strings::cat("statement takes ", prepared.param_count(),
                                  " parameter(s), got ", params.size()));
}

// --- binding: names resolved to positions once per catalog -------------------

/// Resolves a column reference against the statement's tables the way SQL
/// scopes names: a qualified name takes the first table whose alias
/// matches; an unqualified one must name a column of exactly one table.
ColumnSlot resolve_column(const Expr& column, std::span<const Table* const> tables,
                          std::span<const std::string_view> aliases) {
  const std::string& qualifier = column.column_table();
  const std::string& name = column.column_name();
  if (!qualifier.empty()) {
    for (std::size_t i = 0; i < tables.size(); ++i) {
      if (!strings::iequals(aliases[i], qualifier)) continue;
      const auto index = tables[i]->column_index(name);
      if (!index) throw LookupError(strings::cat("unknown column '", qualifier, ".", name, "'"));
      return {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(*index)};
    }
    throw LookupError(strings::cat("unknown table '", qualifier, "' in expression"));
  }
  std::optional<ColumnSlot> found;
  for (std::size_t i = 0; i < tables.size(); ++i) {
    const auto index = tables[i]->column_index(name);
    if (!index) continue;
    if (found) throw LookupError(strings::cat("ambiguous column '", name, "'"));
    found = ColumnSlot{static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(*index)};
  }
  if (!found) throw LookupError(strings::cat("unknown column '", name, "'"));
  return *found;
}

/// Binds every column reference in `expr` into `slots` (by reference
/// number). Throws LookupError for a name the tables do not have.
void bind_columns(const Expr* expr, std::span<const Table* const> tables,
                  std::span<const std::string_view> aliases, std::vector<ColumnSlot>& slots) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kColumn) {
    slots[expr->column_ref()] = resolve_column(*expr, tables, aliases);
    return;
  }
  bind_columns(expr->lhs(), tables, aliases, slots);
  bind_columns(expr->rhs(), tables, aliases, slots);
  for (const ExprPtr& item : expr->list()) bind_columns(item.get(), tables, aliases, slots);
}

// --- query planner helpers --------------------------------------------------

/// Flattens the top-level AND chain of a WHERE tree into its conjuncts.
void collect_conjuncts(const Expr* expr, std::vector<const Expr*>& out) {
  if (expr == nullptr) return;
  if (expr->kind() == Expr::Kind::kBinary && expr->binary_op() == BinaryOp::kAnd) {
    collect_conjuncts(expr->lhs(), out);
    collect_conjuncts(expr->rhs(), out);
    return;
  }
  out.push_back(expr);
}

/// The column and value of a `col = literal` or `col = ?` conjunct (either
/// side first); nullopt when the conjunct has any other shape.
struct EqColumnConstant {
  const Expr* column = nullptr;
  const Value* value = nullptr;
};
std::optional<EqColumnConstant> match_eq_column_constant(const Expr* expr,
                                                         std::span<const Value> params) {
  if (expr->kind() != Expr::Kind::kBinary || expr->binary_op() != BinaryOp::kEq)
    return std::nullopt;
  const Expr* l = expr->lhs();
  const Expr* r = expr->rhs();
  if (l->kind() == Expr::Kind::kColumn)
    if (const Value* value = r->constant(params)) return EqColumnConstant{l, value};
  if (r->kind() == Expr::Kind::kColumn)
    if (const Value* value = l->constant(params)) return EqColumnConstant{r, value};
  return std::nullopt;
}

}  // namespace

/// One prepared statement bound to one catalog: every name it uses,
/// resolved to a position. Immutable once published.
struct Binding {
  std::uint64_t catalog_id = 0;
  std::vector<const Table*> tables;  // the FROM tables, or a write's target
  std::vector<ColumnSlot> columns;   // by Expr::column_ref()
  /// A SELECT output column: `expr` evaluated, or (no expr) the cell at
  /// `slot` copied — plain columns and `*` expansion.
  struct Output {
    const Expr* expr = nullptr;
    ColumnSlot slot;
  };
  std::vector<Output> outputs;
  std::vector<std::string> names;      // SELECT output headers
  std::vector<const Expr*> conjuncts;  // WHERE's top-level AND chain
  std::vector<std::size_t> targets;    // INSERT: column per value; UPDATE: per assignment
};

Prepared::Prepared(ParsedStatement parsed) : parsed_(std::move(parsed)) {}
Prepared::~Prepared() = default;

namespace {

std::unique_ptr<const Binding> bind_select(const SelectStmt& stmt, std::size_t column_refs,
                                           std::uint64_t catalog_id,
                                           std::vector<const Table*> tables) {
  auto binding = std::make_unique<Binding>();
  binding->catalog_id = catalog_id;
  binding->tables = std::move(tables);
  binding->columns.resize(column_refs);
  const std::span<const Table* const> from(binding->tables);
  std::vector<std::string_view> aliases;
  for (const TableRef& ref : stmt.from) aliases.push_back(ref.alias);
  for (const SelectItem& item : stmt.items) {
    if (!item.star) {
      bind_columns(item.expr.get(), from, aliases, binding->columns);
      Binding::Output out{item.expr.get(), {}};
      if (item.expr->kind() == Expr::Kind::kColumn)
        out = {nullptr, binding->columns[item.expr->column_ref()]};
      binding->outputs.push_back(out);
      binding->names.push_back(!item.alias.empty() ? item.alias : item.expr->display_name());
      continue;
    }
    bool matched = false;
    for (std::size_t i = 0; i < from.size(); ++i) {
      if (!item.star_table.empty() && !strings::iequals(item.star_table, aliases[i])) continue;
      matched = true;
      const std::vector<ColumnDef>& columns = from[i]->columns();
      for (std::size_t c = 0; c < columns.size(); ++c) {
        binding->outputs.push_back(
            {nullptr, {static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(c)}});
        binding->names.push_back(from.size() > 1 ? strings::cat(aliases[i], ".", columns[c].name)
                                                 : columns[c].name);
      }
    }
    if (!matched)
      throw LookupError(strings::cat("unknown table '", item.star_table, "' in select list"));
  }
  bind_columns(stmt.where.get(), from, aliases, binding->columns);
  for (const OrderKey& key : stmt.order_by)
    bind_columns(key.expr.get(), from, aliases, binding->columns);
  collect_conjuncts(stmt.where.get(), binding->conjuncts);
  return binding;
}

/// Binds an INSERT, UPDATE or DELETE to its target table. An INSERT's
/// VALUES see no table, so a column reference there names nothing.
std::unique_ptr<const Binding> bind_write(const Statement& statement, std::size_t column_refs,
                                          std::uint64_t catalog_id, const Table& target) {
  auto binding = std::make_unique<Binding>();
  binding->catalog_id = catalog_id;
  binding->tables = {&target};
  binding->columns.resize(column_refs);
  const std::span<const Table* const> self(binding->tables);
  const std::string_view alias[] = {target.name()};
  const auto column_of = [&target](const std::string& name, std::string_view clause) {
    const auto index = target.column_index(name);
    if (!index) throw LookupError(strings::cat("unknown column '", name, "' in ", clause));
    return *index;
  };
  const Expr* where = nullptr;
  if (const auto* insert = std::get_if<InsertStmt>(&statement)) {
    for (const std::string& name : insert->columns)
      binding->targets.push_back(column_of(name, "INSERT"));
    if (insert->columns.empty())
      for (std::size_t i = 0; i < target.columns().size(); ++i) binding->targets.push_back(i);
    for (const std::vector<ExprPtr>& exprs : insert->rows) {
      if (exprs.size() != binding->targets.size())
        throw StateError(insert->columns.empty()
                             ? strings::cat("INSERT into ", insert->table, ": expected ",
                                            binding->targets.size(), " values, got ",
                                            exprs.size())
                             : strings::cat("INSERT into ", insert->table,
                                            ": column/value count mismatch"));
      for (const ExprPtr& expr : exprs) bind_columns(expr.get(), {}, {}, binding->columns);
    }
  } else if (const auto* update = std::get_if<UpdateStmt>(&statement)) {
    for (const auto& [name, expr] : update->assignments) {
      binding->targets.push_back(column_of(name, "UPDATE"));
      bind_columns(expr.get(), self, alias, binding->columns);
    }
    where = update->where.get();
  } else {
    where = std::get<DeleteStmt>(statement).where.get();
  }
  bind_columns(where, self, alias, binding->columns);
  collect_conjuncts(where, binding->conjuncts);
  return binding;
}

/// UPDATE/DELETE share SELECT's plan 1: when one WHERE conjunct is an
/// indexed `col = literal` or `col = ?`, probe the writer-side index for
/// candidate positions instead of scanning every live row. Fills
/// `positions` (ascending — the scan's visit order) and `residual` (the
/// conjuncts the probe did not consume) and returns true when a probe
/// applies. Point mutations against a big live set — the batch scheduler's
/// one-row transition per job while thousands of rows stay live — go from
/// O(live) to O(hits) per statement.
bool plan_write_probe(const Table& target, const Binding& binding, std::span<const Value> params,
                      std::vector<std::size_t>& positions, std::vector<const Expr*>& residual) {
  for (const Expr* conjunct : binding.conjuncts) {
    const auto eq = match_eq_column_constant(conjunct, params);
    if (!eq) continue;
    const std::size_t column = binding.columns[eq->column->column_ref()].column;
    if (!target.has_index_on(column)) continue;
    positions = target.probe_positions(column, *eq->value);
    for (const Expr* other : binding.conjuncts)
      if (other != conjunct) residual.push_back(other);
    return true;
  }
  return false;
}

/// UPDATE and DELETE's row selection: calls `on_match(position)` for each
/// live row WHERE accepts, ascending, with `current` (the row `ctx` reads)
/// set to that row. Rows come from plan_write_probe when `planner` allows
/// and a probe applies, else from a scan of every live row.
template <typename OnMatch>
void for_each_matching_row(const Table& target, const Expr* where, const Binding& binding,
                           const EvalContext& ctx, const Row*& current, bool planner,
                           std::atomic<std::uint64_t>& index_probes, OnMatch on_match) {
  std::vector<std::size_t> probe;
  std::vector<const Expr*> residual;
  const bool probed = planner && plan_write_probe(target, binding, ctx.params, probe, residual);
  if (probed)
    index_probes.fetch_add(1, std::memory_order_relaxed);
  else if (where != nullptr)
    residual.push_back(where);
  const std::size_t candidates = probed ? probe.size() : target.live_size();
  for (std::size_t c = 0; c < candidates; ++c) {
    const std::size_t position = probed ? probe[c] : c;
    current = &target.live_row(position);
    const bool pass = std::all_of(residual.begin(), residual.end(), [&](const Expr* conjunct) {
      const Value keep = conjunct->evaluate(ctx);
      return !keep.is_null() && keep.truthy();
    });
    if (pass) on_match(position);
  }
}

/// The journal channels a statement's records changed, deduplicated in
/// order: every row change and every CREATE/DROP TABLE marks its table;
/// CREATE INDEX changes no rows and notifies nobody.
std::vector<std::string> touched_channels(std::span<const WalRecord> records) {
  std::vector<std::string> channels;
  for (const WalRecord& record : records) {
    if (record.op == WalOp::kCreateIndex) continue;
    std::string channel = strings::to_lower(record.table);
    if (channels.empty() || channels.back() != channel) channels.push_back(std::move(channel));
  }
  return channels;
}

/// Row identity for the change journal: the PRIMARY KEY value, or NULL for
/// tables without one (NULL poisons the delta range — full rescan).
Value journal_pk(const Table& table, const Row& row) {
  const auto pk_column = table.primary_key_column();
  return pk_column ? row[*pk_column] : Value::null();
}

/// What snapshot()/snapshot_image() capture per table under their brief
/// lock hold: the shared table (kept alive across a concurrent DROP), plus
/// the schema-ish bits that belong to the checkpoint's commit timestamp
/// rather than to whenever serialization happens to read them.
struct CapturedTable {
  std::shared_ptr<const Table> table;
  std::vector<std::string> indexed;
  std::int64_t next_auto = 0;
};

}  // namespace

std::size_t ResultSet::column_index(std::string_view name) const {
  // Result sets are a handful of columns wide: a scan beats building a map.
  // The first occurrence of a duplicated header wins.
  for (std::size_t i = 0; i < columns.size(); ++i)
    if (strings::iequals(columns[i], name)) return i;
  throw LookupError(strings::cat("result has no column '", std::string(name), "'"));
}

const Value& ResultSet::at(std::size_t row, std::string_view column) const {
  return at(row, column_index(column));
}

const Value& ResultSet::at(std::size_t row, std::size_t column) const {
  require_found(row < rows.size(), "result row index out of range");
  require_found(column < rows[row].size(), "result column index out of range");
  return rows[row][column];
}

std::string ResultSet::render() const {
  AsciiTable out(columns);
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto& value : row) cells.push_back(value.to_string());
    out.add_row(std::move(cells));
  }
  return out.render();
}

bool Database::NameLess::operator()(std::string_view a, std::string_view b) const {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    const char ca = static_cast<char>(std::tolower(static_cast<unsigned char>(a[i])));
    const char cb = static_cast<char>(std::tolower(static_cast<unsigned char>(b[i])));
    if (ca != cb) return ca < cb;
  }
  return a.size() < b.size();
}

std::size_t Database::statement_cache_size() const {
  std::lock_guard<std::mutex> lock(statement_mutex_);
  return lru_.size();
}

Database::PreparedStatement Database::prepare(std::string_view sql) {
  {
    std::lock_guard<std::mutex> lock(statement_mutex_);
    const auto it = statement_cache_.find(sql);
    if (it != statement_cache_.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
  }
  // Parse outside the mutex: a miss costs microseconds of parser time and
  // must not stall concurrent cache hits. Two threads missing on the same
  // text both parse; the loser's insert is dropped in favor of the entry
  // already present.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  auto statement = std::make_shared<const Prepared>(parse_statement(sql));
  std::lock_guard<std::mutex> lock(statement_mutex_);
  const auto it = statement_cache_.find(sql);
  if (it != statement_cache_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(std::string(sql), std::move(statement));
  statement_cache_.emplace(std::string_view(lru_.front().first), lru_.begin());
  if (lru_.size() > kStatementCacheCapacity) {
    statement_cache_.erase(std::string_view(lru_.back().first));
    lru_.pop_back();
  }
  return lru_.front().second;
}

ResultSet Database::execute(std::string_view sql, std::span<const Value> params) {
  const PreparedStatement statement = prepare(sql);
  return execute(*statement, params);
}

ResultSet Database::execute(const Prepared& prepared, std::span<const Value> params) {
  require_params(prepared, params);
  return std::visit(
      [&](const auto& stmt) -> ResultSet {
        using Stmt = std::decay_t<decltype(stmt)>;
        if constexpr (std::is_same_v<Stmt, SelectStmt>) {
          // SELECT never touches the writer lock: it pins the current commit
          // timestamp (keeping reclamation at bay) and evaluates against the
          // version chains and catalog visible at that timestamp.
          const ReaderRegistry::Pin pin = registry_.pin(commit_ts_);
          read_views_opened_.fetch_add(1, std::memory_order_relaxed);
          const Catalog* catalog = catalog_.load(std::memory_order_seq_cst);
          return run_select(prepared, *catalog, pin.ts(), params);
        } else if constexpr (std::is_same_v<Stmt, InsertStmt> ||
                             std::is_same_v<Stmt, UpdateStmt> ||
                             std::is_same_v<Stmt, DeleteStmt>) {
          return run_write_locked([&](std::vector<WalRecord>& records) {
            return run_write(prepared, stmt, params, records);
          });
        } else {
          return run_write_locked(
              [&](std::vector<WalRecord>& records) { return run_write(stmt, records); });
        }
      },
      prepared.statement());
}

ResultSet Database::insert_rows(const Prepared& prepared, std::span<const Value> rows) {
  const auto* insert = std::get_if<InsertStmt>(&prepared.statement());
  const std::size_t width = prepared.param_count();
  if (insert == nullptr || width == 0 || rows.size() % width != 0)
    throw StateError(strings::cat("insert_rows: needs an INSERT with placeholders and whole "
                                  "groups of values, got ", rows.size(), " for ", width));
  return run_write_locked([&](std::vector<WalRecord>& records) {
    return run_write(prepared, *insert, rows, records);
  });
}

template <typename Fits, typename Build>
const Binding& Database::binding_for(const Prepared& prepared, std::uint64_t catalog_id,
                                     const Fits& fits, const Build& build) {
  const auto usable = [&](const Binding* binding) {
    return binding != nullptr && binding->catalog_id == catalog_id && fits(*binding);
  };
  const Binding* current = prepared.binding_.load(std::memory_order_acquire);
  if (usable(current)) return *current;
  std::lock_guard<std::mutex> lock(prepared.bind_mutex_);
  for (auto it = prepared.bindings_.rbegin(); it != prepared.bindings_.rend(); ++it) {
    if (!usable(it->get())) continue;
    prepared.binding_.store(it->get(), std::memory_order_release);
    return **it;
  }
  // A name that does not resolve throws here, and nothing is kept.
  prepared.bindings_.push_back(build());
  prepared.binding_.store(prepared.bindings_.back().get(), std::memory_order_release);
  return *prepared.bindings_.back();
}

const Binding& Database::bind_write_locked(const Prepared& prepared, const Table& target) const {
  const Catalog& catalog = *catalog_.load(std::memory_order_relaxed);
  return binding_for(
      prepared, catalog.id,
      [&target](const Binding& binding) { return binding.tables.front() == &target; },
      [&] {
        return bind_write(prepared.statement(), prepared.parsed_.column_refs, catalog.id,
                          target);
      });
}

template <typename Handler>
ResultSet Database::run_write_locked(const Handler& handler) {
  // Mutations serialize on table_lock_ — run_write and table_locked()
  // assume it is already held (the mutex is not recursive). Journal records
  // are written under it, but subscriber notifications fire only after it
  // is released so a callback may issue its own statements without
  // self-deadlocking.
  std::vector<WalRecord> records;
  ResultSet result;
  std::exception_ptr flush_error;
  {
    const auto lock = timed_lock<std::unique_lock<std::mutex>>(
        table_lock_, exclusive_acquisitions_, exclusive_wait_ns_);
    // Follower fencing (DESIGN.md §12.3): DML/DDL on a read-only replica is
    // redirected to the leader before any state is touched.
    require_state(!read_only_.load(std::memory_order_relaxed), read_only_error_);
    try {
      result = handler(records);
    } catch (...) {
      // A statement can fail midway with part of its work applied (this
      // engine has no rollback). The WAL must mirror memory exactly and
      // readers must eventually see the partial versions, so the partial
      // records are logged and stamped before the error propagates.
      commit_locked(records);
      throw;
    }
    try {
      commit_locked(records);
    } catch (...) {
      // The in-RAM commit happened; a WAL flush IO failure must not hide it
      // from subscribers. Notify, then surface the error — the caller's
      // durability barrier refuses to acknowledge until a retry succeeds.
      flush_error = std::current_exception();
    }
  }
  for (const std::string& channel : touched_channels(records)) journal_.notify(channel);
  if (flush_error) std::rethrow_exception(flush_error);
  return result;
}

void Database::commit_locked(std::vector<WalRecord>& records) {
  const bool logging = durability_ != nullptr && !records.empty();
  std::uint64_t ts = 0;
  if (logging) {
    records.back().commit = true;  // statement boundary (see WalRecord::commit)
    for (WalRecord& record : records) {
      record.lsn = durability_->next_lsn++;
      durability_->wal.append(record);
    }
    // Ship before the local flush: a flush failure (disk refusing the bytes)
    // must not open a gap in the ship stream — the group is already buffered
    // by the leader's control plane, and remote durability can outrun a
    // faulty local disk under quorum commit. The sink gets the frames the
    // WAL just buffered; only an attached sink costs a copy.
    if (wal_sink_)
      wal_sink_(WalGroup{records.front().lsn, records.back().lsn,
                         std::string(durability_->wal.statement_bytes())});
    // The commit timestamp IS the commit-marked record's LSN.
    ts = durability_->next_lsn - 1;
  } else if (durability_ != nullptr) {
    ts = durability_->next_lsn - 1;  // no-op statement: cursor unmoved
  } else {
    // In-RAM engine: a private gapless sequence plays the LSN role.
    ts = commit_ts_.load(std::memory_order_relaxed) + 1;
  }
  stamp_commit_locked(ts);
  maybe_reclaim_locked();
  // The (possibly throwing) group-commit flush runs strictly after the
  // in-memory commit is published, so an IO failure never hides it.
  if (logging) durability_->wal.commit();
}

void Database::stamp_commit_locked(std::uint64_t ts) {
  for (const auto& [key, table] : tables_) table->commit_pending(ts);
  for (const std::shared_ptr<Table>& dropped : pending_drops_) {
    // A DROP's table may still carry this statement's earlier row changes
    // (multi-statement replay groups); stamp them before the drop stamp.
    dropped->commit_pending(ts);
    dropped->stamp_dropped(ts);
  }
  pending_drops_.clear();
  for (const std::shared_ptr<Table>& created : pending_creates_) created->stamp_created(ts);
  pending_creates_.clear();
  // Publish last: a reader that pins ts sees every stamp above.
  commit_ts_.store(ts, std::memory_order_seq_cst);
}

void Database::maybe_reclaim_locked() {
  if (++commits_since_reclaim_ < kReclaimInterval) return;
  commits_since_reclaim_ = 0;
  reclaim_locked();
}

std::size_t Database::reclaim_locked() {
  const ReaderRegistry::Horizon horizon =
      registry_.horizon(commit_ts_.load(std::memory_order_seq_cst));
  if (horizon.ts == 0) return 0;  // a pin mid-registration: skip this round
  std::size_t freed = 0;
  for (const auto& [key, table] : tables_) freed += table->reclaim(horizon, registry_);
  return freed;
}

std::size_t Database::reclaim() {
  std::lock_guard<std::mutex> lock(table_lock_);
  return reclaim_locked();
}

Table& Database::create_table_locked(const std::string& name,
                                     const std::vector<ColumnDef>& columns) {
  auto table = std::make_shared<Table>(name, columns);
  Table& ref = *table;
  tables_.emplace(name, table);
  pending_creates_.push_back(table);
  catalog_append_locked(std::move(table));
  return ref;
}

void Database::drop_table_locked(std::string_view name) {
  const auto it = tables_.find(name);
  pending_drops_.push_back(it->second);
  tables_.erase(it);
}

void Database::catalog_append_locked(std::shared_ptr<Table> table) {
  auto next = std::make_unique<Catalog>();
  next->id = next_catalog_id.fetch_add(1, std::memory_order_relaxed);
  next->entries = catalog_.load(std::memory_order_relaxed)->entries;
  CatalogEntry entry{std::move(table), ++catalog_seq_};
  const auto pos = std::upper_bound(
      next->entries.begin(), next->entries.end(), entry,
      [](const CatalogEntry& a, const CatalogEntry& b) {
        const NameLess less;
        if (less(a.table->name(), b.table->name())) return true;
        if (less(b.table->name(), a.table->name())) return false;
        return a.seq < b.seq;
      });
  next->entries.insert(pos, std::move(entry));
  catalog_storage_.push_back(std::move(next));
  catalog_.store(catalog_storage_.back().get(), std::memory_order_seq_cst);
}

const Table* Database::catalog_lookup(const Catalog& catalog, std::string_view name,
                                      std::uint64_t ts) {
  const NameLess less;
  const Table* found = nullptr;
  for (const CatalogEntry& entry : catalog.entries) {
    const std::string& entry_name = entry.table->name();
    if (less(entry_name, name)) continue;
    if (less(name, entry_name)) break;  // entries are sorted: past the name run
    // Within the run entries are seq-ascending; the last visible one wins
    // (a recreated table supersedes its dropped predecessor).
    if (entry.table->visible_at(ts)) found = entry.table.get();
  }
  return found;
}

std::vector<std::string> Database::query_column(std::string_view sql) {
  const ResultSet result = execute(sql);
  require_state(result.columns.size() == 1,
                strings::cat("query_column expects exactly one output column, got ",
                             result.columns.size()));
  std::vector<std::string> out;
  out.reserve(result.rows.size());
  for (const auto& row : result.rows) out.push_back(row[0].to_string());
  return out;
}

bool Database::has_table(std::string_view name) const {
  std::lock_guard<std::mutex> lock(table_lock_);
  return tables_.contains(name);
}

const Table& Database::table(std::string_view name) const {
  std::lock_guard<std::mutex> lock(table_lock_);
  return table_locked(name);
}

const Table& Database::table_locked(std::string_view name) const {
  const auto it = tables_.find(name);
  if (it == tables_.end()) throw LookupError(strings::cat("no such table: ", std::string(name)));
  return *it->second;
}

Table& Database::table_mutable(std::string_view name) {
  const auto it = tables_.find(name);
  if (it == tables_.end()) throw LookupError(strings::cat("no such table: ", std::string(name)));
  return *it->second;
}

std::vector<std::string> Database::table_names() const {
  std::lock_guard<std::mutex> lock(table_lock_);
  std::vector<std::string> out;
  out.reserve(tables_.size());
  for (const auto& [key, table] : tables_) out.push_back(table->name());
  return out;
}

ResultSet Database::run_select(const Prepared& prepared, const Catalog& catalog,
                               std::uint64_t ts, std::span<const Value> params) {
  const auto& stmt = std::get<SelectStmt>(prepared.statement());
  // Bound tables are right for this read timestamp when all are visible at
  // it: at most one table of a name is visible at any timestamp.
  const Binding& binding = binding_for(
      prepared, catalog.id,
      [ts](const Binding& bound) {
        return std::all_of(bound.tables.begin(), bound.tables.end(),
                           [ts](const Table* table) { return table->visible_at(ts); });
      },
      [&] {
        std::vector<const Table*> tables;
        for (const TableRef& ref : stmt.from) {
          const Table* resolved = catalog_lookup(catalog, ref.table, ts);
          if (resolved == nullptr) throw LookupError(strings::cat("no such table: ", ref.table));
          tables.push_back(resolved);
        }
        return bind_select(stmt, prepared.parsed_.column_refs, catalog.id, std::move(tables));
      });
  const std::vector<const Table*>& tables = binding.tables;

  std::vector<Table::Reader> readers;
  readers.reserve(tables.size());
  for (const Table* table : tables) readers.push_back(table->reader(ts));

  // Visible-row materialization is lazy and per table: the probe plans
  // never enumerate the probed side at all, and a join only pays for the
  // sides it actually streams.
  std::vector<std::vector<const Row*>> materialized(tables.size());
  std::vector<bool> materialized_done(tables.size(), false);
  const auto rows_of = [&](std::size_t i) -> const std::vector<const Row*>& {
    if (!materialized_done[i]) {
      materialized[i] = readers[i].visible_rows();
      materialized_done[i] = true;
    }
    return materialized[i];
  };

  // The row of each FROM table the expressions read.
  std::vector<const Row*> current(tables.size(), nullptr);
  const EvalContext ctx{binding.columns, current.data(), params};

  ResultSet result;
  result.columns = binding.names;
  const std::size_t limit = stmt.limit.value_or(std::numeric_limits<std::size_t>::max());
  struct Keyed {
    Row projected;
    Row keys;
  };
  std::vector<Keyed> collected;  // ORDER BY only: sorted before the limit applies

  // When a plan consumes one equality conjunct (index probe / hash join),
  // the remaining conjuncts still run against every candidate; rows pass the
  // conjunct list iff they pass the original AND tree (a row passes either
  // exactly when every conjunct is truthy), so filtering is identical to the
  // scan — the planner only chooses *which* combinations to visit. The
  // consumed conjunct is skipped because hash/index matching IS its
  // evaluation: both use compare() == 0 on non-NULL keys, and NULL keys are
  // never indexed or hashed, matching '=' never being true for NULL.
  std::vector<const Expr*> residual;
  bool use_residual = false;

  const auto emit_current = [&] {
    if (use_residual) {
      for (const Expr* conjunct : residual) {
        const Value keep = conjunct->evaluate(ctx);
        if (keep.is_null() || !keep.truthy()) return;
      }
    } else if (stmt.where) {
      const Value keep = stmt.where->evaluate(ctx);
      if (keep.is_null() || !keep.truthy()) return;
    }
    Row projected;
    projected.reserve(binding.outputs.size());
    for (const Binding::Output& out : binding.outputs)
      projected.push_back(out.expr != nullptr ? out.expr->evaluate(ctx)
                                              : (*current[out.slot.table])[out.slot.column]);
    if (stmt.order_by.empty()) {
      if (result.rows.size() < limit) result.rows.push_back(std::move(projected));
      return;
    }
    Keyed keyed{std::move(projected), {}};
    keyed.keys.reserve(stmt.order_by.size());
    for (const auto& key : stmt.order_by) keyed.keys.push_back(key.expr->evaluate(ctx));
    collected.push_back(std::move(keyed));
  };

  // --- planner: pick how to enumerate candidate row combinations ----------
  // 1. Single table + an indexed `col = literal` (or `col = ?`) conjunct ->
  //    index probe.
  // 2. Two tables + a selective indexed `col = literal` conjunct -> index
  //    join: probe the literal, pair the few hits with the other table.
  // 3. Two tables + a `a.x = b.y` conjunct -> hash join, built on the
  //    smaller side, matches re-sorted into nested-loop emission order.
  // 4. Anything else -> the original nested-loop scan (odometer).
  //
  // probe_rows() returns visible rows in slot (== scan) order, so pair
  // indices sort back into exactly the combination order the nested loop
  // would emit — plans stay bit-identical to the scan.
  enum class Plan { kScan, kIndexProbe, kIndexJoin, kHashJoin };
  Plan plan = Plan::kScan;
  std::vector<const Row*> probe_hits;                     // kIndexProbe/kIndexJoin
  std::vector<std::array<std::size_t, 2>> join_pairs;     // kIndexJoin/kHashJoin
  const std::vector<const Row*>* source0 = nullptr;       // join emission sides
  const std::vector<const Row*>* source1 = nullptr;

  const std::span<const Expr* const> conjuncts =
      planner_enabled_.load(std::memory_order_relaxed) ? std::span<const Expr* const>(binding.conjuncts)
                                                       : std::span<const Expr* const>();
  const auto keep_others = [&](const Expr* consumed) {
    for (const Expr* other : conjuncts)
      if (other != consumed) residual.push_back(other);
    use_residual = true;
  };

  if (tables.size() == 1) {
    for (const Expr* conjunct : conjuncts) {
      const auto eq = match_eq_column_constant(conjunct, params);
      if (!eq) continue;
      const std::size_t column = binding.columns[eq->column->column_ref()].column;
      if (!tables[0]->has_index_on(column)) continue;
      probe_hits = readers[0].probe_rows(column, *eq->value);
      plan = Plan::kIndexProbe;
      keep_others(conjunct);
      break;
    }
  } else if (tables.size() == 2) {
    // A selective indexed literal beats hashing both tables: probe it,
    // pair the hits with every row of the other side, and let the residual
    // conjuncts (including the join predicate) filter. This is the plan
    // behind point re-fetches that join — the kickstart resolve and the
    // incremental reports' select_one queries, both `pk = ?` against a
    // small dimension table.
    for (const Expr* conjunct : conjuncts) {
      const auto eq = match_eq_column_constant(conjunct, params);
      if (!eq) continue;
      const ColumnSlot slot = binding.columns[eq->column->column_ref()];
      if (!tables[slot.table]->has_index_on(slot.column)) continue;
      const std::size_t side = slot.table;
      std::vector<const Row*> hits = readers[side].probe_rows(slot.column, *eq->value);
      // Only when pairing is cheaper than the hash join's pass over both
      // tables; an unselective probe (or a big far side) stays hashed. The
      // gate uses the lock-free live estimates — a heuristic, like every
      // cost model.
      if (hits.size() * tables[1 - side]->live_estimate() >
          tables[0]->live_estimate() + tables[1]->live_estimate())
        continue;
      probe_hits = std::move(hits);
      const std::vector<const Row*>& other = rows_of(1 - side);
      for (std::size_t h = 0; h < probe_hits.size(); ++h)
        for (std::size_t o = 0; o < other.size(); ++o)
          join_pairs.push_back(side == 0 ? std::array<std::size_t, 2>{h, o}
                                         : std::array<std::size_t, 2>{o, h});
      // Restore nested-loop (outer, inner) emission order for bit-identical
      // results either way.
      std::sort(join_pairs.begin(), join_pairs.end());
      source0 = side == 0 ? &probe_hits : &other;
      source1 = side == 0 ? &other : &probe_hits;
      plan = Plan::kIndexJoin;
      keep_others(conjunct);
      break;
    }
    for (const Expr* conjunct : conjuncts) {
      if (plan != Plan::kScan) break;
      if (conjunct->kind() != Expr::Kind::kBinary ||
          conjunct->binary_op() != BinaryOp::kEq)
        continue;
      const Expr* l = conjunct->lhs();
      const Expr* r = conjunct->rhs();
      if (l->kind() != Expr::Kind::kColumn || r->kind() != Expr::Kind::kColumn) continue;
      const ColumnSlot a = binding.columns[l->column_ref()];
      const ColumnSlot b = binding.columns[r->column_ref()];
      if (a.table == b.table) continue;
      const std::size_t col0 = a.table == 0 ? a.column : b.column;
      const std::size_t col1 = a.table == 0 ? b.column : a.column;

      // Build the hash table on the smaller side, stream the other through.
      const std::vector<const Row*>& rows0 = rows_of(0);
      const std::vector<const Row*>& rows1 = rows_of(1);
      const bool build_on_0 = rows0.size() <= rows1.size();
      const std::vector<const Row*>& build_rows = build_on_0 ? rows0 : rows1;
      const std::vector<const Row*>& probe_rows = build_on_0 ? rows1 : rows0;
      const std::size_t build_col = build_on_0 ? col0 : col1;
      const std::size_t probe_col = build_on_0 ? col1 : col0;
      std::unordered_map<Value, std::vector<std::size_t>, ValueHash, ValueEqual> built;
      built.reserve(build_rows.size());
      for (std::size_t i = 0; i < build_rows.size(); ++i) {
        const Value& key = (*build_rows[i])[build_col];
        if (!key.is_null()) built[key].push_back(i);  // NULL never joins
      }
      for (std::size_t i = 0; i < probe_rows.size(); ++i) {
        const Value& key = (*probe_rows[i])[probe_col];
        if (key.is_null()) continue;
        const auto hit = built.find(key);
        if (hit == built.end()) continue;
        for (const std::size_t j : hit->second)
          join_pairs.push_back(build_on_0 ? std::array<std::size_t, 2>{j, i}
                                          : std::array<std::size_t, 2>{i, j});
      }
      // Matches surface in probe order; restore the (outer, inner) order the
      // nested loop would emit so results are bit-identical to the scan.
      std::sort(join_pairs.begin(), join_pairs.end());
      source0 = &rows0;
      source1 = &rows1;
      plan = Plan::kHashJoin;
      keep_others(conjunct);
      break;
    }
  }

  switch (plan) {
    case Plan::kIndexProbe: plans_index_probe_.fetch_add(1, std::memory_order_relaxed); break;
    case Plan::kIndexJoin: plans_index_join_.fetch_add(1, std::memory_order_relaxed); break;
    case Plan::kHashJoin: plans_hash_join_.fetch_add(1, std::memory_order_relaxed); break;
    case Plan::kScan: plans_scan_.fetch_add(1, std::memory_order_relaxed); break;
  }

  switch (plan) {
    case Plan::kIndexProbe:
      for (const Row* row : probe_hits) {
        current[0] = row;
        emit_current();
      }
      break;
    case Plan::kIndexJoin:
    case Plan::kHashJoin:
      for (const auto& pair : join_pairs) {
        current[0] = (*source0)[pair[0]];
        current[1] = (*source1)[pair[1]];
        emit_current();
      }
      break;
    case Plan::kScan: {
      // Iterative odometer over all table row combinations.
      std::vector<std::size_t> cursor(tables.size(), 0);
      if (!tables.empty()) {
        bool any_empty = false;
        for (std::size_t i = 0; i < tables.size(); ++i)
          if (rows_of(i).empty()) any_empty = true;
        if (!any_empty) {
          while (true) {
            for (std::size_t i = 0; i < tables.size(); ++i) current[i] = rows_of(i)[cursor[i]];
            emit_current();
            std::size_t level = tables.size();
            bool wrapped = false;
            while (level > 0) {
              --level;
              if (++cursor[level] < rows_of(level).size()) break;
              cursor[level] = 0;
              if (level == 0) wrapped = true;
            }
            if (wrapped) break;
          }
        }
      }
      break;
    }
  }

  if (!stmt.order_by.empty()) {
    std::stable_sort(collected.begin(), collected.end(), [&](const Keyed& a, const Keyed& b) {
      for (std::size_t i = 0; i < stmt.order_by.size(); ++i) {
        const int cmp = a.keys[i].compare(b.keys[i]);
        if (cmp != 0) return stmt.order_by[i].descending ? cmp > 0 : cmp < 0;
      }
      return false;
    });
    for (std::size_t i = 0; i < collected.size() && i < limit; ++i)
      result.rows.push_back(std::move(collected[i].projected));
  }
  return result;
}

ResultSet Database::run_write(const Prepared& prepared, const InsertStmt& stmt,
                              std::span<const Value> params, std::vector<WalRecord>& records) {
  Table& target = table_mutable(stmt.table);
  const Binding& binding = bind_write_locked(prepared, target);
  const std::size_t width = prepared.param_count();
  const std::size_t groups = width == 0 ? 1 : params.size() / width;
  ResultSet result;
  for (std::size_t group = 0; group < groups; ++group) {
    const EvalContext ctx{binding.columns, nullptr,
                          width == 0 ? params : params.subspan(group * width, width)};
    for (const auto& exprs : stmt.rows) {
      WalRecord record{.op = WalOp::kInsert, .table = target.name(),
                       .row = Row(target.columns().size(), Value::null())};
      for (std::size_t i = 0; i < exprs.size(); ++i)
        record.row[binding.targets[i]] = exprs[i]->evaluate(ctx);
      apply_locked(record);
      records.push_back(std::move(record));
      ++result.affected_rows;
    }
  }
  return result;
}

ResultSet Database::run_write(const Prepared& prepared, const UpdateStmt& stmt,
                              std::span<const Value> params, std::vector<WalRecord>& records) {
  Table& target = table_mutable(stmt.table);
  const Binding& binding = bind_write_locked(prepared, target);
  const Row* current = nullptr;
  const EvalContext ctx{binding.columns, &current, params};
  ResultSet result;
  for_each_matching_row(
      target, stmt.where.get(), binding, ctx, current,
      planner_enabled_.load(std::memory_order_relaxed), plans_index_probe_,
      [&](std::size_t position) {
        // Evaluate all RHS against the pre-update row; the record publishes
        // one new version carrying the changed cells.
        WalRecord record{.op = WalOp::kUpdate, .table = target.name(), .row_index = position};
        record.cells.reserve(stmt.assignments.size());
        for (std::size_t i = 0; i < stmt.assignments.size(); ++i)
          record.cells.emplace_back(binding.targets[i], stmt.assignments[i].second->evaluate(ctx));
        apply_locked(record);
        records.push_back(std::move(record));
        ++result.affected_rows;
      });
  return result;
}

ResultSet Database::run_write(const Prepared& prepared, const DeleteStmt& stmt,
                              std::span<const Value> params, std::vector<WalRecord>& records) {
  Table& target = table_mutable(stmt.table);
  const Binding& binding = bind_write_locked(prepared, target);
  const Row* current = nullptr;
  const EvalContext ctx{binding.columns, &current, params};
  WalRecord record{.op = WalOp::kDelete, .table = target.name()};
  for_each_matching_row(target, stmt.where.get(), binding, ctx, current,
                        planner_enabled_.load(std::memory_order_relaxed), plans_index_probe_,
                        [&](std::size_t position) { record.row_indexes.push_back(position); });
  ResultSet result;
  result.affected_rows = record.row_indexes.size();
  if (record.row_indexes.empty()) return result;
  apply_locked(record);
  records.push_back(std::move(record));
  return result;
}

ResultSet Database::run_write(const CreateTableStmt& stmt, std::vector<WalRecord>& records) {
  if (tables_.contains(stmt.table)) {
    if (stmt.if_not_exists) return {};
    throw StateError(strings::cat("table already exists: ", stmt.table));
  }
  WalRecord record{.op = WalOp::kCreateTable, .table = stmt.table, .schema = stmt.columns};
  apply_locked(record);
  records.push_back(std::move(record));
  return {};
}

ResultSet Database::run_write(const CreateIndexStmt& stmt, std::vector<WalRecord>& records) {
  // create_index is idempotent, so IF NOT EXISTS is accepted but needs no
  // special handling.
  WalRecord record{.op = WalOp::kCreateIndex, .table = stmt.table, .column = stmt.column};
  apply_locked(record);
  records.push_back(std::move(record));
  return {};
}

ResultSet Database::run_write(const DropTableStmt& stmt, std::vector<WalRecord>& records) {
  if (!tables_.contains(stmt.table)) {
    if (stmt.if_exists) return {};
    throw LookupError(strings::cat("no such table: ", stmt.table));
  }
  WalRecord record{.op = WalOp::kDropTable, .table = stmt.table};
  apply_locked(record);
  records.push_back(std::move(record));
  return {};
}

void Database::apply_locked(WalRecord& record) {
  // Live records always fit; a replayed or shipped one out of step with
  // this state is refused. The message is built only on failure.
  const auto require_fits = [&record](bool fits, std::string_view what) {
    if (!fits) throw StateError(strings::cat("wal record: ", what, record.table));
  };
  switch (record.op) {
    case WalOp::kInsert: {
      Table& target = table_mutable(record.table);
      // insert() coerces and assigns AUTO_INCREMENT keys; the record takes
      // the stored row back so the WAL logs it. Replaying that row re-coerces
      // idempotently and advances the cursor past the logged key, exactly as
      // the original insert left it.
      const Row& stored = target.live_row(target.insert(std::move(record.row)));
      record.row = stored;
      journal_.record(target.name(), ChangeOp::kInsert, journal_pk(target, stored));
      break;
    }
    case WalOp::kUpdate: {
      Table& target = table_mutable(record.table);
      require_fits(record.row_index < target.live_size(), "row index out of range in ");
      const Value old_pk = journal_pk(target, target.live_row(record.row_index));
      target.update_row(record.row_index, record.cells);
      const Value new_pk = journal_pk(target, target.live_row(record.row_index));
      // An UPDATE that reassigns the key is a delete of the old identity plus
      // an insert of the new one — consumers keyed by PK cannot see it as an
      // in-place change.
      if (!old_pk.is_null() && !new_pk.is_null() && old_pk.compare(new_pk) == 0) {
        journal_.record(target.name(), ChangeOp::kUpdate, new_pk);
      } else {
        journal_.record(target.name(), ChangeOp::kDelete, old_pk);
        journal_.record(target.name(), ChangeOp::kInsert, new_pk);
      }
      break;
    }
    case WalOp::kDelete: {
      Table& target = table_mutable(record.table);
      // Journal identities before erase_rows invalidates the row positions.
      for (const std::size_t index : record.row_indexes) {
        require_fits(index < target.live_size(), "row index out of range in ");
        journal_.record(target.name(), ChangeOp::kDelete,
                        journal_pk(target, target.live_row(index)));
      }
      target.erase_rows(record.row_indexes);
      break;
    }
    case WalOp::kCreateTable:
      require_fits(!tables_.contains(record.table), "table already exists: ");
      create_table_locked(record.table, record.schema);
      // DDL has no row identity: truncate (revision bump, rescan-on-read).
      journal_.truncate(record.table);
      break;
    case WalOp::kDropTable:
      require_fits(tables_.contains(record.table), "no such table: ");
      drop_table_locked(record.table);
      journal_.truncate(record.table);
      break;
    case WalOp::kCreateIndex:
      table_mutable(record.table).create_index(record.column);
      break;
  }
}

// --- durable store (DESIGN.md §11) -------------------------------------------

RecoveryReport Database::open_durable(vfs::FileSystem& fs, std::string_view dir) {
  std::unique_lock<std::mutex> lock(table_lock_);
  require_state(durability_ == nullptr, "durable store already open");
  require_state(tables_.empty(), "open_durable() requires an empty database");
  // A pre-durable CREATE+DROP history leaves dropped catalog entries whose
  // stamps came from the in-RAM timestamp sequence; LSN timestamps start a
  // fresh domain, so force those entries invisible to every future reader.
  for (const CatalogEntry& entry : catalog_.load(std::memory_order_relaxed)->entries)
    entry.table->stamp_dropped(0);
  const std::string root = vfs::normalize(dir);
  fs.mkdir_p(root);
  durability_ = std::make_unique<Durability>(fs, root, vfs::join(root, kWalFileName));

  RecoveryReport report;

  // 1. Newest valid snapshot wins; corrupt ones are skipped, falling back
  //    one retention step (the WAL's LSN-gap guard below keeps a stale
  //    snapshot from mis-applying newer physical records).
  const std::vector<std::uint64_t> seqs = list_snapshots(fs, root);
  std::optional<SnapshotData> snapshot;
  for (auto it = seqs.rbegin(); it != seqs.rend() && !snapshot; ++it) {
    snapshot = decode_snapshot(fs.read_file(vfs::join(root, snapshot_file_name(*it))));
    if (!snapshot) ++report.snapshots_skipped;
  }
  if (snapshot) {
    restore_snapshot_locked(*snapshot);
    report.snapshot_loaded = true;
    report.snapshot_seq = snapshot->seq;
    report.snapshot_lsn = snapshot->last_lsn;
  }
  // Never reuse a sequence number, even one whose file was corrupt — the
  // next snapshot() must not overwrite evidence or collide with retention.
  durability_->next_snapshot_seq = seqs.empty() ? 1 : seqs.back() + 1;

  // 2. Replay the WAL on top. Records the snapshot already absorbed are
  //    skipped; a torn tail is truncated; an LSN gap (records that only
  //    apply to a newer state than the best surviving snapshot) drops the
  //    rest rather than corrupting.
  const std::string wal_path = durability_->wal.path();
  if (fs.is_file(wal_path)) {
    const std::string bytes = fs.read_file(wal_path);  // copy: we may cut it back
    WalReadResult wal = read_wal(bytes);
    report.wal_torn = wal.torn;
    // Records apply in whole statements: buffer until a commit-marked
    // record closes the group, then apply all of it and stamp its versions
    // with the commit record's LSN — reconstructing the original commit
    // timestamps exactly. A trailing group with no commit marker is a
    // statement whose flush was cut short — dropped, exactly as if it never
    // ran (it was never acknowledged).
    std::size_t consumed = 0;
    std::size_t group_start = 0;  // index of the open group's first record
    std::uint64_t expected = durability_->next_lsn;
    for (std::size_t i = 0; i < wal.records.size(); ++i) {
      const WalRecord& record = wal.records[i];
      if (record.lsn < durability_->next_lsn) {  // absorbed by the snapshot
        ++report.wal_records_skipped;
        consumed = group_start = i + 1;
        continue;
      }
      if (record.lsn != expected) break;  // gap: unusable tail
      ++expected;
      if (!record.commit) continue;
      for (std::size_t j = group_start; j <= i; ++j) {
        apply_locked(wal.records[j]);
        ++durability_->next_lsn;
        ++report.wal_records_replayed;
      }
      stamp_commit_locked(wal.records[i].lsn);
      consumed = group_start = i + 1;
    }
    report.wal_records_dropped = wal.records.size() - consumed;
    if (wal.torn || report.wal_records_dropped > 0) {
      // Cut the file back to the byte prefix that survives, so a later
      // recovery (or further appends) never sees the dead tail.
      fs.write_file(wal_path, bytes.substr(0, wal.frame_start(consumed)));
    }
  }
  // Recovery's position is the commit cursor: pins taken from here on see
  // everything replayed (and nothing a dropped tail half-applied).
  commit_ts_.store(durability_->next_lsn - 1, std::memory_order_seq_cst);
  report.last_lsn = durability_->next_lsn - 1;
  return report;
}

std::uint64_t Database::snapshot() {
  // One checkpoint at a time: the serialization window runs unlocked, so a
  // second snapshot() must not interleave with this one's publish phase.
  // Lock order: snapshot_mutex_ -> table_lock_.
  std::lock_guard<std::mutex> checkpoint_guard(snapshot_mutex_);
  CapturedImage image = capture_image(/*flush_wal=*/true);
  std::lock_guard<std::mutex> lock(table_lock_);
  // Drop only what the snapshot absorbed: statements that committed while
  // serialization ran stay in the WAL for the next recovery to replay.
  return publish_snapshot_locked(std::move(image.bytes), image.last_lsn);
}

Database::CapturedImage Database::capture_image(bool flush_wal) const {
  SnapshotData data;
  std::vector<CapturedTable> captured;
  ReaderRegistry::Pin pin;
  {
    // Brief exclusive hold: fix the image's commit timestamp, pin a read
    // view at it, and capture the bits that belong to that timestamp rather
    // than to serialization time.
    std::lock_guard<std::mutex> lock(table_lock_);
    require_state(durability_ != nullptr, "snapshot requires a durable store (open_durable)");
    // Everything committed must be on disk before a checkpoint claims to
    // absorb it (a group-commit tail could otherwise be lost twice over).
    if (flush_wal) durability_->wal.flush();
    // The commit cursor, not next_lsn - 1: under the lock they agree, and
    // the cursor is what the pinned view actually serializes.
    data.last_lsn = commit_ts_.load(std::memory_order_seq_cst);
    data.seq = durability_->next_snapshot_seq;
    for (const auto& [key, table] : tables_)
      captured.push_back({table, table->indexed_columns(), table->next_auto()});
    data.channels = journal_.channel_states();
    pin = registry_.pin(commit_ts_);
  }
  // No locks: serialize the pinned view while DML proceeds. pin.ts() ==
  // last_lsn — both were read under the same hold.
  for (const CapturedTable& cap : captured) {
    TableState state;
    state.name = cap.table->name();
    state.columns = cap.table->columns();
    state.indexed = cap.indexed;
    state.next_auto = cap.next_auto;
    const Table::Reader reader = cap.table->reader(pin.ts());
    for (const Row* row : reader.visible_rows()) state.rows.push_back(*row);
    data.tables.push_back(std::move(state));
  }
  return CapturedImage{encode_snapshot(data), data.last_lsn};
}

void Database::restore_snapshot_locked(SnapshotData& snapshot) {
  const std::uint64_t boundary = snapshot.last_lsn;
  // The image replaces everything: current tables (none during recovery)
  // are stamped dropped at the image boundary — readers pinned before it
  // keep resolving them through the catalog — and the image's tables
  // become the visible set from the boundary on, their rows restored with
  // begin_ts 0. Channel revisions and the LSN cursor are adopted wholesale.
  for (const auto& [key, table] : tables_) {
    table->commit_pending(boundary);  // no rollback: stamp any strays
    table->stamp_dropped(boundary);
  }
  tables_.clear();
  pending_drops_.clear();
  for (TableState& state : snapshot.tables) {
    Table& table = create_table_locked(state.name, state.columns);
    for (Row& row : state.rows) table.restore_row(std::move(row));
    table.set_next_auto(state.next_auto);
    for (const std::string& column : state.indexed) table.create_index(column);
  }
  for (const std::shared_ptr<Table>& created : pending_creates_) created->stamp_created(boundary);
  pending_creates_.clear();
  for (const auto& [channel, revision] : snapshot.channels)
    journal_.restore_channel(channel, revision);
  durability_->next_lsn = boundary + 1;
  commit_ts_.store(boundary, std::memory_order_seq_cst);
}

std::uint64_t Database::publish_snapshot_locked(std::string bytes,
                                                std::optional<std::uint64_t> absorbed) {
  // The crash points belong to the checkpoint. A replica install
  // (`absorbed` empty) replaces the whole history, and its crash repair is
  // the leader's re-bootstrap.
  const auto point = [checkpoint = absorbed.has_value()](std::string_view name) {
    if (checkpoint) support::crash_point(name);
  };
  vfs::FileSystem& fs = *durability_->fs;
  const std::uint64_t seq = durability_->next_snapshot_seq;
  const std::string tmp_path = vfs::join(durability_->dir, kSnapshotTmpName);
  const std::string final_path = vfs::join(durability_->dir, snapshot_file_name(seq));
  point("snapshot.write.before");
  fs.write_file(tmp_path, std::move(bytes));
  // Crash here: an orphaned tmp file recovery never reads. Publication is
  // the rename — atomic, so readers see the old snapshot set or the new
  // one, never a partial file under the real name.
  point("snapshot.write.after");
  fs.rename(tmp_path, final_path);
  // Crash here: the snapshot is live but the WAL still holds records it
  // absorbed — replay skips them by LSN, so recovery is exact either way.
  point("snapshot.rename.after");
  if (absorbed)
    durability_->wal.reset_through(*absorbed);
  else
    durability_->wal.reset();
  ++durability_->next_snapshot_seq;
  point("snapshot.retire.before");
  // Retention: keep the newest two, so a corrupt newest falls back one
  // step instead of losing the store.
  const std::vector<std::uint64_t> seqs = list_snapshots(fs, durability_->dir);
  for (std::size_t i = 0; i + 2 < seqs.size(); ++i)
    fs.remove(vfs::join(durability_->dir, snapshot_file_name(seqs[i])));
  return seq;
}

void Database::wal_flush() {
  std::lock_guard<std::mutex> lock(table_lock_);
  if (durability_) durability_->wal.flush();
}

void Database::set_wal_group_commit(std::size_t batch) {
  std::lock_guard<std::mutex> lock(table_lock_);
  require_state(durability_ != nullptr, "set_wal_group_commit() requires a durable store");
  durability_->wal.set_group_commit(batch);
}

// --- replication surface (DESIGN.md §12) -------------------------------------

void Database::set_wal_sink(WalSink sink) {
  std::lock_guard<std::mutex> lock(table_lock_);
  require_state(sink == nullptr || durability_ != nullptr,
                "set_wal_sink() requires a durable store (open_durable)");
  wal_sink_ = std::move(sink);
}

void Database::set_read_only(bool read_only, std::string leader_hint) {
  std::lock_guard<std::mutex> lock(table_lock_);
  read_only_error_ =
      leader_hint.empty()
          ? std::string("read-only replica: writes must go to the leader")
          : strings::cat("read-only replica: writes must go to the leader (", leader_hint,
                         ")");
  read_only_.store(read_only, std::memory_order_relaxed);
}

std::uint64_t Database::replicate_apply(std::string_view group) {
  // One decode: the records drive the apply, their frames are appended to
  // the replica's WAL byte for byte.
  WalReadResult wal = read_wal(group);
  require_state(!wal.torn && !wal.records.empty() && wal.records.back().commit,
                "corrupt statement group");
  std::size_t first_new = wal.records.size();
  std::uint64_t position = 0;
  {
    const auto lock = timed_lock<std::unique_lock<std::mutex>>(
        table_lock_, exclusive_acquisitions_, exclusive_wait_ns_);
    require_state(durability_ != nullptr, "replicate_apply() requires a durable store");
    for (std::size_t i = 0; i < wal.records.size(); ++i) {
      WalRecord& record = wal.records[i];
      // Duplicate delivery (a re-ship overlapping the acked prefix) is
      // idempotent: already-applied records are skipped by LSN.
      if (record.lsn < durability_->next_lsn) continue;
      require_state(
          record.lsn == durability_->next_lsn,
          strings::cat("replication gap: expected LSN ", durability_->next_lsn, ", got ",
                       record.lsn, " — catch up from the leader WAL or re-bootstrap"));
      first_new = std::min(first_new, i);
      apply_locked(record);
      // Replay-applied records keep their leader LSNs in the replica's own
      // WAL, so a crashed follower recovers to the same gapless history.
      const std::size_t start = wal.frame_start(i);
      durability_->wal.append_frame(record.lsn, group.substr(start, wal.ends[i] - start));
      ++durability_->next_lsn;
      // Commit-marked record: stamp the group's versions with its LSN —
      // the leader's commit timestamps, reproduced exactly.
      if (record.commit) stamp_commit_locked(record.lsn);
    }
    maybe_reclaim_locked();
    durability_->wal.commit();
    position = durability_->next_lsn - 1;
  }
  // The applied records are a suffix of the group (skipped ones precede
  // them); their channels are notified exactly like a local commit's.
  for (const std::string& channel : touched_channels(std::span(wal.records).subspan(first_new)))
    journal_.notify(channel);
  return position;
}

std::string Database::snapshot_image() const { return capture_image(/*flush_wal=*/false).bytes; }

std::uint64_t Database::install_replica_snapshot(std::string_view image) {
  // Not zero-pause: a wholesale state replacement has no meaningful
  // concurrent-writer story. Holds both locks like snapshot()'s publish.
  std::lock_guard<std::mutex> checkpoint_guard(snapshot_mutex_);
  std::lock_guard<std::mutex> lock(table_lock_);
  require_state(durability_ != nullptr,
                "install_replica_snapshot() requires a durable store");
  std::optional<SnapshotData> snapshot = decode_snapshot(image);
  require_state(snapshot.has_value(), "install_replica_snapshot: corrupt snapshot image");
  restore_snapshot_locked(*snapshot);
  // Persist the image as this replica's own snapshot and reset the WAL: an
  // independent crash recovery of this store now starts from the image.
  publish_snapshot_locked(std::string(image), std::nullopt);
  return snapshot->last_lsn;
}

std::string Database::wal_image() const {
  std::lock_guard<std::mutex> lock(table_lock_);
  require_state(durability_ != nullptr, "wal_image() requires a durable store");
  const std::string& path = durability_->wal.path();
  return durability_->fs->is_file(path) ? durability_->fs->read_file(path) : std::string();
}

std::string Database::dump_state() const {
  // A pinned view, like any SELECT: dump_state on a live database races
  // nothing and blocks nothing. Catalog entries are (name, seq)-sorted and
  // at most one entry per name is visible at any ts, so iteration order
  // matches the old name-keyed map exactly.
  const ReaderRegistry::Pin pin = registry_.pin(commit_ts_);
  const Catalog* catalog = catalog_.load(std::memory_order_seq_cst);
  std::string out;
  for (const CatalogEntry& entry : catalog->entries) {
    const Table& table = *entry.table;
    if (!table.visible_at(pin.ts())) continue;
    out += strings::cat("table ", table.name(), "\n");
    for (const ColumnDef& column : table.columns())
      out += strings::cat("  column ", column.name, " type=",
                          static_cast<int>(column.type), " pk=", column.primary_key ? 1 : 0,
                          " auto=", column.auto_increment ? 1 : 0, "\n");
    for (const std::string& column : table.indexed_columns())
      out += strings::cat("  index ", column, "\n");
    out += strings::cat("  next_auto ", table.next_auto(), "\n");
    for (const Row* row : table.reader(pin.ts()).visible_rows()) {
      out += "  row";
      for (const Value& value : *row) out += strings::cat(" |", value.to_string());
      out += "\n";
    }
  }
  for (const auto& [channel, revision] : journal_.channel_states())
    out += strings::cat("channel ", channel, " revision=", revision, "\n");
  return out;
}

std::uint64_t Database::last_lsn() const {
  std::lock_guard<std::mutex> lock(table_lock_);
  return durability_ ? durability_->next_lsn - 1 : 0;
}

std::uint64_t Database::wal_records_appended() const {
  std::lock_guard<std::mutex> lock(table_lock_);
  return durability_ ? durability_->wal.records_appended() : 0;
}

std::uint64_t Database::wal_flushes() const {
  std::lock_guard<std::mutex> lock(table_lock_);
  return durability_ ? durability_->wal.flushes() : 0;
}

std::uint64_t Database::wal_bytes_written() const {
  std::lock_guard<std::mutex> lock(table_lock_);
  return durability_ ? durability_->wal.bytes_written() : 0;
}

// --- MVCC observability & read views (DESIGN.md §13) -------------------------

MvccStatus Database::mvcc_status() const {
  std::lock_guard<std::mutex> lock(table_lock_);
  MvccStatus status;
  status.commit_ts = commit_ts_.load(std::memory_order_seq_cst);
  const ReaderRegistry::Horizon horizon = registry_.horizon(status.commit_ts);
  status.min_active_ts = horizon.ts;
  status.active_read_views = registry_.active_views();
  status.read_views_opened = read_views_opened_.load(std::memory_order_relaxed);
  for (const auto& [key, table] : tables_) {
    const Table::Stats stats = table->stats();
    status.versions_reclaimed += stats.reclaimed;
    status.versions_live += stats.versions;
    status.retired_pending += stats.retired_pending;
    status.limbo_versions += stats.limbo_versions;
    status.max_chain = std::max(status.max_chain, stats.max_chain);
    for (std::size_t i = 0; i < status.chain_histogram.size(); ++i)
      status.chain_histogram[i] += stats.chain_histogram[i];
    status.tables.push_back({table->name(), stats});
  }
  return status;
}

ReadView Database::read_view() {
  ReadView view;
  view.db_ = this;
  view.pin_ = registry_.pin(commit_ts_);
  read_views_opened_.fetch_add(1, std::memory_order_relaxed);
  view.catalog_ = catalog_.load(std::memory_order_seq_cst);
  return view;
}

void Database::reset_stats() {
  cache_hits_.store(0, std::memory_order_relaxed);
  cache_misses_.store(0, std::memory_order_relaxed);
  plans_index_probe_.store(0, std::memory_order_relaxed);
  plans_index_join_.store(0, std::memory_order_relaxed);
  plans_hash_join_.store(0, std::memory_order_relaxed);
  plans_scan_.store(0, std::memory_order_relaxed);
  exclusive_acquisitions_.store(0, std::memory_order_relaxed);
  exclusive_wait_ns_.store(0, std::memory_order_relaxed);
  read_views_opened_.store(0, std::memory_order_relaxed);
}

ResultSet ReadView::execute(std::string_view sql, std::span<const Value> params) {
  if (db_ == nullptr) throw StateError("ReadView: not attached to a database");
  return execute(*db_->prepare(sql), params);
}

ResultSet ReadView::execute(const Prepared& statement, std::span<const Value> params) {
  if (db_ == nullptr) throw StateError("ReadView: not attached to a database");
  if (!std::holds_alternative<SelectStmt>(statement.statement()))
    throw StateError("ReadView accepts SELECT statements only");
  require_params(statement, params);
  return db_->run_select(statement, *catalog_, pin_.ts(), params);
}

}  // namespace rocks::sqldb
