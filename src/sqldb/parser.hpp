// SQL statement AST and recursive-descent parser.
//
// Grammar subset (sufficient for every query in the paper plus the cluster
// tools' needs):
//
//   SELECT item[, item...] FROM table [alias][, table [alias]...]
//       [JOIN table [alias] ON expr]... [WHERE expr]
//       [ORDER BY expr [ASC|DESC][, ...]] [LIMIT n]
//   INSERT INTO table [(cols)] VALUES (exprs)[, (exprs)...]
//   UPDATE table SET col = expr[, ...] [WHERE expr]
//   DELETE FROM table [WHERE expr]
//   CREATE TABLE [IF NOT EXISTS] table (col TYPE [PRIMARY KEY]
//       [AUTO_INCREMENT], ...)
//   CREATE INDEX [IF NOT EXISTS] name ON table (column)
//   DROP TABLE [IF EXISTS] table
//
// Anywhere a value may stand, `?` is a placeholder whose value the caller
// binds at execute time (Database::execute(prepared, params)).
//
// JOIN ... ON is desugared into the FROM list plus a WHERE conjunct, which
// matches how the paper writes its joins (comma-style FROM with WHERE).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "sqldb/expr.hpp"
#include "sqldb/table.hpp"

namespace rocks::sqldb {

struct SelectItem {
  ExprPtr expr;        // null when star is set
  std::string alias;   // from AS, may be empty
  bool star = false;   // "*" or "table.*"
  std::string star_table;  // qualifier for "table.*", empty for bare "*"
};

struct TableRef {
  std::string table;
  std::string alias;  // empty means the table name itself
};

struct OrderKey {
  ExprPtr expr;
  bool descending = false;
};

struct SelectStmt {
  std::vector<SelectItem> items;
  std::vector<TableRef> from;
  ExprPtr where;  // may be null
  std::vector<OrderKey> order_by;
  std::optional<std::size_t> limit;
};

struct InsertStmt {
  std::string table;
  std::vector<std::string> columns;  // empty: positional full-width rows
  std::vector<std::vector<ExprPtr>> rows;
};

struct UpdateStmt {
  std::string table;
  std::vector<std::pair<std::string, ExprPtr>> assignments;
  ExprPtr where;  // may be null
};

struct DeleteStmt {
  std::string table;
  ExprPtr where;  // may be null
};

struct CreateTableStmt {
  std::string table;
  std::vector<ColumnDef> columns;
  bool if_not_exists = false;
};

struct CreateIndexStmt {
  std::string name;  // index name (informational; lookup is by table+column)
  std::string table;
  std::string column;
  bool if_not_exists = false;
};

struct DropTableStmt {
  std::string table;
  bool if_exists = false;
};

using Statement = std::variant<SelectStmt, InsertStmt, UpdateStmt, DeleteStmt, CreateTableStmt,
                               CreateIndexStmt, DropTableStmt>;

/// A parsed statement and the numbering binding relies on: `?`
/// placeholders are numbered 0..params-1 and column references
/// 0..column_refs-1, both in text order.
struct ParsedStatement {
  Statement statement;
  std::size_t params = 0;
  std::size_t column_refs = 0;
};

/// Parses one statement (a trailing ';' is allowed). Throws ParseError.
/// Database::prepare is its one caller: every parse is a statement-cache
/// miss there.
[[nodiscard]] ParsedStatement parse_statement(std::string_view sql);

}  // namespace rocks::sqldb
