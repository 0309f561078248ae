// Expression AST and evaluator for the mini SQL engine.
//
// Supports everything the paper's queries use — qualified column references
// ("nodes.membership = memberships.id"), comparisons, AND/OR/NOT — plus
// arithmetic, LIKE, IN, and IS [NOT] NULL for general use by the cluster
// tools (Section 6.4: "Any SQL query, including joins, can be fed to
// cluster-kill").
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sqldb/value.hpp"

namespace rocks::sqldb {

/// A bound column reference: the FROM table it reads (by position in the
/// statement's FROM list) and the column within that table. The engine
/// resolves every reference of a statement to one of these when it binds
/// the statement to a catalog (engine.cpp), so evaluation never looks a
/// name up.
struct ColumnSlot {
  std::uint32_t table = 0;
  std::uint32_t column = 0;
};

/// What an expression reads while it is evaluated: the statement's bound
/// column slots (indexed by Expr::column_ref()), the current row of each
/// FROM table, and the parameter values (indexed by placeholder number).
struct EvalContext {
  std::span<const ColumnSlot> columns;
  const Row* const* rows = nullptr;
  std::span<const Value> params;
};

enum class BinaryOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kLike,
};

enum class UnaryOp { kNot, kNeg };

class Expr;
using ExprPtr = std::unique_ptr<Expr>;

class Expr {
 public:
  enum class Kind { kLiteral, kParam, kColumn, kUnary, kBinary, kIn, kIsNull };

  static ExprPtr literal(Value value);
  /// The `?` placeholder numbered `index` (0-based, in text order).
  static ExprPtr param(std::size_t index);
  /// A column reference; `ref` numbers it within its statement (0-based, in
  /// text order) and indexes EvalContext::columns.
  static ExprPtr column(std::string table, std::string column, std::size_t ref);
  static ExprPtr unary(UnaryOp op, ExprPtr operand);
  static ExprPtr binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr in(ExprPtr needle, std::vector<ExprPtr> haystack, bool negated);
  static ExprPtr is_null(ExprPtr operand, bool negated);

  [[nodiscard]] Kind kind() const { return kind_; }

  // Structural accessors for the engine (engine.cpp): the binder walks every
  // column reference; the planner pattern-matches WHERE trees for AND-chains
  // of equality predicates.
  [[nodiscard]] BinaryOp binary_op() const { return binary_op_; }      // kBinary
  [[nodiscard]] const Expr* lhs() const { return lhs_.get(); }         // kUnary/kBinary
  [[nodiscard]] const Expr* rhs() const { return rhs_.get(); }         // kBinary
  [[nodiscard]] const std::string& column_table() const { return table_; }   // kColumn
  [[nodiscard]] const std::string& column_name() const { return column_; }   // kColumn
  [[nodiscard]] std::size_t column_ref() const { return index_; }            // kColumn
  [[nodiscard]] const std::vector<ExprPtr>& list() const { return list_; }   // kIn

  /// The value of a literal or a parameter, without copying it; null for
  /// every other kind. The planner probes indexes with it.
  [[nodiscard]] const Value* constant(std::span<const Value> params) const;

  /// Evaluates against the rows in scope. SQL three-valued logic is
  /// approximated: comparisons involving NULL yield NULL (which is falsy).
  [[nodiscard]] Value evaluate(const EvalContext& ctx) const;

  /// Column name heuristics used for SELECT output headers.
  [[nodiscard]] std::string display_name() const;

 private:
  Kind kind_ = Kind::kLiteral;
  Value value_;                    // kLiteral
  std::string table_, column_;     // kColumn
  std::size_t index_ = 0;          // kColumn: reference number; kParam: parameter number
  UnaryOp unary_op_ = UnaryOp::kNot;
  BinaryOp binary_op_ = BinaryOp::kEq;
  ExprPtr lhs_, rhs_;              // kUnary uses lhs_ only
  std::vector<ExprPtr> list_;      // kIn
  bool negated_ = false;           // kIn / kIsNull
};

/// SQL LIKE with % and _ wildcards (case sensitive, MySQL-binary style).
[[nodiscard]] bool like_match(const std::string& pattern, const std::string& text);

}  // namespace rocks::sqldb
