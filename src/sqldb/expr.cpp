#include "sqldb/expr.hpp"

#include <limits>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::sqldb {

ExprPtr Expr::literal(Value value) {
  auto e = std::make_unique<Expr>();
  e->kind_ = Kind::kLiteral;
  e->value_ = std::move(value);
  return e;
}

ExprPtr Expr::param(std::size_t index) {
  auto e = std::make_unique<Expr>();
  e->kind_ = Kind::kParam;
  e->index_ = index;
  return e;
}

ExprPtr Expr::column(std::string table, std::string column, std::size_t ref) {
  auto e = std::make_unique<Expr>();
  e->kind_ = Kind::kColumn;
  e->table_ = std::move(table);
  e->column_ = std::move(column);
  e->index_ = ref;
  return e;
}

ExprPtr Expr::unary(UnaryOp op, ExprPtr operand) {
  auto e = std::make_unique<Expr>();
  e->kind_ = Kind::kUnary;
  e->unary_op_ = op;
  e->lhs_ = std::move(operand);
  return e;
}

ExprPtr Expr::binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_unique<Expr>();
  e->kind_ = Kind::kBinary;
  e->binary_op_ = op;
  e->lhs_ = std::move(lhs);
  e->rhs_ = std::move(rhs);
  return e;
}

ExprPtr Expr::in(ExprPtr needle, std::vector<ExprPtr> haystack, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind_ = Kind::kIn;
  e->lhs_ = std::move(needle);
  e->list_ = std::move(haystack);
  e->negated_ = negated;
  return e;
}

ExprPtr Expr::is_null(ExprPtr operand, bool negated) {
  auto e = std::make_unique<Expr>();
  e->kind_ = Kind::kIsNull;
  e->lhs_ = std::move(operand);
  e->negated_ = negated;
  return e;
}

namespace {

constexpr std::int64_t kIntMin = std::numeric_limits<std::int64_t>::min();

[[noreturn]] void throw_int_overflow(std::string_view op) {
  throw StateError(strings::cat("INT overflow in '", op, "'"));
}

Value compare_result(const Value& lhs, const Value& rhs, BinaryOp op) {
  if (lhs.is_null() || rhs.is_null()) return Value::null();
  const int cmp = lhs.compare(rhs);
  bool result = false;
  switch (op) {
    case BinaryOp::kEq: result = cmp == 0; break;
    case BinaryOp::kNe: result = cmp != 0; break;
    case BinaryOp::kLt: result = cmp < 0; break;
    case BinaryOp::kLe: result = cmp <= 0; break;
    case BinaryOp::kGt: result = cmp > 0; break;
    case BinaryOp::kGe: result = cmp >= 0; break;
    default: throw StateError("compare_result: not a comparison op");
  }
  return Value(std::int64_t{result});
}

Value arithmetic_result(const Value& lhs, const Value& rhs, BinaryOp op) {
  if (lhs.is_null() || rhs.is_null()) return Value::null();
  const bool integral = lhs.type() == Type::kInt && rhs.type() == Type::kInt;
  if (integral) {
    const std::int64_t a = lhs.as_int();
    const std::int64_t b = rhs.as_int();
    std::int64_t out = 0;
    switch (op) {
      case BinaryOp::kAdd:
        if (__builtin_add_overflow(a, b, &out)) throw_int_overflow("+");
        return Value(out);
      case BinaryOp::kSub:
        if (__builtin_sub_overflow(a, b, &out)) throw_int_overflow("-");
        return Value(out);
      case BinaryOp::kMul:
        if (__builtin_mul_overflow(a, b, &out)) throw_int_overflow("*");
        return Value(out);
      case BinaryOp::kDiv:
        if (b == 0) return Value::null();
        if (a == kIntMin && b == -1) throw_int_overflow("/");  // the one quotient past INT64_MAX
        return Value(a / b);
      case BinaryOp::kMod:
        if (b == 0) return Value::null();
        if (b == -1) return Value(std::int64_t{0});  // INT64_MIN % -1 traps in hardware
        return Value(a % b);
      default: break;
    }
  } else {
    const double a = lhs.as_real();
    const double b = rhs.as_real();
    switch (op) {
      case BinaryOp::kAdd: return Value(a + b);
      case BinaryOp::kSub: return Value(a - b);
      case BinaryOp::kMul: return Value(a * b);
      case BinaryOp::kDiv:
        if (b == 0.0) return Value::null();
        return Value(a / b);
      case BinaryOp::kMod: return Value::null();
      default: break;
    }
  }
  throw StateError("arithmetic_result: not an arithmetic op");
}

/// An operand's value: a reference into the row, the parameters or the
/// literal when it names one (no copy), else evaluated into `scratch`.
const Value& operand(const Expr& expr, const EvalContext& ctx, Value& scratch) {
  if (expr.kind() == Expr::Kind::kColumn) {
    const ColumnSlot slot = ctx.columns[expr.column_ref()];
    return (*ctx.rows[slot.table])[slot.column];
  }
  if (const Value* value = expr.constant(ctx.params)) return *value;
  scratch = expr.evaluate(ctx);
  return scratch;
}

}  // namespace

const Value* Expr::constant(std::span<const Value> params) const {
  if (kind_ == Kind::kLiteral) return &value_;
  if (kind_ == Kind::kParam) return &params[index_];
  return nullptr;
}

Value Expr::evaluate(const EvalContext& ctx) const {
  Value lhs_scratch, rhs_scratch;
  const auto lhs = [&]() -> const Value& { return operand(*lhs_, ctx, lhs_scratch); };
  const auto rhs = [&]() -> const Value& { return operand(*rhs_, ctx, rhs_scratch); };
  switch (kind_) {
    case Kind::kLiteral: return value_;
    case Kind::kParam: return ctx.params[index_];
    case Kind::kColumn: {
      const ColumnSlot slot = ctx.columns[index_];
      return (*ctx.rows[slot.table])[slot.column];
    }
    case Kind::kUnary: {
      const Value& v = lhs();
      if (unary_op_ == UnaryOp::kNot) {
        if (v.is_null()) return Value::null();
        return Value(std::int64_t{!v.truthy()});
      }
      if (v.is_null()) return Value::null();
      if (v.type() == Type::kReal) return Value(-v.as_real());
      if (v.type() == Type::kInt && v.as_int() == kIntMin) throw_int_overflow("-");
      return Value(-v.as_int());
    }
    case Kind::kBinary: {
      switch (binary_op_) {
        case BinaryOp::kAnd: {
          // Short-circuit with NULL handling: false AND x == false.
          const Value& a = lhs();
          if (!a.is_null() && !a.truthy()) return Value(std::int64_t{0});
          const Value& b = rhs();
          if (!b.is_null() && !b.truthy()) return Value(std::int64_t{0});
          if (a.is_null() || b.is_null()) return Value::null();
          return Value(std::int64_t{1});
        }
        case BinaryOp::kOr: {
          const Value& a = lhs();
          if (!a.is_null() && a.truthy()) return Value(std::int64_t{1});
          const Value& b = rhs();
          if (!b.is_null() && b.truthy()) return Value(std::int64_t{1});
          if (a.is_null() || b.is_null()) return Value::null();
          return Value(std::int64_t{0});
        }
        case BinaryOp::kLike: {
          const Value& a = lhs();
          const Value& b = rhs();
          if (a.is_null() || b.is_null()) return Value::null();
          return Value(std::int64_t{like_match(b.to_string(), a.to_string())});
        }
        case BinaryOp::kEq:
        case BinaryOp::kNe:
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
          return compare_result(lhs(), rhs(), binary_op_);
        default: return arithmetic_result(lhs(), rhs(), binary_op_);
      }
    }
    case Kind::kIn: {
      const Value& needle = lhs();
      if (needle.is_null()) return Value::null();
      bool found = false;
      for (const auto& candidate : list_) {
        const Value& v = operand(*candidate, ctx, rhs_scratch);
        if (!v.is_null() && needle.compare(v) == 0) {
          found = true;
          break;
        }
      }
      return Value(std::int64_t{negated_ ? !found : found});
    }
    case Kind::kIsNull: {
      const bool null = lhs().is_null();
      return Value(std::int64_t{negated_ ? !null : null});
    }
  }
  return Value::null();
}

std::string Expr::display_name() const {
  switch (kind_) {
    case Kind::kColumn:
      return table_.empty() ? column_ : strings::cat(table_, ".", column_);
    case Kind::kLiteral: return value_.to_string();
    case Kind::kParam: return "?";
    default: return "expr";
  }
}

bool like_match(const std::string& pattern, const std::string& text) {
  // Translate SQL wildcards into the glob matcher's alphabet. Literal '*'
  // or '?' in the pattern must not act as glob wildcards, so match directly.
  std::size_t p = 0, t = 0;
  std::size_t star = std::string::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() && (pattern[p] == '_' || pattern[p] == text[t])) {
      ++p;
      ++t;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star = p++;
      star_t = t;
    } else if (star != std::string::npos) {
      p = star + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

}  // namespace rocks::sqldb
