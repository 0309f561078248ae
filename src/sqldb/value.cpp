#include "sqldb/value.hpp"

#include <cmath>
#include <functional>
#include <string_view>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace rocks::sqldb {

Type Value::type() const {
  switch (data_.index()) {
    case 0: return Type::kNull;
    case 1: return Type::kInt;
    case 2: return Type::kReal;
    default: return Type::kText;
  }
}

namespace {

// 2^63: the first double above every int64. Doubles in [-2^63, 2^63)
// truncate to an int64 exactly.
constexpr double kTwo63 = 9223372036854775808.0;

}  // namespace

std::int64_t Value::as_int() const {
  if (auto* i = std::get_if<std::int64_t>(&data_)) return *i;
  if (auto* d = std::get_if<double>(&data_)) {
    // NaN fails both tests; outside the range the cast is undefined.
    if (!(*d >= -kTwo63 && *d < kTwo63))
      throw StateError(strings::cat("Value::as_int: REAL ", *d, " is outside the INT range"));
    return static_cast<std::int64_t>(*d);
  }
  throw StateError("Value::as_int on non-numeric value");
}

double Value::as_real() const {
  if (auto* i = std::get_if<std::int64_t>(&data_)) return static_cast<double>(*i);
  if (auto* d = std::get_if<double>(&data_)) return *d;
  throw StateError("Value::as_real on non-numeric value");
}

const std::string& Value::as_text() const {
  if (auto* s = std::get_if<std::string>(&data_)) return *s;
  throw StateError("Value::as_text on non-text value");
}

std::string Value::to_string() const {
  switch (type()) {
    case Type::kNull: return "NULL";
    case Type::kInt: return std::to_string(std::get<std::int64_t>(data_));
    case Type::kReal: {
      // Trim trailing zeros for stable display.
      std::string s = fixed(std::get<double>(data_), 6);
      while (!s.empty() && s.back() == '0') s.pop_back();
      if (!s.empty() && s.back() == '.') s.pop_back();
      return s;
    }
    case Type::kText: return std::get<std::string>(data_);
  }
  return "NULL";
}

bool Value::truthy() const {
  switch (type()) {
    case Type::kNull: return false;
    case Type::kInt: return std::get<std::int64_t>(data_) != 0;
    case Type::kReal: return std::get<double>(data_) != 0.0;
    case Type::kText: return !std::get<std::string>(data_).empty();
  }
  return false;
}

namespace {

template <typename T>
int three_way(T x, T y) {
  return x < y ? -1 : (x > y ? 1 : 0);
}

/// INT vs REAL without rounding the int (above 2^53 a double cannot hold
/// every int64). NaN is unordered and compares equal, as it always has.
int compare_int_real(std::int64_t i, double d) {
  if (std::isnan(d)) return 0;
  if (d >= kTwo63) return -1;
  if (d < -kTwo63) return 1;
  const double whole = std::trunc(d);
  const auto w = static_cast<std::int64_t>(whole);
  if (i != w) return three_way(i, w);
  return three_way(0.0, d - whole);  // exact: the fraction decides
}

}  // namespace

std::size_t Value::hash() const {
  switch (type()) {
    case Type::kNull: return 0;
    // INT hashes through double so that compare()-equal INT/REAL pairs
    // collide on the same bucket (1 == 1.0 must hash identically). Exact
    // compare() keeps this sound: an INT equals a REAL only when the REAL is
    // exactly that INT, so both convert to the same double. INTs past 2^53
    // that round to one double merely share a bucket.
    case Type::kInt:
    case Type::kReal: return std::hash<double>{}(as_real());
    case Type::kText: return std::hash<std::string_view>{}(std::get<std::string>(data_));
  }
  return 0;
}

int Value::compare(const Value& other) const {
  const Type a = type();
  const Type b = other.type();
  const bool a_num = a == Type::kInt || a == Type::kReal;
  const bool b_num = b == Type::kInt || b == Type::kReal;
  if (a == Type::kNull || b == Type::kNull) {
    if (a == b) return 0;
    return a == Type::kNull ? -1 : 1;
  }
  if (a_num && b_num) {
    if (a == Type::kInt && b == Type::kInt) return three_way(as_int(), other.as_int());
    if (a == Type::kInt) return compare_int_real(as_int(), other.as_real());
    if (b == Type::kInt) return -compare_int_real(other.as_int(), as_real());
    return three_way(as_real(), other.as_real());
  }
  if (a_num != b_num) return a_num ? -1 : 1;  // numbers before text
  return three_way(as_text().compare(other.as_text()), 0);
}

}  // namespace rocks::sqldb
