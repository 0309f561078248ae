// Typed values for the mini SQL engine.
//
// Rocks stores its global cluster configuration in MySQL (paper Section 6.4,
// Tables II-III). The engine here supports the three types those tables
// need: integers, text, and NULL (plus doubles for completeness, since some
// site tables hold measurements).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace rocks::sqldb {

enum class Type { kNull, kInt, kReal, kText };

class Value {
 public:
  Value() : data_(std::monostate{}) {}
  Value(std::int64_t v) : data_(v) {}            // NOLINT(google-explicit-constructor)
  Value(int v) : data_(std::int64_t{v}) {}       // NOLINT(google-explicit-constructor)
  Value(double v) : data_(v) {}                  // NOLINT(google-explicit-constructor)
  Value(std::string v) : data_(std::move(v)) {}  // NOLINT(google-explicit-constructor)
  Value(const char* v) : data_(std::string(v)) {}  // NOLINT(google-explicit-constructor)
  Value(std::string_view v) : data_(std::string(v)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] static Value null() { return Value(); }

  [[nodiscard]] Type type() const;
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }

  /// Numeric access; INT and REAL interconvert, anything else throws.
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_real() const;
  /// TEXT access; throws on other types.
  [[nodiscard]] const std::string& as_text() const;

  /// SQL display form: NULL, 42, 3.5, or the raw text.
  [[nodiscard]] std::string to_string() const;

  /// SQL truthiness: NULL and 0 are false.
  [[nodiscard]] bool truthy() const;

  /// Three-valued SQL comparison is handled in expr.cpp; this is a total
  /// order used for ORDER BY and testing: NULL < numbers < text.
  [[nodiscard]] int compare(const Value& other) const;

  bool operator==(const Value& other) const { return compare(other) == 0; }

  /// Hash consistent with compare() == 0 (INT and REAL that are numerically
  /// equal hash identically), so Value can key the hash indexes and join
  /// tables in table.cpp / engine.cpp.
  [[nodiscard]] std::size_t hash() const;

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> data_;
};

/// Hasher/equality pair for unordered containers keyed by Value. Equality is
/// compare() == 0, matching the semantics of a satisfied SQL '=' predicate
/// on non-NULL operands.
struct ValueHash {
  std::size_t operator()(const Value& v) const { return v.hash(); }
};
struct ValueEqual {
  bool operator()(const Value& a, const Value& b) const { return a.compare(b) == 0; }
};

/// One row of a table or a result: a value per column.
using Row = std::vector<Value>;

}  // namespace rocks::sqldb
