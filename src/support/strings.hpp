// Small string utilities used across rocks++.
#pragma once

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace rocks::strings {

/// Splits `text` on every occurrence of `sep`; empty fields are preserved.
/// split("a,,b", ',') == {"a", "", "b"}; split("", ',') == {""}.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

/// Splits on runs of ASCII whitespace; no empty fields are produced.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view text);

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view text);

/// Joins `parts` with `sep` between consecutive elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// ASCII lower-casing (locale independent).
[[nodiscard]] std::string to_lower(std::string_view text);

/// ASCII case-insensitive equality; allocates nothing.
[[nodiscard]] bool iequals(std::string_view a, std::string_view b);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// True when `text` contains `needle`.
[[nodiscard]] bool contains(std::string_view text, std::string_view needle);

/// Replaces every occurrence of `from` with `to`.
[[nodiscard]] std::string replace_all(std::string_view text, std::string_view from,
                                      std::string_view to);

/// Glob-style match supporting '*' (any run) and '?' (any one char).
/// Used by package-name patterns and cluster-fork host selectors.
[[nodiscard]] bool glob_match(std::string_view pattern, std::string_view text);

namespace detail {
inline void cat_one(std::ostringstream& out) { (void)out; }
template <typename T, typename... Rest>
void cat_one(std::ostringstream& out, const T& head, const Rest&... rest) {
  out << head;
  cat_one(out, rest...);
}
}  // namespace detail

/// Streams every argument into one std::string. cat("n=", 4) == "n=4".
template <typename... Args>
[[nodiscard]] std::string cat(const Args&... args) {
  std::ostringstream out;
  detail::cat_one(out, args...);
  return out.str();
}

}  // namespace rocks::strings
