#include "vfs/path.hpp"

#include <algorithm>

#include "support/strings.hpp"

namespace rocks::vfs {

bool is_normal(std::string_view path) {
  if (path.empty() || path.front() != '/') return false;
  if (path.size() == 1) return true;
  if (path.back() == '/') return false;
  // Every component sits between a '/' and the next '/' or the end.
  for (std::size_t start = 1; start <= path.size();) {
    const std::size_t slash = std::min(path.find('/', start), path.size());
    const std::string_view part = path.substr(start, slash - start);
    if (part.empty() || part == "." || part == "..") return false;
    start = slash + 1;
  }
  return true;
}

std::size_t append_lexically(std::string& out, std::string_view path) {
  std::size_t climbed = 0;
  for (std::size_t start = 0; start <= path.size();) {
    const std::size_t slash = std::min(path.find('/', start), path.size());
    const std::string_view part = path.substr(start, slash - start);
    start = slash + 1;
    if (part.empty() || part == ".") continue;
    if (part != "..") {
      out += '/';
      out += part;
    } else if (out.empty()) {
      ++climbed;
    } else {
      out.resize(out.rfind('/'));
    }
  }
  return climbed;
}

std::string normalize(std::string_view path) {
  if (is_normal(path)) return std::string(path);
  std::string out;
  append_lexically(out, path);  // ".." at the root stays there
  return out.empty() ? "/" : out;
}

std::string join(std::string_view base, std::string_view tail) {
  if (!tail.empty() && tail.front() == '/') return normalize(tail);
  return normalize(strings::cat(base, "/", tail));
}

std::string dirname(std::string_view path) {
  const std::string norm = normalize(path);
  const std::size_t slash = norm.find_last_of('/');
  if (slash == 0) return "/";
  return norm.substr(0, slash);
}

std::string basename(std::string_view path) {
  const std::string norm = normalize(path);
  if (norm == "/") return "";
  return norm.substr(norm.find_last_of('/') + 1);
}

bool is_within(std::string_view path, std::string_view ancestor) {
  if (!is_normal(path) || !is_normal(ancestor))
    return is_within(normalize(path), normalize(ancestor));
  return path.starts_with(ancestor) &&
         (ancestor.size() == 1 || path.size() == ancestor.size() || path[ancestor.size()] == '/');
}

}  // namespace rocks::vfs
