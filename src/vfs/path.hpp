// Absolute-path string utilities for the virtual filesystem.
//
// All vfs paths are absolute, '/'-separated, and normalized (no ".", "..",
// duplicate slashes, or trailing slash except for the root itself).
#pragma once

#include <string>
#include <string_view>

namespace rocks::vfs {

/// True when `path` is already in normal form: absolute, with no empty,
/// "." or ".." component and no trailing slash (except "/" itself).
[[nodiscard]] bool is_normal(std::string_view path);

/// Appends the components of `path` to `out` in "/a/b" form, applying "."
/// and ".." lexically (a ".." removes the last component appended). Returns
/// how many ".." found `out` empty, i.e. climbed above where it started.
std::size_t append_lexically(std::string& out, std::string_view path);

/// Normalizes `path` ("/a//b/./c/.." -> "/a/b"). A relative input is
/// interpreted against "/". ".." at the root is clamped to the root.
[[nodiscard]] std::string normalize(std::string_view path);

/// Joins and normalizes; an absolute `tail` replaces `base` entirely.
[[nodiscard]] std::string join(std::string_view base, std::string_view tail);

/// Parent directory ("/a/b" -> "/a"; "/" -> "/").
[[nodiscard]] std::string dirname(std::string_view path);

/// Final component ("/a/b" -> "b"; "/" -> "").
[[nodiscard]] std::string basename(std::string_view path);

/// True when `path` equals `ancestor` or lies beneath it.
[[nodiscard]] bool is_within(std::string_view path, std::string_view ancestor);

}  // namespace rocks::vfs
