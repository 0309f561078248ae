// A collection of packages — either a full distribution's RPMS directory or
// an updates directory. rocks-dist merges several of these, resolving each
// package name to its newest version (paper Section 6.2.1).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rpm/package.hpp"

namespace rocks::rpm {

class Repository {
 public:
  Repository() : revision_(fresh_revision()) {}
  explicit Repository(std::string name) : name_(std::move(name)), revision_(fresh_revision()) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Identifies this contents: drawn from a process-wide counter at
  /// construction and on every add(), and carried by copy and assignment.
  /// Two repositories with one revision hold the same packages, so caches
  /// derived from a repository (kickstart profiles, install images) key on
  /// it. Package pointers handed out before a revision change may dangle.
  [[nodiscard]] std::uint64_t revision() const { return revision_; }

  /// Adds a package; multiple versions of the same name/arch may coexist
  /// (a mirror holds the stock release and every update).
  void add(Package package);

  /// All stored packages, in deterministic (name, arch, EVR) order.
  [[nodiscard]] std::vector<const Package*> all() const;

  /// Every version of `name` (any arch), oldest first.
  [[nodiscard]] std::vector<const Package*> versions(std::string_view name) const;

  /// The newest version of `name` (optionally restricted to `arch`;
  /// "noarch" packages match any requested arch). Nullopt when unknown.
  [[nodiscard]] const Package* newest(std::string_view name, std::string_view arch = "") const;

  /// The package that provides capability `cap` (its own name or an entry
  /// in `provides`), newest version. Nullptr when nothing provides it.
  [[nodiscard]] const Package* provider(std::string_view cap, std::string_view arch = "") const;

  /// One package per (name, arch) at its newest EVR — the version
  /// resolution step of rocks-dist.
  [[nodiscard]] std::vector<const Package*> resolve_newest() const;

  [[nodiscard]] std::size_t package_count() const;
  [[nodiscard]] std::uint64_t total_bytes() const;
  [[nodiscard]] bool contains(std::string_view name) const;

 private:
  [[nodiscard]] static std::uint64_t fresh_revision();

  std::string name_;
  std::uint64_t revision_;
  // name -> list of versions (append order; newest located by scan).
  std::map<std::string, std::vector<Package>, std::less<>> packages_;
};

}  // namespace rocks::rpm
