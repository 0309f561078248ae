// Per-node installed-package database (the /var/lib/rpm of a simulated
// machine). Installing a package materializes its files into the node's
// virtual filesystem; the manifest fingerprint is how the toolkit decides
// whether two nodes run identical software (the consistency question the
// paper's reinstall philosophy is designed to eliminate, Section 3.2).
//
// Copies share one package map until either side installs or erases, so a
// node adopting an install image's package set copies no Package.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "rpm/package.hpp"
#include "rpm/repository.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::rpm {

class RpmDatabase {
 public:
  /// Installs (or upgrades, when an older version is present) into `fs`.
  /// Files are written with the package's bytes spread across them.
  void install(const Package& package, vfs::FileSystem& fs);

  /// Removes the package and its files. Returns false when not installed.
  bool erase(std::string_view name, vfs::FileSystem& fs);

  [[nodiscard]] bool installed(std::string_view name) const;
  [[nodiscard]] const Package* find(std::string_view name) const;
  [[nodiscard]] std::size_t package_count() const { return installed_->size(); }

  /// Sorted "name-version-release.arch" list — `rpm -qa` output.
  [[nodiscard]] std::vector<std::string> manifest() const;

  /// Order-independent hash of the manifest; equal fingerprints mean equal
  /// installed software sets.
  [[nodiscard]] std::uint64_t fingerprint() const;

  /// Packages in `this` that are older than the newest version in `repo`
  /// (the "is my node stale?" question from Section 6.2.1).
  [[nodiscard]] std::vector<const Package*> stale_against(const Repository& repo) const;

 private:
  using Installed = std::map<std::string, Package, std::less<>>;  // by name

  /// The map, un-shared first when a copy of this database still holds it.
  Installed& writable();

  std::shared_ptr<Installed> installed_ = std::make_shared<Installed>();
};

}  // namespace rocks::rpm
