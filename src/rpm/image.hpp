// Install images: one resolve and one installed file tree per (distribution
// revision, arch, package list), shared by every node that installs it.
//
// rocks-dist builds a distribution once and every node installs from it
// (paper Section 6.2); nodes whose kickstart files ask for the same packages
// end with the same root partition. An InstallImage is that partition,
// built once by the ordinary installer into an empty FileSystem. A node
// reinstalling from it reformats its root to a copy-on-write share of the
// image's tree and adopts its package set (DESIGN.md §14.5).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rpm/repository.hpp"
#include "rpm/rpmdb.hpp"
#include "rpm/solver.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::rpm {

/// Immutable once built; hand it out as shared_ptr<const InstallImage>.
struct InstallImage {
  // The key: repository revision, arch and requested package list.
  std::uint64_t revision = 0;
  std::string arch;
  std::vector<std::string> requested;
  /// `requested` resolved. Its Package pointers are valid only while the
  /// repository still holds `revision`.
  Resolution resolution;
  /// install_order installed, in order, into an empty FileSystem by
  /// RpmDatabase::install, the same call a package-by-package install makes.
  vfs::FileSystem tree;
  RpmDatabase packages;  // what that install recorded
  // Derived from the resolution at build time, so holders never need its
  // pointers: payload bytes, and seconds to compile its source packages.
  std::uint64_t total_bytes = 0;
  double build_seconds = 0.0;
};

/// Resolves `requested` for `arch` against `repo` and installs the result.
[[nodiscard]] std::shared_ptr<const InstallImage> build_install_image(
    const Repository& repo, const std::vector<std::string>& requested, std::string_view arch);

/// The images of one repository, built on first request. Only the
/// repository's current revision is kept: a request after the revision
/// moved (the held images' `revision` differs) drops every image first. The cache is therefore bounded by the
/// distinct (arch, package list) pairs of one distribution, a handful (one
/// per appliance and arch), and never serves a dangling Package pointer.
/// Holders keep a dropped image alive. Not thread-safe: nodes ask from the
/// simulator thread.
class InstallImageCache {
 public:
  explicit InstallImageCache(const Repository& repo) : repo_(repo) {}
  InstallImageCache(const InstallImageCache&) = delete;
  InstallImageCache& operator=(const InstallImageCache&) = delete;

  /// The image for (the repository's current revision, arch, requested).
  [[nodiscard]] std::shared_ptr<const InstallImage> image(
      const std::vector<std::string>& requested, std::string_view arch);

  [[nodiscard]] std::size_t size() const { return images_.size(); }
  [[nodiscard]] std::uint64_t builds() const { return builds_; }

 private:
  const Repository& repo_;
  std::vector<std::shared_ptr<const InstallImage>> images_;
  std::uint64_t builds_ = 0;
};

}  // namespace rocks::rpm
