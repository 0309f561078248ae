#include "rpm/rpmdb.hpp"

#include "rpm/repository.hpp"
#include "support/cow.hpp"
#include "support/strings.hpp"
#include "vfs/path.hpp"

namespace rocks::rpm {

void RpmDatabase::install(const Package& package, vfs::FileSystem& fs) {
  // Upgrade semantics: drop the old version's files first.
  erase(package.name, fs);

  const std::uint64_t per_file =
      package.files.empty() ? 0 : package.size_bytes / package.files.size();
  // Content records the owning package version so drift detection can see
  // when a file belongs to a different build.
  const std::string content = strings::cat("%", package.nevra(), "%\n");
  for (std::size_t i = 0; i < package.files.size(); ++i) {
    const std::string& path = package.files[i];
    fs.mkdir_p(vfs::dirname(path));
    const std::uint64_t payload =
        i + 1 == package.files.size()
            ? package.size_bytes - per_file * (package.files.size() - 1)
            : per_file;
    fs.write_file(path, content, payload);
  }
  writable().insert_or_assign(package.name, package);
}

bool RpmDatabase::erase(std::string_view name, vfs::FileSystem& fs) {
  const Package* old = find(name);
  if (old == nullptr) return false;
  for (const auto& path : old->files) fs.remove(path);
  Installed& installed = writable();
  installed.erase(installed.find(name));
  return true;
}

RpmDatabase::Installed& RpmDatabase::writable() {
  if (!sole_holder(installed_)) installed_ = std::make_shared<Installed>(*installed_);
  return *installed_;
}

bool RpmDatabase::installed(std::string_view name) const { return installed_->contains(name); }

const Package* RpmDatabase::find(std::string_view name) const {
  const auto it = installed_->find(name);
  return it == installed_->end() ? nullptr : &it->second;
}

std::vector<std::string> RpmDatabase::manifest() const {
  std::vector<std::string> out;
  out.reserve(installed_->size());
  for (const auto& [name, pkg] : *installed_) out.push_back(pkg.nevra());
  return out;  // map order == sorted by name
}

std::uint64_t RpmDatabase::fingerprint() const {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const auto& entry : manifest()) {
    for (char c : entry) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ULL;
    }
    hash ^= '\n';
    hash *= 1099511628211ULL;
  }
  return hash;
}

std::vector<const Package*> RpmDatabase::stale_against(const Repository& repo) const {
  std::vector<const Package*> out;
  for (const auto& [name, pkg] : *installed_) {
    const Package* newest = repo.newest(name, pkg.arch);
    if (newest != nullptr && pkg.evr < newest->evr) out.push_back(&pkg);
  }
  return out;
}

}  // namespace rocks::rpm
