#include "rpm/repository.hpp"

#include <algorithm>
#include <atomic>

namespace rocks::rpm {
namespace {

bool arch_matches(const Package& pkg, std::string_view arch) {
  // "noarch" fits anywhere; source packages are compiled on the target node
  // (the Myrinet-driver pattern), so they also satisfy any architecture.
  return arch.empty() || pkg.arch == arch || pkg.arch == "noarch" || pkg.arch == "src";
}

}  // namespace

std::uint64_t Repository::fresh_revision() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void Repository::add(Package package) {
  packages_[package.name].push_back(std::move(package));
  revision_ = fresh_revision();
}

std::vector<const Package*> Repository::all() const {
  std::vector<const Package*> out;
  for (const auto& [name, versions] : packages_)
    for (const auto& pkg : versions) out.push_back(&pkg);
  std::sort(out.begin(), out.end(), [](const Package* a, const Package* b) {
    if (a->name != b->name) return a->name < b->name;
    if (a->arch != b->arch) return a->arch < b->arch;
    return a->evr < b->evr;
  });
  return out;
}

std::vector<const Package*> Repository::versions(std::string_view name) const {
  std::vector<const Package*> out;
  const auto it = packages_.find(name);
  if (it == packages_.end()) return out;
  for (const auto& pkg : it->second) out.push_back(&pkg);
  std::sort(out.begin(), out.end(),
            [](const Package* a, const Package* b) { return a->evr < b->evr; });
  return out;
}

const Package* Repository::newest(std::string_view name, std::string_view arch) const {
  const auto it = packages_.find(name);
  if (it == packages_.end()) return nullptr;
  const Package* best = nullptr;
  for (const auto& pkg : it->second) {
    if (!arch_matches(pkg, arch)) continue;
    if (best == nullptr || best->evr < pkg.evr) best = &pkg;
  }
  return best;
}

const Package* Repository::provider(std::string_view cap, std::string_view arch) const {
  if (const Package* direct = newest(cap, arch)) return direct;
  const Package* best = nullptr;
  for (const auto& [name, versions] : packages_) {
    for (const auto& pkg : versions) {
      if (!arch_matches(pkg, arch)) continue;
      if (std::find(pkg.provides.begin(), pkg.provides.end(), cap) == pkg.provides.end())
        continue;
      if (best == nullptr || best->evr < pkg.evr) best = &pkg;
    }
  }
  return best;
}

std::vector<const Package*> Repository::resolve_newest() const {
  // Newest per (name, arch).
  std::vector<const Package*> out;
  for (const auto& [name, versions] : packages_) {
    std::map<std::string, const Package*> best_by_arch;
    for (const auto& pkg : versions) {
      auto& slot = best_by_arch[pkg.arch];
      if (slot == nullptr || slot->evr < pkg.evr) slot = &pkg;
    }
    for (const auto& [arch, pkg] : best_by_arch) out.push_back(pkg);
  }
  std::sort(out.begin(), out.end(), [](const Package* a, const Package* b) {
    if (a->name != b->name) return a->name < b->name;
    return a->arch < b->arch;
  });
  return out;
}

std::size_t Repository::package_count() const {
  std::size_t total = 0;
  for (const auto& [name, versions] : packages_) total += versions.size();
  return total;
}

std::uint64_t Repository::total_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [name, versions] : packages_)
    for (const auto& pkg : versions) total += pkg.size_bytes;
  return total;
}

bool Repository::contains(std::string_view name) const { return packages_.contains(name); }

}  // namespace rocks::rpm
