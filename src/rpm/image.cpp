#include "rpm/image.hpp"

namespace rocks::rpm {

std::shared_ptr<const InstallImage> build_install_image(
    const Repository& repo, const std::vector<std::string>& requested, std::string_view arch) {
  auto image = std::make_shared<InstallImage>();
  image->revision = repo.revision();
  image->arch = std::string(arch);
  image->requested = requested;
  image->resolution = resolve(repo, requested, arch);
  for (const Package* pkg : image->resolution.install_order) {
    image->packages.install(*pkg, image->tree);
    if (pkg->is_source) image->build_seconds += pkg->build_seconds;
  }
  image->total_bytes = image->resolution.total_bytes();
  return image;
}

std::shared_ptr<const InstallImage> InstallImageCache::image(
    const std::vector<std::string>& requested, std::string_view arch) {
  if (!images_.empty() && images_.front()->revision != repo_.revision()) images_.clear();
  for (const auto& held : images_)
    if (held->arch == arch && held->requested == requested) return held;
  ++builds_;
  images_.push_back(build_install_image(repo_, requested, arch));
  return images_.back();
}

}  // namespace rocks::rpm
