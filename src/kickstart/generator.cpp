#include "kickstart/generator.hpp"

#include <functional>
#include <set>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::kickstart {

std::string localize(std::string_view text, const NodeConfig& config) {
  // Marker-free text (most header commands, many %post bodies) copies
  // straight through; marked text is rewritten in a single pass.
  std::size_t at = text.find('@');
  if (at == std::string_view::npos) return std::string(text);

  const std::string ip = config.ip.to_string();
  const std::string frontend = config.frontend_ip.to_string();
  const struct {
    std::string_view marker;
    const std::string& replacement;
  } markers[] = {
      {"@HOSTNAME@", config.hostname},
      {"@IP@", ip},
      {"@FRONTEND@", frontend},
      {"@DISTRIBUTION@", config.distribution_url},
      {"@ARCH@", config.arch},
  };

  std::string out;
  out.reserve(text.size() + 32);
  std::size_t pos = 0;
  while (at != std::string_view::npos) {
    out.append(text.substr(pos, at - pos));
    pos = at;
    bool replaced = false;
    for (const auto& m : markers) {
      if (text.substr(at, m.marker.size()) == m.marker) {
        out.append(m.replacement);
        pos = at + m.marker.size();
        replaced = true;
        break;
      }
    }
    if (!replaced) {
      out.push_back('@');
      pos = at + 1;
    }
    at = text.find('@', pos);
  }
  out.append(text.substr(pos));
  return out;
}

Generator::Generator(const NodeFileSet& files, const Graph& graph,
                     const rpm::Repository* distro, sqldb::ChangeJournal* bus)
    : files_(files),
      graph_(graph),
      distro_(distro),
      bus_(bus),
      distro_revision_(distro != nullptr ? distro->revision() : 0) {
  if (bus_ == nullptr) return;
  // One subscription per kickstart input channel; callbacks only flip the
  // stale flag, so they are safe from any publishing thread.
  for (const std::string_view channel : {kGraphChannel, kNodeFilesChannel}) {
    subscriptions_.push_back(bus_->subscribe(
        channel, [this](std::string_view, std::uint64_t) { mark_stale(); }));
  }
}

Generator::~Generator() {
  if (bus_ == nullptr) return;
  for (const std::size_t id : subscriptions_) bus_->unsubscribe(id);
}

Generator::Profile Generator::build_profile(const std::string& appliance,
                                            const std::string& arch) const {
  Profile out;
  // Header: the answers to every interactive-install question (Section 5),
  // identical across nodes except for the localized pieces.
  out.commands.push_back({"install", ""});
  out.commands.push_back({"url", "--url @DISTRIBUTION@"});
  out.commands.push_back({"lang", "en_US"});
  out.commands.push_back({"keyboard", "us"});
  out.commands.push_back({"network", "--bootproto dhcp"});
  out.commands.push_back({"rootpw", "--iscrypted $1$rocks$kickstart"});
  out.commands.push_back({"timezone", "--utc America/Los_Angeles"});
  out.commands.push_back({"zerombr", "yes"});
  // Only the root partition is reformatted; /state/partition1 persists
  // across reinstalls (paper Section 6.3).
  out.commands.push_back({"clearpart", "--linux"});
  out.commands.push_back({"part", "/ --size 4096 --ondisk auto"});
  out.commands.push_back({"part", "/state/partition1 --size 1 --grow --noformat"});
  out.commands.push_back({"auth", "--useshadow --enablenis --nisdomain rocks"});
  out.commands.push_back({"reboot", ""});

  const auto order = graph_.traverse(appliance, arch);
  std::set<std::string> seen_packages;
  for (const auto& module : order) {
    require_found(files_.contains(module),
                  strings::cat("graph references module '", module,
                               "' but no node file defines it"));
    const NodeFile& file = files_.get(module);
    for (const PackageEntry* entry : file.packages_for(arch)) {
      if (entry->optional && distro_ != nullptr && !distro_->contains(entry->name)) continue;
      if (seen_packages.insert(entry->name).second) out.packages.push_back(entry->name);
    }
  }
  // Post sections run in traversal order, after all packages are installed.
  // Bodies stay raw here; localization and empty-trimming happen per node.
  for (const auto& module : order) {
    const NodeFile& file = files_.get(module);
    for (const PostScript* post : file.posts_for(arch))
      out.posts.push_back({module, post->body});
  }
  return out;
}

std::size_t Generator::stripe_of(const std::string& appliance, const std::string& arch) {
  // Mix both halves of the key so appliances sharing an arch still spread.
  return (std::hash<std::string>{}(appliance) * 31 + std::hash<std::string>{}(arch)) % kStripes;
}

void Generator::flush_stripes() const {
  for (auto& stripe : stripes_) {
    std::unique_lock<std::shared_mutex> lock(stripe.mutex);
    stripe.entries.clear();
  }
}

std::shared_ptr<const Generator::Profile> Generator::profile_for(
    const std::string& appliance, const std::string& arch) const {
  // Two staleness sources feed one flush: the bus-set stale flag, and the
  // polled Graph/NodeFileSet/Repository revision counters
  // (files_.get_mutable() bumps its revision, so edits made through it are
  // caught even without a bus). Double-checked under flush_mutex_ so
  // concurrent requests flush once, not once each.
  const std::uint64_t graph_now = graph_.revision();
  const std::uint64_t files_now = files_.revision();
  const std::uint64_t distro_now = distro_ != nullptr ? distro_->revision() : 0;
  if (stale_.load(std::memory_order_acquire) ||
      graph_revision_.load(std::memory_order_acquire) != graph_now ||
      files_revision_.load(std::memory_order_acquire) != files_now ||
      distro_revision_.load(std::memory_order_acquire) != distro_now) {
    std::lock_guard<std::mutex> lock(flush_mutex_);
    // Consume the flag before flushing: a publisher racing this flush
    // re-marks stale and the *next* request flushes again, never missing.
    const bool was_stale = stale_.exchange(false, std::memory_order_acq_rel);
    if (was_stale ||
        graph_revision_.load(std::memory_order_relaxed) != graph_now ||
        files_revision_.load(std::memory_order_relaxed) != files_now ||
        distro_revision_.load(std::memory_order_relaxed) != distro_now) {
      flush_stripes();
      graph_revision_.store(graph_now, std::memory_order_release);
      files_revision_.store(files_now, std::memory_order_release);
      distro_revision_.store(distro_now, std::memory_order_release);
    }
  }

  Stripe& stripe = stripes_[stripe_of(appliance, arch)];
  const auto key = std::make_pair(appliance, arch);
  {
    std::shared_lock<std::shared_mutex> lock(stripe.mutex);
    const auto it = stripe.entries.find(key);
    if (it != stripe.entries.end()) {
      cache_hits_.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  // Build outside any lock — traversal and package merge are the expensive
  // part, and two threads racing to build the same key is cheaper than
  // serializing every miss. The loser adopts the winner's entry.
  cache_misses_.fetch_add(1, std::memory_order_relaxed);
  auto built = std::make_shared<const Profile>(build_profile(appliance, arch));
  std::unique_lock<std::shared_mutex> lock(stripe.mutex);
  return stripe.entries.try_emplace(key, std::move(built)).first->second;
}

KickstartFile Generator::generate(const NodeConfig& config) const {
  const std::shared_ptr<const Profile> profile = profile_for(config.appliance, config.arch);
  KickstartFile out;
  for (const auto& command : profile->commands)
    out.add_command(command.name, localize(command.arguments, config));
  for (const auto& package : profile->packages) out.add_package(package);
  for (const auto& post : profile->posts) {
    const std::string body = localize(post.body, config);
    if (!strings::trim(body).empty())
      out.add_post(post.origin, std::string(strings::trim(body)));
  }
  return out;
}

std::string Generator::generate_text(const NodeConfig& config) const {
  return generate(config).render();
}

}  // namespace rocks::kickstart
