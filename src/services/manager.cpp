#include "services/manager.hpp"

#include <exception>

#include "support/crashpoint.hpp"
#include "support/strings.hpp"
#include "vfs/path.hpp"

namespace rocks::services {

ServiceManager::~ServiceManager() { detach(); }

void ServiceManager::register_service(std::string name, std::string config_path,
                                      Generator generator, std::vector<std::string> tables) {
  for (std::string& table : tables) table = strings::to_lower(table);
  // Service is neither copyable nor movable (atomic dirty flag), so build
  // it in place; re-registering a name replaces the old entry.
  services_.erase(name);
  const auto it = services_.try_emplace(std::move(name)).first;
  it->second.config_path = std::move(config_path);
  it->second.generator = std::move(generator);
  it->second.tables = std::move(tables);
}

void ServiceManager::attach(sqldb::ChangeJournal& journal) {
  detach();
  journal_ = &journal;
  // One wildcard subscription; the callback fans the channel out to the
  // services that declared it. Only atomic flags are touched, so this is
  // safe from any committing thread.
  subscription_ = journal.subscribe(
      sqldb::ChangeJournal::kAllChannels,
      [this](std::string_view channel, std::uint64_t) { mark_dirty(channel); });
}

void ServiceManager::detach() {
  if (journal_ != nullptr) {
    journal_->unsubscribe(subscription_);
    journal_ = nullptr;
    subscription_ = 0;
  }
}

void ServiceManager::mark_dirty(std::string_view table) {
  const std::string lowered = strings::to_lower(table);
  for (auto& [name, service] : services_) {
    if (service.tables.empty()) {
      service.dirty.store(true, std::memory_order_release);
      continue;
    }
    for (const std::string& dep : service.tables) {
      if (dep == lowered) {
        service.dirty.store(true, std::memory_order_release);
        break;
      }
    }
  }
}

void ServiceManager::mark_all_dirty() {
  for (auto& [name, service] : services_)
    service.dirty.store(true, std::memory_order_release);
}

bool ServiceManager::dirty(std::string_view service) const {
  const auto it = services_.find(service);
  return it != services_.end() && it->second.dirty.load(std::memory_order_acquire);
}

ServiceManager::Report ServiceManager::regenerate(sqldb::Database& db, vfs::FileSystem& fs) {
  Report report;
  for (auto& [name, service] : services_) {
    // Detached managers keep the original regenerate-everything behaviour.
    // Clear the flag *before* rendering: a commit landing mid-render
    // re-marks the service and the next flush catches it.
    if (attached() && !service.dirty.exchange(false, std::memory_order_acq_rel)) continue;

    std::string fresh;
    try {
      fresh = service.generator(db);
      ++service.generator_runs;
    } catch (const std::exception& error) {
      // Keep flushing the remaining services; this one stays dirty and is
      // retried next time.
      service.dirty.store(true, std::memory_order_release);
      report.failed.push_back(name);
      report.failure_reasons.push_back(error.what());
      continue;
    }

    const std::uint64_t fresh_hash = vfs::content_hash(fresh);
    bool changed;
    if (!fs.is_file(service.config_path)) {
      changed = true;
    } else if (service.last_hash && fs.file_hash(service.config_path) == *service.last_hash) {
      // The file is still exactly what we last wrote: hash-to-hash compare,
      // no byte comparison.
      ++hash_compares_;
      changed = fresh_hash != *service.last_hash;
    } else {
      // Externally modified (or written before hashes were tracked) —
      // distrust our record and compare against the actual bytes.
      ++read_fallbacks_;
      changed = fs.read_file(service.config_path) != fresh;
    }
    if (!changed) {
      service.last_hash = fresh_hash;
      continue;
    }
    fs.mkdir_p(vfs::dirname(service.config_path));
    // Atomic publication (DESIGN.md §11): write the full content to a temp
    // file, then rename over the live path. A daemon reading its config
    // concurrently — or a crash at any instant — observes the old file or
    // the new one, never a partial write. A stale .tmp from an earlier
    // crash is simply overwritten here.
    const std::string tmp_path = strings::cat(service.config_path, ".tmp");
    auto& points = support::CrashPoints::instance();
    if (points.fires("services.config.tmp.torn")) {
      // Simulated crash mid-write: half the bytes land in the temp file.
      // The live config path is untouched — that is the invariant.
      fs.write_file(tmp_path, fresh.substr(0, fresh.size() / 2));
      points.trip("services.config.tmp.torn");
    }
    // Hand over the bytes and their digest: no copy, and the next flush's
    // file_hash is a cache read instead of a re-hash (the hash cache moves
    // with the node through the rename).
    fs.write_file(tmp_path, std::move(fresh), 0, fresh_hash);
    support::crash_point("services.config.rename.before");
    fs.rename(tmp_path, service.config_path);
    support::crash_point("services.config.rename.after");
    service.last_hash = fresh_hash;
    ++service.restarts;
    report.restarted.push_back(name);
  }
  return report;
}

std::uint64_t ServiceManager::restarts(std::string_view service) const {
  const auto it = services_.find(service);
  return it == services_.end() ? 0 : it->second.restarts;
}

std::uint64_t ServiceManager::total_restarts() const {
  std::uint64_t total = 0;
  for (const auto& [name, service] : services_) total += service.restarts;
  return total;
}

std::uint64_t ServiceManager::generator_runs(std::string_view service) const {
  const auto it = services_.find(service);
  return it == services_.end() ? 0 : it->second.generator_runs;
}

std::vector<std::string> ServiceManager::service_names() const {
  std::vector<std::string> out;
  out.reserve(services_.size());
  for (const auto& [name, service] : services_) out.push_back(name);
  return out;
}

}  // namespace rocks::services
