// The service manager: regenerates configuration files from the database
// and restarts exactly the services whose files changed — what
// insert-ethers does after each new node registration ("rebuilds
// service-specific configuration files by running queries against the
// database, and restarting the respective services", paper Section 6.4).
//
// Regeneration is dirty-tracked (DESIGN.md §10): each service declares the
// database tables it is derived from, and once the manager is attached to a
// ChangeJournal, committed changes to those tables mark the service dirty.
// regenerate() then re-renders only dirty services; clean services are not
// even invoked. Detached managers (no bus) treat every service as always
// dirty, preserving the original regenerate-everything behaviour.
//
// Change detection keeps a per-service FNV-1a content hash: a re-render is
// compared hash-to-hash against what the manager last wrote, falling back
// to a byte compare only when the file on disk was externally modified.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sqldb/engine.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::services {

class ServiceManager {
 public:
  using Generator = std::function<std::string(sqldb::Database&)>;

  /// Outcome of one regenerate() flush. A generator that throws does not
  /// abort the flush: the service is recorded here, stays dirty, and is
  /// retried on the next flush while every other service still regenerates.
  struct Report {
    std::vector<std::string> restarted;
    std::vector<std::string> failed;          // services whose generator threw
    std::vector<std::string> failure_reasons; // parallel to `failed`
  };

  ServiceManager() = default;
  ServiceManager(const ServiceManager&) = delete;
  ServiceManager& operator=(const ServiceManager&) = delete;
  ~ServiceManager();

  /// Registers a service: its config file path, the generator that produces
  /// the file's content from the database, and the tables the content is
  /// derived from (bus channels that mark it dirty). An empty table list
  /// means "depends on everything": any channel marks it dirty.
  /// Register services before attach() — registration is not synchronized
  /// against in-flight bus callbacks.
  void register_service(std::string name, std::string config_path, Generator generator,
                        std::vector<std::string> tables = {});

  /// Subscribes to the journal (one wildcard subscription); from here on,
  /// committed changes mark dependent services dirty and regenerate()
  /// renders dirty services only. Callbacks only flip per-service atomic
  /// dirty flags, so they are safe from any committing thread.
  void attach(sqldb::ChangeJournal& journal);
  void detach();
  [[nodiscard]] bool attached() const { return journal_ != nullptr; }

  /// Marks every service that depends on `table` dirty (the bus callback's
  /// path; also useful for external inputs without journal channels).
  void mark_dirty(std::string_view table);
  void mark_all_dirty();
  /// True when the named service is due for regeneration.
  [[nodiscard]] bool dirty(std::string_view service) const;

  /// Regenerates dirty services' config files into `fs` (all services when
  /// detached); a service whose file content changed is restarted. Not
  /// re-entrant: call from one flushing thread at a time.
  Report regenerate(sqldb::Database& db, vfs::FileSystem& fs);

  /// Per-service restart counters (for asserting restart minimality).
  [[nodiscard]] std::uint64_t restarts(std::string_view service) const;
  [[nodiscard]] std::uint64_t total_restarts() const;
  /// How many times a service's generator actually ran (asserting that
  /// clean services are skipped entirely).
  [[nodiscard]] std::uint64_t generator_runs(std::string_view service) const;
  [[nodiscard]] std::vector<std::string> service_names() const;

  // Change-detection observability: hash-compare fast path vs full-read
  // fallback (the latter only when a file was externally modified).
  [[nodiscard]] std::uint64_t hash_compares() const { return hash_compares_; }
  [[nodiscard]] std::uint64_t read_fallbacks() const { return read_fallbacks_; }

 private:
  struct Service {
    std::string config_path;
    Generator generator;
    std::vector<std::string> tables;          // lowered channel names
    std::atomic<bool> dirty{true};            // new services start dirty
    std::optional<std::uint64_t> last_hash;   // content hash we last wrote
    std::uint64_t restarts = 0;
    std::uint64_t generator_runs = 0;
  };

  // Service is non-movable (atomic member); the map stores it in place and
  // nodes are stable, so bus callbacks may dereference entries concurrently
  // with regenerate().
  std::map<std::string, Service, std::less<>> services_;

  sqldb::ChangeJournal* journal_ = nullptr;
  std::size_t subscription_ = 0;

  std::uint64_t hash_compares_ = 0;
  std::uint64_t read_fallbacks_ = 0;
};

}  // namespace rocks::services
