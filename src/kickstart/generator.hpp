// Kickstart file generation: graph traversal -> merged package list and
// %post sections -> Red Hat-compliant text (paper Section 6.1).
//
// The CGI hot path serves hundreds of nodes that differ only in hostname/IP,
// so the appliance-level work (graph traversal, package merge, distribution
// pruning, header assembly) is memoized per (appliance, arch) as a Profile
// skeleton; each request only substitutes the @MARKER@s for its node. The
// cache self-invalidates on Graph, NodeFileSet and Repository revision
// changes and on bus notifications — see DESIGN.md §8.3 and §10.
//
// Concurrency (DESIGN.md §9): generate() may be called from many threads at
// once (KickstartServer::handle_many). The profile cache is lock-striped —
// (appliance, arch) hashes to one of kStripes shards, each with its own
// reader-writer lock — so a mass reinstall's cache hits never contend on a
// single mutex. Profiles are handed out as shared_ptr snapshots: a reader
// mid-generate keeps its profile alive even if mark_stale() runs
// concurrently. The Graph/NodeFileSet/Repository themselves must not be
// mutated while requests are in flight (they are the serving config, not
// the cache).
//
// Invalidation flows through the change bus (DESIGN.md §10): a Generator
// constructed with a ChangeJournal subscribes to the graph and node-file
// channels and marks itself stale when either is touched; the next
// generate() flushes once. Every Generator also polls the Graph,
// NodeFileSet and Repository revision counters, so a bus-less one sees
// every edit too — both paths feed the same single stale/flush mechanism.
// Distribution edits are seen by the Repository poll alone.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "kickstart/graph.hpp"
#include "kickstart/nodefile.hpp"
#include "kickstart/profile.hpp"
#include "rpm/repository.hpp"
#include "sqldb/journal.hpp"
#include "support/ip.hpp"

namespace rocks::kickstart {

/// Node-specific parameters — what the CGI script learns from its SQL
/// queries before expanding the graph.
struct NodeConfig {
  std::string hostname;
  std::string appliance;  // graph root to traverse from
  std::string arch = "i386";
  Ipv4 ip;
  Ipv4 frontend_ip;
  std::string distribution_url;  // e.g. "http://10.1.1.1/install/rocks-dist"
};

/// Localization markers usable inside POST bodies; the generator replaces
/// them with the requesting node's values:
///   @HOSTNAME@  @IP@  @FRONTEND@  @DISTRIBUTION@  @ARCH@
[[nodiscard]] std::string localize(std::string_view text, const NodeConfig& config);

class Generator {
 public:
  // Bus channels the kickstart inputs publish on (Graph::set_bus /
  // NodeFileSet::set_bus / the frontend's distribution rebuilds). The
  // Generator subscribes to the first two; the distribution channel is for
  // the bus's other subscribers.
  static constexpr std::string_view kGraphChannel = "kickstart.graph";
  static constexpr std::string_view kNodeFilesChannel = "kickstart.nodefiles";
  static constexpr std::string_view kDistributionChannel = "kickstart.distribution";

  /// `distro` (optional) prunes TYPE="optional" packages that the
  /// distribution does not carry; required packages are never pruned (a
  /// missing one surfaces at install time, as on a real cluster).
  /// `bus` (optional) subscribes the profile cache to the graph and
  /// node-file channels above; with or without it, staleness is also
  /// detected by polling the Graph/NodeFileSet/Repository revision counters.
  Generator(const NodeFileSet& files, const Graph& graph,
            const rpm::Repository* distro = nullptr,
            sqldb::ChangeJournal* bus = nullptr);
  ~Generator();
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Expands the graph from `config.appliance` and assembles the kickstart
  /// file. Throws LookupError when the appliance or any traversed module
  /// has no node file.
  [[nodiscard]] KickstartFile generate(const NodeConfig& config) const;

  /// generate() + render() in one step — the CGI script's output.
  [[nodiscard]] std::string generate_text(const NodeConfig& config) const;

  /// Marks the profile cache stale; the next generate() flushes it once
  /// (a deferred bus-style flush — the same path bus notifications take).
  /// Safe to call from any thread, including bus callbacks: only an atomic
  /// flag is written. In-flight generates finish on their snapshots.
  void mark_stale() const { stale_.store(true, std::memory_order_release); }

  // Profile-cache observability (tests, tuning).
  [[nodiscard]] std::uint64_t profile_cache_hits() const {
    return cache_hits_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t profile_cache_misses() const {
    return cache_misses_.load(std::memory_order_relaxed);
  }

 private:
  /// The appliance-level kickstart skeleton: everything generate() can
  /// compute without knowing which node is asking. Marker text (@HOSTNAME@,
  /// @DISTRIBUTION@, ...) is left un-substituted and post bodies untrimmed
  /// so per-node localization stays byte-identical to the uncached path.
  struct Profile {
    std::vector<HeaderCommand> commands;
    std::vector<std::string> packages;
    std::vector<PostSection> posts;  // raw bodies, markers intact
  };

  /// Returns the cached profile for (appliance, arch) as a snapshot,
  /// building it on miss. Checks the Graph/NodeFileSet/Repository revisions
  /// first and flushes the whole cache when any moved.
  std::shared_ptr<const Profile> profile_for(const std::string& appliance,
                                             const std::string& arch) const;

  /// Builds a profile from scratch (the pre-cache generate() body).
  [[nodiscard]] Profile build_profile(const std::string& appliance,
                                      const std::string& arch) const;

  const NodeFileSet& files_;
  const Graph& graph_;
  const rpm::Repository* distro_;
  sqldb::ChangeJournal* bus_ = nullptr;
  std::vector<std::size_t> subscriptions_;  // bus subscription ids

  // Lock-striped profile cache. A shard's shared lock covers lookups, its
  // exclusive lock covers inserts and the flush; entries are shared_ptr so
  // a flush never yanks a profile out from under a reader.
  static constexpr std::size_t kStripes = 8;
  struct Stripe {
    mutable std::shared_mutex mutex;
    std::map<std::pair<std::string, std::string>, std::shared_ptr<const Profile>> entries;
  };
  [[nodiscard]] static std::size_t stripe_of(const std::string& appliance,
                                             const std::string& arch);
  void flush_stripes() const;

  mutable std::array<Stripe, kStripes> stripes_;
  // Serializes revision-triggered flushes (flush + counter update must be
  // one step); ordered before the stripe locks in the hierarchy.
  mutable std::mutex flush_mutex_;
  /// Set by bus callbacks and mark_stale(); consumed (exchanged false) by
  /// the next profile_for() flush.
  mutable std::atomic<bool> stale_{false};
  mutable std::atomic<std::uint64_t> graph_revision_{0};
  mutable std::atomic<std::uint64_t> files_revision_{0};
  mutable std::atomic<std::uint64_t> distro_revision_{0};  // 0 without a distro
  mutable std::atomic<std::uint64_t> cache_hits_{0};
  mutable std::atomic<std::uint64_t> cache_misses_{0};
};

}  // namespace rocks::kickstart
