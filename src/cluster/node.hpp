// A cluster node and its installer state machine.
//
// "Reinstallation is the primary mechanism for forcing the base OS on the
// root partition of compute nodes to a known state" (paper Section 6.3).
// A node's life is a loop through:
//
//   kOff -> (power_on, blank disk or install flag) kInstallWait
//        -> DHCP + kickstart request over HTTP      kInstalling
//        -> RPM download via the shared channel     (fluid flow, 1 MB/s cap)
//        -> post-configuration + driver rebuild     kPostConfig
//        -> final boot                               kRunning
//
// A hard power cycle at any point forces a fresh reinstall (the paper's
// footnote: "A hard power cycle on a Rocks compute node forces the node to
// reinstall itself"); shoot-node does the same gracefully. Non-root
// partitions survive; the root partition is always rebuilt from the
// distribution.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "cluster/ekv.hpp"
#include "kickstart/server.hpp"
#include "netsim/dhcp.hpp"
#include "netsim/engine.hpp"
#include "netsim/http.hpp"
#include "netsim/peer.hpp"
#include "netsim/syslog.hpp"
#include "rpm/image.hpp"
#include "rpm/rpmdb.hpp"
#include "support/rng.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::cluster {

enum class NodeState {
  kOff,
  kInstallWait,  // booted into the installer, waiting for DHCP + kickstart
  kInstalling,   // pulling and installing RPMs
  kPostConfig,   // %post scripts, driver rebuild
  kRebooting,    // final boot into the installed system
  kRunning,
  kFailed,  // installer gave up (retry/watchdog budget exhausted); needs
            // recovery escalation (a power cycle restarts the install)
};

[[nodiscard]] std::string_view node_state_name(NodeState state);

/// Phase durations (seconds). The defaults calibrate a single-node Myrinet
/// reinstall to the paper's Table I row: 60 (boot into installer) + 10
/// (DHCP/kickstart) + 40 (disk format) + 223 (download+install at the 1 MB/s
/// install-pipeline demand) + 75 (%post) + 120 (driver rebuild, from the
/// gm-driver package) + 90 (final boot) = 618 s = 10.3 min.
struct NodeTimings {
  double installer_boot = 60.0;
  double dhcp_and_kickstart = 10.0;
  double disk_format = 40.0;
  double post_config = 75.0;
  double final_boot = 90.0;
  /// Client-side consume rate of the install pipeline in bytes/s: the node
  /// can only install as fast as rpm writes to disk (~1 MB/s on the PIIIs).
  double install_demand = 1.0 * 1024 * 1024;

  // --- robustness knobs ------------------------------------------------------
  // All retry schedules are zero-cost on the happy path: the FIRST retry of
  // any phase fires after exactly its base interval (so the Table I
  // calibration and the insert-ethers integration loop are timing-identical
  // to a fault-free installer), and only subsequent retries back off
  // exponentially (doubling, capped) with multiplicative jitter to avoid
  // synchronized retry storms from a 32-node pulse.

  /// DHCP retry base while unanswered (insert-ethers integration loop, lost
  /// DISCOVERs) and its backoff cap.
  double dhcp_retry = 10.0;
  double dhcp_retry_max = 80.0;
  /// Kickstart CGI retry base/cap (transient refused connections).
  double kickstart_retry = 5.0;
  double kickstart_retry_max = 60.0;
  /// Re-request base/cap after a download aborted by a server crash or a
  /// connection reset.
  double download_retry = 5.0;
  double download_retry_max = 60.0;
  /// Jitter fraction applied from the second retry on: the delay is
  /// multiplied by a uniform draw from [1, 1 + retry_jitter). 0 disables.
  double retry_jitter = 0.25;
  /// Aborted-download re-requests allowed per install before giving up.
  int download_retry_budget = 8;
  /// Watchdog: an install still not finished after this many seconds is
  /// assumed wedged and hard power cycled (0 disables). The default is far
  /// above the ~618 s worst-case clean install, so it never fires without
  /// real faults.
  double install_watchdog = 3600.0;
  /// Consecutive watchdog power cycles before the node declares itself
  /// failed and waits for recovery escalation.
  int watchdog_budget = 3;
};

/// The services a booting node talks to; owned by the frontend.
struct NodeEnvironment {
  netsim::Simulator* sim = nullptr;
  netsim::SyslogBus* syslog = nullptr;
  netsim::DhcpServer* dhcp = nullptr;
  kickstart::KickstartServer* kickstart = nullptr;
  netsim::HttpServerGroup* http = nullptr;
  /// Install images of the distribution HTTP serves (DESIGN.md §14.5).
  rpm::InstallImageCache* images = nullptr;
  /// Optional peer-assisted distribution (DESIGN.md §14). When wired — and
  /// the node has joined via join_peer_network() — package downloads go
  /// through the swarm instead of straight to the HTTP group.
  netsim::PeerDistribution* peers = nullptr;
};

class Node {
 public:
  Node(NodeEnvironment env, Mac mac, std::string arch = "i386", NodeTimings timings = {});

  // --- identity ------------------------------------------------------------
  [[nodiscard]] const Mac& mac() const { return mac_; }
  [[nodiscard]] const std::string& arch() const { return arch_; }
  /// Hostname/IP are learned from DHCP; empty/0 before first integration.
  [[nodiscard]] const std::string& hostname() const { return hostname_; }
  [[nodiscard]] Ipv4 ip() const { return ip_; }

  // --- control ---------------------------------------------------------------
  /// Applies power. A node with no installed OS — or one whose reinstall
  /// flag is set — boots into the installer; otherwise boots normally.
  void power_on();
  void power_off();
  /// Hard power cycle: off, then on with the reinstall flag forced.
  void hard_power_cycle();
  /// shoot-node's message: reboot into installation mode gracefully.
  void shoot();

  // --- state -------------------------------------------------------------------
  [[nodiscard]] NodeState state() const { return state_; }
  [[nodiscard]] bool is_running() const { return state_ == NodeState::kRunning; }
  [[nodiscard]] bool failed() const { return state_ == NodeState::kFailed; }
  [[nodiscard]] int install_count() const { return install_count_; }
  /// Wall-clock seconds of the most recent completed reinstall.
  [[nodiscard]] double last_install_duration() const { return last_install_duration_; }
  [[nodiscard]] std::uint64_t bytes_downloaded_total() const { return bytes_downloaded_; }

  // --- robustness telemetry ----------------------------------------------------
  /// Lifetime count of download re-requests after aborted flows.
  [[nodiscard]] std::uint64_t download_retries() const { return download_retries_; }
  /// Lifetime count of watchdog-initiated hard power cycles.
  [[nodiscard]] std::uint64_t watchdog_fires() const { return watchdog_fires_; }
  /// Lifetime count of installs that gave up (entered kFailed).
  [[nodiscard]] std::uint64_t install_failures() const { return install_failures_; }

  // --- the machine ------------------------------------------------------------
  [[nodiscard]] vfs::FileSystem& fs() { return fs_; }
  [[nodiscard]] const vfs::FileSystem& fs() const { return fs_; }
  [[nodiscard]] const rpm::RpmDatabase& rpmdb() const { return rpmdb_; }
  [[nodiscard]] EkvConsole& ekv() { return ekv_; }

  /// Equal fingerprints <=> identical installed package sets.
  [[nodiscard]] std::uint64_t software_fingerprint() const { return rpmdb_.fingerprint(); }

  // --- experiment hooks ---------------------------------------------------------
  /// Simulates configuration drift: overwrite a file by hand.
  void corrupt_file(std::string_view path, std::string_view content);
  /// Simulates a user building unpackaged software on the node.
  void install_rogue_package(const rpm::Package& package);
  /// Replaces this node's software state with a bit-copy of `model`'s root
  /// partition and package database — the disk-cloning baseline's apply
  /// step. Only meaningful while running. The copy is copy-on-write, so it
  /// costs O(entries in /), not O(files).
  void clone_software_from(const Node& model);

  // --- processes (the cluster-kill substrate) --------------------------------
  /// Starts a named process; only running nodes accept jobs.
  void launch_process(std::string name);
  /// Kills every process with the given name; returns how many died.
  std::size_t kill_processes(std::string_view name);
  [[nodiscard]] std::size_t process_count() const { return processes_.size(); }
  [[nodiscard]] std::size_t process_count(std::string_view name) const;

  /// Fires whenever the node reaches kRunning.
  void on_running(std::function<void()> callback) { on_running_ = std::move(callback); }

  /// Fires on every installer state-machine transition, after state() moved.
  /// The cluster wires this to publish kNodeState onto the event spine; the
  /// observer must not re-enter the node synchronously (schedule instead).
  void set_state_observer(std::function<void(NodeState)> observer) {
    state_observer_ = std::move(observer);
  }

  // --- peer-assisted distribution (DESIGN.md §14) ----------------------------
  /// Assigns this node's endpoint id in the peer distribution network; the
  /// cluster calls this right after add_node. Downloads use the swarm from
  /// the next install on.
  void join_peer_network(std::uint32_t endpoint) { peer_endpoint_ = endpoint; }
  [[nodiscard]] bool peer_networked() const {
    return env_.peers != nullptr && peer_endpoint_ >= 0;
  }

  // --- control-plane failover (DESIGN.md §12.5) ------------------------------
  /// Re-points this node's services at a new provider (a promoted replica
  /// frontend). Only non-null fields of `env` replace the current wiring;
  /// the change takes effect on the node's next request or retry, so an
  /// install stalled on a dead frontend resumes against the new one without
  /// a power cycle.
  void repoint(const NodeEnvironment& env);

  // --- hardware failures (Section 4: the crash-cart workflow) ---------------
  /// The node's Ethernet/motherboard dies: it drops off the network and no
  /// amount of remote power cycling brings it back ("physical intervention
  /// is required").
  void inject_hardware_fault();
  [[nodiscard]] bool hardware_failed() const { return hardware_failed_; }
  /// The crash cart arrives: hardware is swapped; the node is left powered
  /// off with a blank disk (next power-on reinstalls).
  void repair_hardware();

 private:
  /// The in-flight install's context, kept across download retries so an
  /// aborted flow re-requests only the bytes it is still missing.
  struct InstallJob {
    kickstart::KickstartFile profile;
    std::shared_ptr<const rpm::InstallImage> image;  // what the download installs
    double bytes_remaining = 0.0;
    int retries = 0;  // against NodeTimings::download_retry_budget
  };

  /// The single write path for state_: every transition funnels through here
  /// so the state observer sees all of them.
  void set_state(NodeState state);
  void enter_install();
  void request_dhcp();
  void request_kickstart();
  void begin_download(const kickstart::KickstartFile& profile);
  void start_download();
  void retry_download(std::string why);
  void finish_install();
  void fail_install(std::string reason);
  void arm_watchdog();
  void disarm_watchdog();
  /// Backoff schedule: attempt 1 waits exactly `base` (deterministic, keeps
  /// fault-free timing identical); attempt n doubles up to `cap`, then
  /// multiplies by [1, 1 + retry_jitter).
  [[nodiscard]] double retry_delay(double base, double cap, int attempt);
  void log(std::string text);
  [[nodiscard]] bool epoch_valid(std::uint64_t epoch) const { return epoch == epoch_; }

  NodeEnvironment env_;
  Mac mac_;
  std::string arch_;
  NodeTimings timings_;

  NodeState state_ = NodeState::kOff;
  bool reinstall_on_boot_ = true;  // blank disk: first boot always installs
  std::int64_t peer_endpoint_ = -1;  // -1: not part of a peer network
  bool hardware_failed_ = false;
  std::string hostname_;
  Ipv4 ip_;
  std::uint64_t epoch_ = 0;  // bumped on power events; stale callbacks no-op

  vfs::FileSystem fs_;
  rpm::RpmDatabase rpmdb_;
  EkvConsole ekv_;

  int install_count_ = 0;
  double install_started_ = 0.0;
  double last_install_duration_ = 0.0;
  std::uint64_t bytes_downloaded_ = 0;
  std::optional<netsim::HttpServerGroup::Ticket> download_;
  std::unique_ptr<InstallJob> job_;
  std::function<void()> on_running_;
  std::function<void(NodeState)> state_observer_;
  std::multiset<std::string> processes_;

  // Robustness state. The jitter RNG is seeded from the MAC so every node
  // retries on its own deterministic schedule.
  Rng rng_;
  int dhcp_attempts_ = 0;
  int kickstart_attempts_ = 0;
  int watchdog_cycles_ = 0;
  bool watchdog_armed_ = false;
  netsim::EventId watchdog_event_ = 0;
  std::uint64_t download_retries_ = 0;
  std::uint64_t watchdog_fires_ = 0;
  std::uint64_t install_failures_ = 0;
};

}  // namespace rocks::cluster
