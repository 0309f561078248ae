#include "cluster/node.hpp"

#include <algorithm>
#include <cstdio>

#include "support/backoff.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "vfs/path.hpp"

namespace rocks::cluster {

using strings::cat;

std::string_view node_state_name(NodeState state) {
  switch (state) {
    case NodeState::kOff: return "off";
    case NodeState::kInstallWait: return "install-wait";
    case NodeState::kInstalling: return "installing";
    case NodeState::kPostConfig: return "post-config";
    case NodeState::kRebooting: return "rebooting";
    case NodeState::kRunning: return "running";
    case NodeState::kFailed: return "failed";
  }
  return "?";
}

Node::Node(NodeEnvironment env, Mac mac, std::string arch, NodeTimings timings)
    : env_(env),
      mac_(mac),
      arch_(std::move(arch)),
      timings_(timings),
      ekv_(cat("node-", mac.to_string())),
      rng_(mac.value() * 0x9E3779B97F4A7C15ULL + 0xC0FFEE) {
  require_state(env_.sim != nullptr && env_.syslog != nullptr,
                "Node needs at least a simulator and a syslog bus");
  fs_.add_partition("/state/partition1");
}

void Node::set_state(NodeState state) {
  if (state_ == state) return;
  state_ = state;
  if (auto observer = state_observer_) observer(state);  // copy: may reset itself
}

void Node::log(std::string text) {
  ekv_.write_line(env_.sim->now(), text);
  env_.syslog->publish({env_.sim->now(), "ekv",
                        hostname_.empty() ? mac_.to_string() : hostname_, std::move(text)});
}

void Node::power_on() {
  require_state(state_ == NodeState::kOff, "power_on: node is already powered");
  ++epoch_;
  if (hardware_failed_) {
    // Power flows but the machine never reaches the network: from the
    // frontend it is simply dark (Section 4: "an administrator is 'in the
    // dark' from the moment the node is powered on").
    return;
  }
  if (reinstall_on_boot_) {
    enter_install();
  } else {
    set_state(NodeState::kRebooting);
    const std::uint64_t epoch = epoch_;
    env_.sim->schedule(timings_.final_boot, [this, epoch] {
      if (!epoch_valid(epoch)) return;
      set_state(NodeState::kRunning);
      log("boot complete");
      // A normally-booted node holds the full distribution on disk: it can
      // serve installing peers without having gone through fetch() itself.
      if (peer_networked())
        env_.peers->mark_seeded(static_cast<std::uint32_t>(peer_endpoint_));
      if (auto callback = on_running_) callback();  // copy: callback may reset itself
    });
  }
}

void Node::power_off() {
  ++epoch_;  // cancels every in-flight phase
  disarm_watchdog();
  if (download_ && download_->server != nullptr) {
    download_->server->abort(download_->flow);
    download_.reset();
  }
  // Dying mid-swarm: our own fetch is silently dropped, and every peer we
  // were serving gets its abort callback (the churn path the retry/backoff
  // machinery already handles).
  if (peer_networked())
    env_.peers->node_offline(static_cast<std::uint32_t>(peer_endpoint_));
  processes_.clear();
  set_state(NodeState::kOff);
}

void Node::hard_power_cycle() {
  power_off();
  reinstall_on_boot_ = true;  // the paper's footnote: hard cycle => reinstall
  power_on();
}

void Node::shoot() {
  require_state(state_ == NodeState::kRunning,
                cat("shoot: node ", hostname_, " is not running (state: ",
                    node_state_name(state_), ")"));
  log("shoot-node: rebooting into installation mode");
  power_off();
  reinstall_on_boot_ = true;
  power_on();
}

void Node::enter_install() {
  set_state(NodeState::kInstallWait);
  if (peer_networked())
    env_.peers->begin_install(static_cast<std::uint32_t>(peer_endpoint_));
  install_started_ = env_.sim->now();
  dhcp_attempts_ = 0;
  kickstart_attempts_ = 0;
  job_.reset();
  arm_watchdog();
  log("entering installation mode");
  const std::uint64_t epoch = epoch_;
  env_.sim->schedule(timings_.installer_boot, [this, epoch] {
    if (!epoch_valid(epoch)) return;
    request_dhcp();
  });
}

double Node::retry_delay(double base, double cap, int attempt) {
  // The shared policy (support/backoff.hpp): attempt 1 is always exactly
  // `base` — the fault-free path (and the insert-ethers first-boot loop)
  // must not depend on the RNG at all — then doubling capped, with
  // multiplicative jitter. The replication reconnect loop uses the same
  // policy, so the two schedules cannot drift.
  return support::BackoffPolicy{base, cap, timings_.retry_jitter}.delay(attempt, rng_);
}

void Node::repoint(const NodeEnvironment& env) {
  // Failover: only the services the new environment actually offers are
  // re-pointed; null fields keep the current wiring (a promoted replica
  // frontend typically brings kickstart + HTTP, while DHCP leases already
  // held remain valid). In-flight phases captured their epoch, not the
  // service pointers, so the very next retry or request uses the new
  // wiring without a power cycle.
  if (env.dhcp != nullptr) env_.dhcp = env.dhcp;
  if (env.kickstart != nullptr) env_.kickstart = env.kickstart;
  if (env.http != nullptr) env_.http = env.http;
  if (env.images != nullptr) env_.images = env.images;
  if (env.peers != nullptr) env_.peers = env.peers;
}

void Node::request_dhcp() {
  require_state(env_.dhcp != nullptr, "node has no DHCP server wired");
  const std::uint64_t epoch = epoch_;
  const auto lease = env_.dhcp->discover(mac_);
  if (!lease) {
    // Unknown to the cluster yet (insert-ethers will add us) or the
    // broadcast was lost on the wire: keep retrying. The first retry fires
    // at exactly the base interval; after that we back off with jitter so a
    // whole pulse of nodes does not hammer dhcpd in lockstep.
    ++dhcp_attempts_;
    const double delay =
        retry_delay(timings_.dhcp_retry, timings_.dhcp_retry_max, dhcp_attempts_);
    if (dhcp_attempts_ >= 2)
      log(cat("dhcp: no offer (attempt ", dhcp_attempts_, "); retrying in ",
              fixed(delay, 1), " s"));
    env_.sim->schedule(delay, [this, epoch] {
      if (!epoch_valid(epoch)) return;
      request_dhcp();
    });
    return;
  }
  dhcp_attempts_ = 0;
  hostname_ = lease->hostname;
  ip_ = lease->ip;
  log(cat("dhcp: bound to ", ip_.to_string(), " as ", hostname_));

  env_.sim->schedule(timings_.dhcp_and_kickstart, [this, epoch] {
    if (!epoch_valid(epoch)) return;
    request_kickstart();
  });
}

void Node::request_kickstart() {
  require_state(env_.kickstart != nullptr, "node has no kickstart server wired");
  const std::uint64_t epoch = epoch_;
  kickstart::KickstartFile profile;
  try {
    profile = env_.kickstart->handle_request_file(ip_);
  } catch (const UnavailableError& outage) {
    ++kickstart_attempts_;
    const double delay = retry_delay(timings_.kickstart_retry, timings_.kickstart_retry_max,
                                     kickstart_attempts_);
    log(cat("kickstart: request refused (", outage.what(), "); retry #",
            kickstart_attempts_, " in ", fixed(delay, 1), " s"));
    env_.sim->schedule(delay, [this, epoch] {
      if (!epoch_valid(epoch)) return;
      request_kickstart();
    });
    return;
  }
  kickstart_attempts_ = 0;
  log(cat("kickstart: received profile with ", profile.packages().size(), " packages"));
  env_.sim->schedule(timings_.disk_format, [this, epoch, profile] {
    if (!epoch_valid(epoch)) return;
    begin_download(profile);
  });
}

void Node::begin_download(const kickstart::KickstartFile& profile) {
  require_state(env_.http != nullptr && env_.images != nullptr,
                "node has no HTTP distribution wired");
  set_state(NodeState::kInstalling);

  // Every node asking for this package list on this arch shares one image.
  std::shared_ptr<const rpm::InstallImage> image =
      env_.images->image(profile.packages(), arch_);
  const rpm::Resolution& resolution = image->resolution;
  if (!resolution.complete())
    log(cat("WARNING: ", resolution.missing.size(),
            " requirements missing from the distribution (first: ", resolution.missing[0],
            ")"));

  const auto bytes = static_cast<double>(image->total_bytes);
  EkvProgress progress;
  progress.total_packages = resolution.install_order.size();
  progress.total_bytes = image->total_bytes;
  ekv_.set_progress(progress);
  log(cat("downloading ", resolution.install_order.size(), " packages, ",
          fixed(bytes / (1024.0 * 1024.0), 0), " MB over HTTP"));

  job_ = std::make_unique<InstallJob>();
  job_->profile = profile;
  job_->image = std::move(image);
  job_->bytes_remaining = bytes;
  start_download();
}

void Node::start_download() {
  const std::uint64_t epoch = epoch_;
  if (peer_networked()) {
    // The swarm resumes from its chunk cache, so every (re)request asks for
    // the full payload; the abort callback reports total bytes held, from
    // which the remainder is derived for the log and the failure ledger.
    const auto total = static_cast<double>(job_->image->total_bytes);
    env_.peers->fetch(
        static_cast<std::uint32_t>(peer_endpoint_), total, timings_.install_demand,
        [this, epoch] {
          if (!epoch_valid(epoch)) return;
          job_->bytes_remaining = 0.0;
          finish_install();
        },
        [this, epoch, total](double delivered) {
          if (!epoch_valid(epoch)) return;
          job_->bytes_remaining = std::max(0.0, total - delivered);
          retry_download("peer transfer aborted by source churn");
        });
    return;
  }
  download_ = env_.http->serve(
      job_->bytes_remaining, timings_.install_demand,
      [this, epoch] {
        if (!epoch_valid(epoch)) return;
        download_.reset();
        job_->bytes_remaining = 0.0;
        finish_install();
      },
      [this, epoch](double delivered) {
        if (!epoch_valid(epoch)) return;
        download_.reset();
        job_->bytes_remaining = std::max(0.0, job_->bytes_remaining - delivered);
        retry_download("connection reset by install server");
      });
  if (download_->server == nullptr) {
    download_.reset();
    retry_download("no install server available");
  }
}

void Node::retry_download(std::string why) {
  ++job_->retries;
  if (job_->retries > timings_.download_retry_budget) {
    fail_install(cat("download retry budget (", timings_.download_retry_budget,
                     ") exhausted: ", why));
    return;
  }
  ++download_retries_;
  const double delay =
      retry_delay(timings_.download_retry, timings_.download_retry_max, job_->retries);
  log(cat("download interrupted (", why, "); retry #", job_->retries, " of ",
          timings_.download_retry_budget, " in ", fixed(delay, 1), " s, ",
          fixed(job_->bytes_remaining / (1024.0 * 1024.0), 0), " MB left"));
  const std::uint64_t epoch = epoch_;
  env_.sim->schedule(delay, [this, epoch] {
    if (!epoch_valid(epoch)) return;
    start_download();
  });
}

void Node::fail_install(std::string reason) {
  disarm_watchdog();
  if (download_ && download_->server != nullptr) download_->server->abort(download_->flow);
  download_.reset();
  // A failed installer stops fetching AND serving (its installer
  // environment is wedged; peers fail over to other sources).
  if (peer_networked())
    env_.peers->node_offline(static_cast<std::uint32_t>(peer_endpoint_));
  job_.reset();
  ++install_failures_;
  ++epoch_;  // anything else still scheduled for this install is void
  set_state(NodeState::kFailed);
  log(cat("install FAILED: ", reason, "; waiting for recovery escalation"));
}

void Node::arm_watchdog() {
  if (timings_.install_watchdog <= 0.0) return;
  disarm_watchdog();
  watchdog_armed_ = true;
  const std::uint64_t epoch = epoch_;
  watchdog_event_ = env_.sim->schedule(timings_.install_watchdog, [this, epoch] {
    watchdog_armed_ = false;
    if (!epoch_valid(epoch)) return;
    if (state_ == NodeState::kRunning || state_ == NodeState::kOff ||
        state_ == NodeState::kFailed)
      return;
    if (watchdog_cycles_ >= timings_.watchdog_budget) {
      fail_install(cat("still ", node_state_name(state_), " after ",
                       fixed(timings_.install_watchdog, 0), " s and ", watchdog_cycles_,
                       " watchdog power cycles"));
      return;
    }
    ++watchdog_cycles_;
    ++watchdog_fires_;
    log(cat("watchdog: install wedged (", node_state_name(state_), " after ",
            fixed(timings_.install_watchdog, 0), " s); hard power cycle #",
            watchdog_cycles_, " of ", timings_.watchdog_budget));
    hard_power_cycle();
  });
}

void Node::disarm_watchdog() {
  if (!watchdog_armed_) return;
  env_.sim->cancel(watchdog_event_);
  watchdog_armed_ = false;
}

void Node::finish_install() {
  const kickstart::KickstartFile& profile = job_->profile;
  const rpm::InstallImage& image = *job_->image;
  const double driver_build_seconds = image.build_seconds;
  bytes_downloaded_ += image.total_bytes;

  // The root partition is rebuilt from the image, shared copy-on-write with
  // every node that installed it; /state/partition1 survives.
  fs_.wipe_root_partition(&image.tree);
  rpmdb_ = image.packages;

  // Materialize the %post sections: each runs as a script, and its already
  // localized body lands under /etc/rc.d/rocks-post.d (node-specific
  // generated configuration — intentionally distinct per host).
  fs_.mkdir_p("/etc/rc.d/rocks-post.d");
  int post_index = 0;
  for (const auto& post : profile.posts()) {
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "%02d", post_index++);
    fs_.write_file(strings::cat("/etc/rc.d/rocks-post.d/", prefix, "-", post.origin),
                   post.body);
  }

  EkvProgress progress = ekv_.progress();
  progress.completed_packages = progress.total_packages;
  progress.completed_bytes = progress.total_bytes;
  ekv_.set_progress(progress);
  log("package installation complete, running %post");

  job_.reset();
  set_state(NodeState::kPostConfig);
  const std::uint64_t epoch = epoch_;
  env_.sim->schedule(
      timings_.post_config + driver_build_seconds, [this, epoch, driver_build_seconds] {
        if (!epoch_valid(epoch)) return;
        if (driver_build_seconds > 0.0)
          log(cat("rebuilt Myrinet driver from source in ", fixed(driver_build_seconds, 0),
                  " s"));
        set_state(NodeState::kRebooting);
        env_.sim->schedule(timings_.final_boot, [this, epoch] {
          if (!epoch_valid(epoch)) return;
          set_state(NodeState::kRunning);
          disarm_watchdog();
          watchdog_cycles_ = 0;  // a full success resets the escalation ladder
          reinstall_on_boot_ = false;
          ++install_count_;
          last_install_duration_ = env_.sim->now() - install_started_;
          log(cat("reinstall #", install_count_, " complete in ",
                  fixed(last_install_duration_, 0), " s"));
          if (auto callback = on_running_) callback();  // copy: callback may reset itself
        });
      });
}

void Node::inject_hardware_fault() {
  hardware_failed_ = true;
  power_off();
}

void Node::repair_hardware() {
  hardware_failed_ = false;
  power_off();
  reinstall_on_boot_ = true;  // replacement hardware boots into an install
}

void Node::corrupt_file(std::string_view path, std::string_view content) {
  require_state(state_ == NodeState::kRunning, "corrupt_file: node is not running");
  if (fs_.exists(path)) fs_.remove(path);
  fs_.mkdir_p(vfs::dirname(std::string(path)));
  fs_.write_file(path, std::string(content));
}

void Node::install_rogue_package(const rpm::Package& package) {
  require_state(state_ == NodeState::kRunning, "install_rogue_package: node is not running");
  rpmdb_.install(package, fs_);
}

void Node::clone_software_from(const Node& model) {
  require_state(state_ == NodeState::kRunning, "clone_software_from: node is not running");
  fs_.wipe_root_partition();
  for (const auto& entry : model.fs_.list("/")) {
    if (entry == "state") continue;  // cloning targets the system partition
    fs_.copy_tree(model.fs_, "/" + entry, "/" + entry);
  }
  rpmdb_ = model.rpmdb_;
}

void Node::launch_process(std::string name) {
  require_state(state_ == NodeState::kRunning, "launch_process: node is not running");
  processes_.insert(std::move(name));
}

std::size_t Node::kill_processes(std::string_view name) {
  return processes_.erase(std::string(name));
}

std::size_t Node::process_count(std::string_view name) const {
  return processes_.count(std::string(name));
}

}  // namespace rocks::cluster
