// eKV - Ethernet Keyboard and Video.
//
// "This is accomplished by slightly modifying Red Hat's Kickstart
// installation program, anaconda, to capture standard output and present it
// on a telnet-compatible port" (paper Section 6.3, Figure 7). EkvConsole is
// that capture channel: the installer writes lines, shoot-node's xterm (or
// anything else) attaches as a watcher, and screen() renders the Figure 7
// progress panel. The line log and the watchers are one support::ChannelLog
// stream, so a watcher may attach or detach watchers (itself included)
// while a line is being delivered.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "support/channel_log.hpp"

namespace rocks::cluster {

struct EkvLine {
  double time = 0.0;
  std::string text;
  std::uint64_t seq = 0;  // line number on the console, stamped on write
};

/// Package-installation progress, mirroring the counters on the Figure 7
/// screen (Total/Completed/Remaining packages and bytes).
struct EkvProgress {
  std::size_t total_packages = 0;
  std::size_t completed_packages = 0;
  std::uint64_t total_bytes = 0;
  std::uint64_t completed_bytes = 0;
  std::string current_package;

  [[nodiscard]] std::size_t remaining_packages() const {
    return total_packages - completed_packages;
  }
  [[nodiscard]] std::uint64_t remaining_bytes() const { return total_bytes - completed_bytes; }
};

class EkvConsole {
 public:
  using Watcher = std::function<void(const EkvLine&)>;

  explicit EkvConsole(std::string node_name) : node_name_(std::move(node_name)) {}

  /// Installer-side: emit one status line at simulation time `now`.
  void write_line(double now, std::string text) {
    lines_.publish({}, EkvLine{now, std::move(text)});
  }
  void set_progress(const EkvProgress& progress) { progress_ = progress; }

  /// Viewer-side keystrokes: "we've also inserted code that allows users to
  /// interact with the installation through the same xterm window" (§6.3).
  /// Input is echoed into the console stream, prefixed "<<", so both sides
  /// of the telnet session appear in the capture.
  void send_input(double now, std::string text);
  [[nodiscard]] std::size_t inputs_received() const { return inputs_; }

  /// Viewer-side: attach a watcher (every subsequent line is delivered).
  std::size_t attach(Watcher watcher) { return lines_.subscribe_all(std::move(watcher)); }
  void detach(std::size_t id) { lines_.unsubscribe(id); }

  [[nodiscard]] const EkvProgress& progress() const { return progress_; }

  /// Output lines retained for screen(); older ones are dropped. Watchers
  /// see every line live, and every node holds this log, so a longer cap
  /// costs RSS in proportion to installs.
  static constexpr std::size_t kLineCap = 64;

  /// Renders the telnet screen: a Figure 7-style header, the progress
  /// counters, and the last min(tail, kLineCap) output lines.
  [[nodiscard]] std::string screen(std::size_t tail = 8) const;

 private:
  std::string node_name_;
  support::ChannelLog<EkvLine> lines_{kLineCap};
  EkvProgress progress_;
  std::size_t inputs_ = 0;
};

}  // namespace rocks::cluster
