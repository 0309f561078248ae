// The cluster-wide event spine (DESIGN.md §15).
//
// Configuration regeneration rides the ChangeJournal; every other signal
// in the system rides this bus instead of an ad-hoc path of its own: node
// state, health, replication epochs and quorum, faults, recovery, batch
// jobs. The CERN and Brookhaven large-cluster reports (PAPERS.md) name
// per-subsystem monitoring that does not compose as what breaks past a
// thousand nodes.
//
// EventBus is a support::ChannelLog of typed events: a channel is an
// EventType, a seq is the channel's monotonic sequence number, a record is
// the full Event. Producers publish; consumers either subscribe (callbacks,
// for the trigger engine and health tracking) or cursor-read with since()
// (for operator tools), with the journal's truncation-floor contract: a
// cursor below the floor is told to rescan, never handed a gapped delta.
// What the bus adds is its own: typed channels, clock stamping, and the
// journal bridge.
//
// Callbacks run on the publishing thread after every bus lock is dropped.
// Publishers may be any committing thread (the journal bridge runs from
// Database::execute's notify path), so subscribers must either do
// thread-safe work or serialize internally (TriggerEngine does the latter).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "support/channel_log.hpp"

namespace rocks::sqldb {
class ChangeJournal;
}

namespace rocks::events {

enum class EventType : std::uint8_t {
  kNodeState,         // installer state machine moved; subject=host, detail=state
  kNodeDown,          // health aggregation declared a node dead; subject=host
  kNodeUp,            // ... and alive again
  kMembership,        // insert-ethers registered a node; subject=host
  kHealthSummary,     // aggregation root changed; value=alive count
  kReplicationEpoch,  // leadership change; subject=leader, value=epoch
  kReplicationLag,    // follower lag/link transition; subject=follower
  kQuorum,            // quorum lost/restored; value=acks
  kServiceFlush,      // a service restarted on new config; subject=service
  kConfigChange,      // bridged ChangeJournal channel; subject=channel
  kFault,             // an injected fault landed; subject=fault kind
  kRecovery,          // recovery ladder action; subject=host
  kJob,               // batch job transition; subject=job name,
                      // detail=queued/start/end/cancel/requeue, value=job id
  kNodeAlloc,         // batch node lifecycle; subject=host,
                      // detail=drain/down/reinstall/rejoin/pending
  kTrigger,           // a trigger fired; subject=trigger name
};

/// Number of channels (for dense per-type arrays).
inline constexpr std::size_t kEventTypeCount =
    static_cast<std::size_t>(EventType::kTrigger) + 1;

[[nodiscard]] std::string_view event_type_name(EventType type);
/// Inverse of event_type_name; returns false for unknown names.
[[nodiscard]] bool parse_event_type(std::string_view name, EventType& out);

struct Event {
  EventType type = EventType::kNodeState;
  std::string subject;  // who: host / service / follower / channel name
  std::string detail;   // what: state name, "lost", "disconnected", ...
  double value = 0.0;   // how much: epoch, lag, alive count, ...
  double time = 0.0;    // simulation clock at publish (bus clock)
  std::uint64_t seq = 0;  // per-channel monotonic, assigned by publish()
};

class EventBus {
 public:
  using Callback = std::function<void(const Event&)>;
  using Clock = std::function<double()>;

  /// Per-channel retained-log bound. Sized like the ChangeJournal's: big
  /// enough that an operator tool polling between flushes stays incremental,
  /// small enough that an unconsumed channel cannot grow without bound.
  static constexpr std::size_t kDefaultCapacity = 1024;

  explicit EventBus(Clock clock = {}, std::size_t capacity = kDefaultCapacity);
  ~EventBus();

  // Subscriptions hand out ids; copying would fork the id space.
  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Publishes one event: stamps time (from the clock, unless the caller set
  /// a nonzero time) and the channel's next sequence number, appends it to
  /// the retained log, and notifies typed + wildcard subscribers after all
  /// bus locks are dropped. Returns the assigned sequence number.
  std::uint64_t publish(Event event);

  /// Registers a callback for one channel. Safe to call concurrently with
  /// publishes; the callback runs on publishing threads.
  std::size_t subscribe(EventType type, Callback callback) {
    return log_.subscribe(type, std::move(callback));
  }
  /// Registers a wildcard callback receiving every event on the bus.
  std::size_t subscribe_all(Callback callback) { return log_.subscribe_all(std::move(callback)); }
  /// Does not wait for in-flight callbacks — quiesce publishers before
  /// destroying a subscriber.
  void unsubscribe(std::size_t id) { log_.unsubscribe(id); }

  /// Newest sequence number of a channel; 0 when nothing was published.
  [[nodiscard]] std::uint64_t seq(EventType type) const { return log_.seq(type); }
  /// Every event after `seq`, or truncated == true when the retained log no
  /// longer covers the range (cursor below the floor: rescan, then resume
  /// from the returned seq).
  [[nodiscard]] support::ChannelDelta<Event> since(EventType type, std::uint64_t seq) const {
    return log_.since(type, seq);
  }
  /// The newest <= limit retained events of a channel, oldest first (the
  /// cluster-status --events tail).
  [[nodiscard]] std::vector<Event> recent(EventType type, std::size_t limit) const {
    return log_.recent(type, limit);
  }

  /// Bridges a ChangeJournal onto the spine: every journal notification
  /// republishes as a kConfigChange event (subject = channel, value =
  /// revision). This is how SQL commits, graph edits, and distribution
  /// rebuilds reach bus consumers without a second subscription mechanism.
  /// The journal must outlive the bus (or call unbridge_journal first).
  void bridge_journal(sqldb::ChangeJournal& journal);
  void unbridge_journal();

  // Observability (cluster-status --events, tests).
  [[nodiscard]] std::uint64_t published() const {
    return published_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t notifications_sent() const { return log_.notifications_sent(); }
  [[nodiscard]] double now() const { return clock_ ? clock_() : 0.0; }

 private:
  Clock clock_;
  support::ChannelLog<Event, EventType> log_;
  std::atomic<std::uint64_t> published_{0};

  sqldb::ChangeJournal* bridged_ = nullptr;
  std::size_t bridge_subscription_ = 0;
};

}  // namespace rocks::events
