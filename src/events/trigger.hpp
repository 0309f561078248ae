// SLURM-strigger-style event triggers with a durable trigger table
// (DESIGN.md §15.3).
//
// An operator (or the cluster's own bootstrap) registers predicates over bus
// events — "a node went down", "follower lag exceeded N", "the nodes table
// changed" — paired with actions: raise an alert, auto-reinstall the node
// through the same path shoot-node takes, flush the service manager. This is
// the paper's Section 4 recovery ladder generalized from one hard-coded
// sweep into user-programmable policy, and it is what closes the self-
// healing loop: chaos kills a node, the aggregation tree publishes
// node-down, the trigger fires reinstall, and nobody pages an operator.
//
// Durability: triggers and their firing accounting live in a SQL table
// (`triggers`) in the frontend's database, not in process memory. Every
// registration, firing count, suppression count, and last-fired stamp is a
// row mutation that rides the WAL — so trigger state survives a frontend
// crash byte-identically (the §11 shadow-replay contract extends to it for
// free) and replicates to follower frontends through §12 WAL shipping. A
// recovered or promoted frontend reloads the table and keeps firing with the
// same accounting it crashed with.
//
// Rate limits: each trigger carries a minimum spacing between firings in
// simulation seconds. A matching event inside the window is counted as
// `suppressed` (accounting, durable) but runs no action — a flapping node
// cannot convert the bus into a reinstall storm.
//
// Reentrancy & threading: on_event() serializes on one mutex and drains a
// queue, so actions (which may commit SQL, which republishes kConfigChange
// through the journal bridge, which re-enters on_event on the same stack)
// are deferred instead of recursing. Events generated by the engine itself —
// kTrigger firings and config changes to the `triggers` table — are never
// matched, so the engine cannot feed itself.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "events/bus.hpp"
#include "sqldb/engine.hpp"

namespace rocks::events {

struct TriggerSpec {
  std::string name;       // unique; re-registering a name throws
  EventType event = EventType::kNodeDown;
  std::string subject = "*";  // glob over Event::subject
  std::string detail = "*";   // glob over Event::detail ("failed", "lost", ...)
  /// Fire only when event.value >= threshold (0 = any). This is how "lag
  /// exceeded N" and "fewer than Q acks" predicates are expressed.
  double threshold = 0.0;
  std::string action = "alert";  // registered handler name
  std::string arg;               // handler argument (service name, note, ...)
  /// Minimum seconds between firings; matches inside the window are
  /// suppressed (counted durably, no action).
  double rate_limit = 0.0;
};

/// One trigger's durable state (cluster-status --triggers).
struct TriggerStatus {
  std::int64_t id = 0;
  TriggerSpec spec;
  std::uint64_t fired = 0;
  std::uint64_t suppressed = 0;
  double last_fired = -1.0;  // <0 = never
};

class TriggerEngine {
 public:
  /// Action handler: receives the matched event and the trigger's arg.
  using Action = std::function<void(const Event&, const std::string& arg)>;

  /// Creates the `triggers` table when absent, loads every persisted trigger
  /// (the recovery path — a recovered database carries its trigger rows),
  /// and subscribes to the bus. The database must outlive the engine.
  TriggerEngine(sqldb::Database& db, EventBus& bus);
  ~TriggerEngine();

  TriggerEngine(const TriggerEngine&) = delete;
  TriggerEngine& operator=(const TriggerEngine&) = delete;

  /// Registers an action handler by name. The built-in "alert" handler
  /// appends to alerts(). Handlers run on the publishing thread with no
  /// engine lock held; they may execute SQL and publish events.
  void register_action(std::string name, Action action);

  /// Persists and arms one trigger; returns its row id. Throws StateError on
  /// a duplicate name or an unparseable spec.
  std::int64_t add(const TriggerSpec& spec);
  /// Deletes the trigger row and disarms it. Unknown names are a no-op.
  void remove(std::string_view name);

  /// Every armed trigger with its durable accounting, ordered by id.
  [[nodiscard]] std::vector<TriggerStatus> list() const;

  /// Alerts raised by the built-in "alert" action (and by firings whose
  /// action has no registered handler — better a loud default than a silent
  /// drop). Each line: "<trigger>: <event-type> <subject> <detail>".
  [[nodiscard]] const std::vector<std::string>& alerts() const { return alerts_; }

  [[nodiscard]] std::uint64_t firings() const { return firings_; }
  [[nodiscard]] std::uint64_t suppressions() const { return suppressions_; }
  /// Events examined against the trigger set (observability).
  [[nodiscard]] std::uint64_t events_seen() const { return events_seen_; }

  /// The durable table's schema bootstrap; idempotent. Exposed so followers
  /// (which receive the table via replication) and tests can call it alone.
  static void ensure_trigger_schema(sqldb::Database& db);

 private:
  struct Armed {
    std::int64_t id = 0;
    TriggerSpec spec;
    std::uint64_t fired = 0;
    std::uint64_t suppressed = 0;
    double last_fired = -1.0;
  };

  void on_event(const Event& event);
  /// Matches `event` against the armed set; returns the actions to run
  /// (handler + event copy) and persists accounting. Called under mutex_.
  struct PendingAction {
    Action action;
    Event event;
    std::string arg;
    std::string trigger;
  };
  void match_locked(const Event& event, std::vector<PendingAction>& out);
  void persist_accounting(const Armed& trigger);
  void load();

  sqldb::Database& db_;
  // The trigger table's statements, prepared once and executed with bound
  // values: a spec's text reaches the table verbatim, whatever it holds.
  sqldb::Database::PreparedStatement insert_, id_by_name_, delete_, record_firing_;
  EventBus& bus_;
  std::size_t subscription_ = 0;

  mutable std::mutex mutex_;  // guards triggers_, queue_, dispatching_, counters
  std::vector<Armed> triggers_;
  std::deque<Event> queue_;
  bool dispatching_ = false;
  std::uint64_t firings_ = 0;
  std::uint64_t suppressions_ = 0;
  std::uint64_t events_seen_ = 0;

  std::map<std::string, Action, std::less<>> actions_;  // registration is setup-time
  std::vector<std::string> alerts_;
};

}  // namespace rocks::events
