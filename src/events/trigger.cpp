#include "events/trigger.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::events {

namespace {

// The trigger table's own journal channel. Accounting UPDATEs republish on
// this channel through the bus bridge; the engine must never match those or
// every firing would seed the next.
constexpr std::string_view kTableChannel = "triggers";

}  // namespace

void TriggerEngine::ensure_trigger_schema(sqldb::Database& db) {
  if (db.has_table("triggers")) return;
  db.execute(
      "CREATE TABLE triggers ("
      "id INT PRIMARY KEY AUTO_INCREMENT, "
      "name TEXT, event TEXT, subject TEXT, detail TEXT, "
      "threshold REAL, action TEXT, arg TEXT, rate_limit REAL, "
      "fired INT, suppressed INT, last_fired REAL)");
}

TriggerEngine::TriggerEngine(sqldb::Database& db, EventBus& bus)
    : db_(db),
      insert_(db.prepare(
          "INSERT INTO triggers (name, event, subject, detail, threshold, action, "
          "arg, rate_limit, fired, suppressed, last_fired) "
          "VALUES (?, ?, ?, ?, ?, ?, ?, ?, 0, 0, -1.0)")),
      id_by_name_(db.prepare("SELECT id FROM triggers WHERE name = ?")),
      delete_(db.prepare("DELETE FROM triggers WHERE id = ?")),
      record_firing_(db.prepare(
          "UPDATE triggers SET fired = ?, suppressed = ?, last_fired = ? WHERE id = ?")),
      bus_(bus) {
  ensure_trigger_schema(db_);
  load();
  // The loud default: a firing whose action is the built-in "alert" (or has
  // no registered handler at all) lands here instead of vanishing.
  actions_.emplace("alert", [this](const Event& event, const std::string& arg) {
    std::lock_guard lock(mutex_);
    alerts_.push_back(strings::cat(arg.empty() ? "alert" : arg, ": ",
                                   event_type_name(event.type), " ", event.subject,
                                   event.detail.empty() ? "" : " ", event.detail));
  });
  subscription_ = bus_.subscribe_all([this](const Event& event) { on_event(event); });
}

TriggerEngine::~TriggerEngine() { bus_.unsubscribe(subscription_); }

void TriggerEngine::register_action(std::string name, Action action) {
  std::lock_guard lock(mutex_);
  actions_[std::move(name)] = std::move(action);
}

void TriggerEngine::load() {
  const sqldb::ResultSet rows = db_.execute(
      "SELECT id, name, event, subject, detail, threshold, action, arg, "
      "rate_limit, fired, suppressed, last_fired FROM triggers");
  std::lock_guard lock(mutex_);
  triggers_.clear();
  for (std::size_t i = 0; i < rows.row_count(); ++i) {
    Armed armed;
    armed.id = rows.at(i, "id").as_int();
    armed.spec.name = rows.at(i, "name").as_text();
    EventType type{};
    require_state(parse_event_type(rows.at(i, "event").as_text(), type),
                  strings::cat("trigger '", armed.spec.name, "': unknown event type '",
                               rows.at(i, "event").as_text(), "'"));
    armed.spec.event = type;
    armed.spec.subject = rows.at(i, "subject").as_text();
    armed.spec.detail = rows.at(i, "detail").as_text();
    armed.spec.threshold = rows.at(i, "threshold").as_real();
    armed.spec.action = rows.at(i, "action").as_text();
    armed.spec.arg = rows.at(i, "arg").as_text();
    armed.spec.rate_limit = rows.at(i, "rate_limit").as_real();
    armed.fired = static_cast<std::uint64_t>(rows.at(i, "fired").as_int());
    armed.suppressed = static_cast<std::uint64_t>(rows.at(i, "suppressed").as_int());
    armed.last_fired = rows.at(i, "last_fired").as_real();
    triggers_.push_back(std::move(armed));
  }
  std::sort(triggers_.begin(), triggers_.end(),
            [](const Armed& a, const Armed& b) { return a.id < b.id; });
}

std::int64_t TriggerEngine::add(const TriggerSpec& spec) {
  require_state(!spec.name.empty(), "trigger name must not be empty");
  std::lock_guard lock(mutex_);
  for (const Armed& armed : triggers_)
    require_state(armed.spec.name != spec.name,
                  strings::cat("trigger '", spec.name, "' already registered"));
  db_.execute(*insert_,
              {spec.name, event_type_name(spec.event), spec.subject, spec.detail,
               spec.threshold, spec.action, spec.arg, spec.rate_limit});
  const sqldb::ResultSet row = db_.execute(*id_by_name_, {spec.name});
  require_state(row.row_count() == 1, "trigger insert did not land");
  Armed armed;
  armed.id = row.at(0, "id").as_int();
  armed.spec = spec;
  triggers_.push_back(std::move(armed));
  return triggers_.back().id;
}

void TriggerEngine::remove(std::string_view name) {
  std::lock_guard lock(mutex_);
  const auto it = std::find_if(triggers_.begin(), triggers_.end(),
                               [&](const Armed& t) { return t.spec.name == name; });
  if (it == triggers_.end()) return;
  db_.execute(*delete_, {it->id});
  triggers_.erase(it);
}

std::vector<TriggerStatus> TriggerEngine::list() const {
  std::lock_guard lock(mutex_);
  std::vector<TriggerStatus> out;
  out.reserve(triggers_.size());
  for (const Armed& armed : triggers_)
    out.push_back({armed.id, armed.spec, armed.fired, armed.suppressed, armed.last_fired});
  return out;
}

void TriggerEngine::persist_accounting(const Armed& trigger) {
  db_.execute(*record_firing_, {static_cast<std::int64_t>(trigger.fired),
                                static_cast<std::int64_t>(trigger.suppressed),
                                trigger.last_fired, trigger.id});
}

void TriggerEngine::match_locked(const Event& event, std::vector<PendingAction>& out) {
  for (Armed& armed : triggers_) {
    if (armed.spec.event != event.type) continue;
    if (!strings::glob_match(armed.spec.subject, event.subject)) continue;
    if (!strings::glob_match(armed.spec.detail, event.detail)) continue;
    if (armed.spec.threshold != 0.0 && event.value < armed.spec.threshold) continue;
    if (armed.spec.rate_limit > 0.0 && armed.last_fired >= 0.0 &&
        event.time - armed.last_fired < armed.spec.rate_limit) {
      ++armed.suppressed;
      ++suppressions_;
      persist_accounting(armed);
      continue;
    }
    ++armed.fired;
    armed.last_fired = event.time;
    ++firings_;
    persist_accounting(armed);
    PendingAction pending;
    const auto handler = actions_.find(armed.spec.action);
    pending.action = handler != actions_.end() ? handler->second : actions_.at("alert");
    pending.event = event;
    pending.arg = armed.spec.arg;
    pending.trigger = armed.spec.name;
    out.push_back(std::move(pending));
  }
}

void TriggerEngine::on_event(const Event& event) {
  // Never match our own exhaust: trigger firings, and config changes on the
  // trigger table itself (accounting UPDATEs ride the journal bridge).
  if (event.type == EventType::kTrigger) return;
  if (event.type == EventType::kConfigChange && strings::iequals(event.subject, kTableChannel)) return;

  std::unique_lock lock(mutex_);
  queue_.push_back(event);
  if (dispatching_) return;  // an outer frame on this or another thread drains
  dispatching_ = true;
  while (!queue_.empty()) {
    const Event next = std::move(queue_.front());
    queue_.pop_front();
    ++events_seen_;
    std::vector<PendingAction> pending;
    match_locked(next, pending);
    if (pending.empty()) continue;
    // Actions run with the engine lock dropped: they commit SQL, shoot
    // nodes, publish — any of which may re-enter on_event (queued above).
    lock.unlock();
    for (PendingAction& fire : pending) {
      fire.action(fire.event, fire.arg);
      bus_.publish(Event{EventType::kTrigger, fire.trigger,
                         std::string(event_type_name(fire.event.type)), fire.event.value,
                         fire.event.time, 0});
    }
    lock.lock();
  }
  dispatching_ = false;
}

}  // namespace rocks::events
