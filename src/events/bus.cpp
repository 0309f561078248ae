#include "events/bus.hpp"

#include "sqldb/journal.hpp"
#include "support/error.hpp"

namespace rocks::events {

namespace {

constexpr std::string_view kTypeNames[kEventTypeCount] = {
    "node-state",        // kNodeState
    "node-down",         // kNodeDown
    "node-up",           // kNodeUp
    "membership",        // kMembership
    "health-summary",    // kHealthSummary
    "replication-epoch", // kReplicationEpoch
    "replication-lag",   // kReplicationLag
    "quorum",            // kQuorum
    "service-flush",     // kServiceFlush
    "config-change",     // kConfigChange
    "fault",             // kFault
    "recovery",          // kRecovery
    "job",               // kJob
    "node-alloc",        // kNodeAlloc
    "trigger",           // kTrigger
};

}  // namespace

std::string_view event_type_name(EventType type) {
  return kTypeNames[static_cast<std::size_t>(type)];
}

bool parse_event_type(std::string_view name, EventType& out) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    if (kTypeNames[i] == name) {
      out = static_cast<EventType>(i);
      return true;
    }
  }
  return false;
}

EventBus::EventBus(Clock clock, std::size_t capacity)
    : clock_(std::move(clock)), log_(capacity) {}

EventBus::~EventBus() { unbridge_journal(); }

std::uint64_t EventBus::publish(Event event) {
  if (event.time == 0.0 && clock_) event.time = clock_();
  published_.fetch_add(1, std::memory_order_relaxed);
  const EventType type = event.type;
  return log_.publish(type, std::move(event));
}

void EventBus::bridge_journal(sqldb::ChangeJournal& journal) {
  require_state(bridged_ == nullptr, "EventBus: a journal is already bridged");
  bridged_ = &journal;
  bridge_subscription_ = journal.subscribe(
      sqldb::ChangeJournal::kAllChannels,
      [this](std::string_view channel, std::uint64_t revision) {
        publish(Event{EventType::kConfigChange, std::string(channel), "",
                      static_cast<double>(revision), 0.0, 0});
      });
}

void EventBus::unbridge_journal() {
  if (bridged_ == nullptr) return;
  bridged_->unsubscribe(bridge_subscription_);
  bridged_ = nullptr;
  bridge_subscription_ = 0;
}

}  // namespace rocks::events
