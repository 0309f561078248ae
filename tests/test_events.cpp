// The unified event spine (DESIGN.md §15): bus channel semantics (seq /
// since / truncation floor, mirroring the ChangeJournal contract), the
// durable trigger engine (registration, glob + threshold predicates, rate
// limits, crash/recover accounting identity), and the hierarchical health
// aggregator (O(depth) convergence, liveness transitions on the bus).
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "events/aggregator.hpp"
#include "events/bus.hpp"
#include "events/trigger.hpp"
#include "sqldb/engine.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::events {
namespace {

Event make_event(EventType type, std::string subject, std::string detail = "",
                 double value = 0.0, double time = 0.0) {
  return Event{type, std::move(subject), std::move(detail), value, time, 0};
}

// --- EventBus ---------------------------------------------------------------

TEST(EventBus, ChannelsAssignIndependentMonotonicSequences) {
  EventBus bus;
  EXPECT_EQ(bus.seq(EventType::kNodeDown), 0u);
  EXPECT_EQ(bus.publish(make_event(EventType::kNodeDown, "compute-0-0")), 1u);
  EXPECT_EQ(bus.publish(make_event(EventType::kNodeDown, "compute-0-1")), 2u);
  EXPECT_EQ(bus.publish(make_event(EventType::kNodeUp, "compute-0-0")), 1u);
  EXPECT_EQ(bus.seq(EventType::kNodeDown), 2u);
  EXPECT_EQ(bus.seq(EventType::kNodeUp), 1u);
  EXPECT_EQ(bus.published(), 3u);
}

TEST(EventBus, SinceReturnsExactDeltaAndAdvancesCursor) {
  EventBus bus;
  bus.publish(make_event(EventType::kFault, "http-crash", "replica 0"));
  bus.publish(make_event(EventType::kFault, "flow-kill", "replica 1"));
  const auto delta = bus.since(EventType::kFault, 0);
  ASSERT_FALSE(delta.truncated);
  ASSERT_EQ(delta.records.size(), 2u);
  EXPECT_EQ(delta.records[0].subject, "http-crash");
  EXPECT_EQ(delta.records[1].subject, "flow-kill");
  EXPECT_EQ(delta.seq, 2u);
  // Cursor at the tip: empty, not truncated.
  const auto tip = bus.since(EventType::kFault, delta.seq);
  EXPECT_FALSE(tip.truncated);
  EXPECT_TRUE(tip.records.empty());
}

TEST(EventBus, BoundedLogSignalsTruncationBelowFloor) {
  EventBus bus({}, /*capacity=*/4);
  for (int i = 0; i < 10; ++i)
    bus.publish(make_event(EventType::kNodeState, strings::cat("host-", i)));
  // A cursor from before the floor is told to rescan, never given a gap.
  const auto stale = bus.since(EventType::kNodeState, 2);
  EXPECT_TRUE(stale.truncated);
  EXPECT_TRUE(stale.records.empty());
  EXPECT_EQ(stale.seq, 10u);
  EXPECT_EQ(stale.floor, 6u);
  // Resuming from the returned seq is exact again.
  bus.publish(make_event(EventType::kNodeState, "host-10"));
  const auto resumed = bus.since(EventType::kNodeState, stale.seq);
  ASSERT_FALSE(resumed.truncated);
  ASSERT_EQ(resumed.records.size(), 1u);
  EXPECT_EQ(resumed.records[0].subject, "host-10");
}

TEST(EventBus, RecentReturnsNewestTailOldestFirst) {
  EventBus bus;
  for (int i = 0; i < 5; ++i)
    bus.publish(make_event(EventType::kRecovery, strings::cat("host-", i)));
  const std::vector<Event> tail = bus.recent(EventType::kRecovery, 2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].subject, "host-3");
  EXPECT_EQ(tail[1].subject, "host-4");
}

TEST(EventBus, TypedAndWildcardSubscribersAndUnsubscribe) {
  EventBus bus;
  std::vector<std::string> typed;
  std::vector<std::string> all;
  const std::size_t typed_id = bus.subscribe(
      EventType::kNodeDown, [&](const Event& event) { typed.push_back(event.subject); });
  bus.subscribe_all([&](const Event& event) { all.push_back(event.subject); });
  bus.publish(make_event(EventType::kNodeDown, "compute-0-0"));
  bus.publish(make_event(EventType::kNodeUp, "compute-0-1"));
  EXPECT_EQ(typed, std::vector<std::string>{"compute-0-0"});
  EXPECT_EQ(all, (std::vector<std::string>{"compute-0-0", "compute-0-1"}));
  bus.unsubscribe(typed_id);
  bus.publish(make_event(EventType::kNodeDown, "compute-0-2"));
  EXPECT_EQ(typed.size(), 1u);
  EXPECT_EQ(all.size(), 3u);
}

TEST(EventBus, ClockStampsPublishTime) {
  double now = 42.0;
  EventBus bus([&now] { return now; });
  bus.publish(make_event(EventType::kQuorum, "frontend-0", "lost"));
  now = 99.0;
  bus.publish(make_event(EventType::kQuorum, "frontend-0", "restored"));
  const auto events = bus.recent(EventType::kQuorum, 10);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].time, 42.0);
  EXPECT_DOUBLE_EQ(events[1].time, 99.0);
}

TEST(EventBus, JournalBridgeRepublishesCommitsAsConfigChange) {
  sqldb::Database db;
  EventBus bus;
  bus.bridge_journal(db.journal());
  db.execute("CREATE TABLE apps (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)");
  db.execute("INSERT INTO apps (name) VALUES ('ganglia')");
  const auto events = bus.recent(EventType::kConfigChange, 10);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().subject, "apps");
  EXPECT_DOUBLE_EQ(events.back().value,
                   static_cast<double>(db.journal().revision("apps")));
  bus.unbridge_journal();
  db.execute("INSERT INTO apps (name) VALUES ('pbs')");
  EXPECT_EQ(bus.recent(EventType::kConfigChange, 10).size(), events.size());
}

TEST(EventBus, EventTypeNamesRoundTrip) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const auto type = static_cast<EventType>(i);
    EventType parsed = EventType::kNodeState;
    ASSERT_TRUE(parse_event_type(event_type_name(type), parsed));
    EXPECT_EQ(parsed, type);
  }
  EventType out = EventType::kNodeState;
  EXPECT_FALSE(parse_event_type("not-a-channel", out));
}

// --- TriggerEngine ----------------------------------------------------------

TEST(TriggerEngine, MatchesGlobAndFiresBuiltInAlert) {
  sqldb::Database db;
  EventBus bus;
  TriggerEngine engine(db, bus);
  TriggerSpec spec;
  spec.name = "rack1-down";
  spec.event = EventType::kNodeDown;
  spec.subject = "compute-1-*";
  engine.add(spec);

  bus.publish(make_event(EventType::kNodeDown, "compute-0-3", "silent"));
  bus.publish(make_event(EventType::kNodeDown, "compute-1-7", "silent"));
  bus.publish(make_event(EventType::kNodeUp, "compute-1-7"));
  EXPECT_EQ(engine.firings(), 1u);
  ASSERT_EQ(engine.alerts().size(), 1u);
  EXPECT_NE(engine.alerts()[0].find("compute-1-7"), std::string::npos);
  // The firing itself is on the bus for operators tailing --events.
  const auto fired = bus.recent(EventType::kTrigger, 10);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0].subject, "rack1-down");
}

TEST(TriggerEngine, ThresholdGatesOnEventValue) {
  sqldb::Database db;
  EventBus bus;
  TriggerEngine engine(db, bus);
  TriggerSpec spec;
  spec.name = "lag-high";
  spec.event = EventType::kReplicationLag;
  spec.detail = "disconnected";
  spec.threshold = 100.0;
  engine.add(spec);

  bus.publish(make_event(EventType::kReplicationLag, "follower-a", "disconnected", 40.0));
  bus.publish(make_event(EventType::kReplicationLag, "follower-b", "disconnected", 250.0));
  bus.publish(make_event(EventType::kReplicationLag, "follower-c", "reconnected", 400.0));
  EXPECT_EQ(engine.firings(), 1u);
  ASSERT_EQ(engine.alerts().size(), 1u);
  EXPECT_NE(engine.alerts()[0].find("follower-b"), std::string::npos);
}

TEST(TriggerEngine, RateLimitSuppressesAndAccountsDurably) {
  sqldb::Database db;
  EventBus bus;
  TriggerEngine engine(db, bus);
  TriggerSpec spec;
  spec.name = "flappy";
  spec.event = EventType::kNodeDown;
  spec.rate_limit = 60.0;
  engine.add(spec);

  bus.publish(make_event(EventType::kNodeDown, "compute-0-0", "silent", 0.0, 10.0));
  bus.publish(make_event(EventType::kNodeDown, "compute-0-0", "silent", 0.0, 30.0));
  bus.publish(make_event(EventType::kNodeDown, "compute-0-0", "silent", 0.0, 65.0));
  bus.publish(make_event(EventType::kNodeDown, "compute-0-0", "silent", 0.0, 71.0));
  EXPECT_EQ(engine.firings(), 2u);       // t=10 and t=71
  EXPECT_EQ(engine.suppressions(), 2u);  // t=30 and t=65
  const auto triggers = engine.list();
  ASSERT_EQ(triggers.size(), 1u);
  EXPECT_EQ(triggers[0].fired, 2u);
  EXPECT_EQ(triggers[0].suppressed, 2u);
  EXPECT_DOUBLE_EQ(triggers[0].last_fired, 71.0);
  // The accounting is table state, not process state.
  const auto row = db.execute("SELECT fired, suppressed FROM triggers WHERE name = 'flappy'");
  ASSERT_EQ(row.row_count(), 1u);
  EXPECT_EQ(row.at(0, "fired").as_int(), 2);
  EXPECT_EQ(row.at(0, "suppressed").as_int(), 2);
}

TEST(TriggerEngine, CustomActionReceivesEventAndArg) {
  sqldb::Database db;
  EventBus bus;
  TriggerEngine engine(db, bus);
  std::vector<std::string> flushed;
  engine.register_action("flush", [&](const Event& event, const std::string& arg) {
    flushed.push_back(strings::cat(arg, ":", event.subject));
  });
  TriggerSpec spec;
  spec.name = "reconfig";
  spec.event = EventType::kConfigChange;
  spec.subject = "nodes";
  spec.action = "flush";
  spec.arg = "dhcpd";
  engine.add(spec);

  bus.publish(make_event(EventType::kConfigChange, "nodes", "", 7.0));
  EXPECT_EQ(flushed, std::vector<std::string>{"dhcpd:nodes"});
  EXPECT_TRUE(engine.alerts().empty());
}

TEST(TriggerEngine, UnknownActionFallsBackToAlertAndDuplicateNameThrows) {
  sqldb::Database db;
  EventBus bus;
  TriggerEngine engine(db, bus);
  TriggerSpec spec;
  spec.name = "orphan";
  spec.event = EventType::kFault;
  spec.action = "no-such-handler";
  engine.add(spec);
  EXPECT_THROW(engine.add(spec), StateError);

  bus.publish(make_event(EventType::kFault, "power-flap", "node 3"));
  EXPECT_EQ(engine.firings(), 1u);
  ASSERT_EQ(engine.alerts().size(), 1u);  // loud default, not a silent drop
}

TEST(TriggerEngine, RemoveDisarmsAndDeletesTheRow) {
  sqldb::Database db;
  EventBus bus;
  TriggerEngine engine(db, bus);
  TriggerSpec spec;
  spec.name = "gone";
  spec.event = EventType::kNodeDown;
  engine.add(spec);
  engine.remove("gone");
  EXPECT_TRUE(engine.list().empty());
  EXPECT_EQ(db.execute("SELECT id FROM triggers").row_count(), 0u);
  bus.publish(make_event(EventType::kNodeDown, "compute-0-0"));
  EXPECT_EQ(engine.firings(), 0u);
  engine.remove("never-existed");  // no-op, not an error
}

TEST(TriggerEngine, ActionsMayCommitSqlWithoutDeadlock) {
  // A firing action that commits SQL re-enters the bus through the journal
  // bridge on the same stack; the engine's queue-and-drain must absorb it.
  sqldb::Database db;
  EventBus bus;
  bus.bridge_journal(db.journal());
  db.execute("CREATE TABLE audit (id INT PRIMARY KEY AUTO_INCREMENT, host TEXT)");
  TriggerEngine engine(db, bus);
  engine.register_action("record", [&](const Event& event, const std::string&) {
    db.execute(strings::cat("INSERT INTO audit (host) VALUES ('", event.subject, "')"));
  });
  TriggerSpec spec;
  spec.name = "auditor";
  spec.event = EventType::kNodeDown;
  spec.action = "record";
  engine.add(spec);

  bus.publish(make_event(EventType::kNodeDown, "compute-0-0"));
  bus.publish(make_event(EventType::kNodeDown, "compute-0-1"));
  EXPECT_EQ(engine.firings(), 2u);
  EXPECT_EQ(db.execute("SELECT id FROM audit").row_count(), 2u);
}

// The drill's durability claim in miniature: trigger registrations and
// firing accounting ride the WAL, so an engine rebuilt over the recovered
// database resumes with byte-identical state — including rate-limit
// decisions, which depend on the recovered last-fired stamp.
TEST(TriggerEngine, StateSurvivesCrashRecoveryWithIdenticalAccounting) {
  constexpr std::string_view kDir = "/var/lib/rocks";
  const auto fire = [](EventBus& bus, double from, double to) {
    for (double t = from; t < to; t += 10.0)
      bus.publish(make_event(EventType::kNodeDown, "compute-0-0", "silent", 0.0, t));
  };

  // Shadow: the same event sequence with no crash.
  vfs::FileSystem shadow_disk;
  sqldb::Database shadow_db;
  shadow_db.open_durable(shadow_disk, kDir);
  EventBus shadow_bus;
  TriggerEngine shadow(shadow_db, shadow_bus);
  TriggerSpec spec;
  spec.name = "flappy";
  spec.event = EventType::kNodeDown;
  spec.rate_limit = 25.0;
  shadow.add(spec);
  fire(shadow_bus, 0.0, 100.0);

  // Crashing run: same triggers, crash mid-sequence, recover, finish.
  vfs::FileSystem disk;
  {
    sqldb::Database db;
    db.open_durable(disk, kDir);
    EventBus bus;
    TriggerEngine engine(db, bus);
    engine.add(spec);
    fire(bus, 0.0, 50.0);
    // Process dies here: no clean shutdown, the WAL is all that remains.
  }
  sqldb::Database recovered_db;
  recovered_db.open_durable(disk, kDir);
  EventBus recovered_bus;
  TriggerEngine recovered(recovered_db, recovered_bus);
  const auto reloaded = recovered.list();
  ASSERT_EQ(reloaded.size(), 1u);
  EXPECT_GT(reloaded[0].fired, 0u);
  fire(recovered_bus, 50.0, 100.0);

  // Identical firing accounting, and byte-identical trigger-table state.
  const auto want = shadow.list();
  const auto got = recovered.list();
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got[0].fired, want[0].fired);
  EXPECT_EQ(got[0].suppressed, want[0].suppressed);
  EXPECT_DOUBLE_EQ(got[0].last_fired, want[0].last_fired);
  EXPECT_EQ(recovered_db.dump_state(), shadow_db.dump_state());
}

// TSan chaos: concurrent publishers on several channels, concurrent SQL
// commits re-entering the bus through the journal bridge, and the trigger
// engine persisting accounting into the same database it is racing with.
TEST(TriggerEngine, ChaosConcurrentPublishersAndCommits) {
  constexpr std::size_t kPublishers = 3;
  constexpr std::size_t kWriters = 2;
  constexpr std::size_t kOps = 400;
  sqldb::Database db;
  EventBus bus;
  bus.bridge_journal(db.journal());
  db.execute("CREATE TABLE load (id INT PRIMARY KEY AUTO_INCREMENT, src TEXT)");
  TriggerEngine engine(db, bus);
  std::atomic<std::uint64_t> actions{0};
  engine.register_action("count", [&](const Event&, const std::string&) {
    actions.fetch_add(1);
  });
  TriggerSpec down;
  down.name = "any-down";
  down.event = EventType::kNodeDown;
  down.action = "count";
  engine.add(down);
  TriggerSpec config;
  config.name = "load-commits";
  config.event = EventType::kConfigChange;
  config.subject = "load";
  config.action = "count";
  engine.add(config);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kPublishers; ++t) {
    threads.emplace_back([&bus, t] {
      for (std::size_t i = 0; i < kOps; ++i) {
        bus.publish(make_event(EventType::kNodeDown, strings::cat("host-", t, "-", i),
                               "silent", 0.0, static_cast<double>(i)));
        bus.publish(make_event(EventType::kNodeUp, strings::cat("host-", t, "-", i)));
      }
    });
  }
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&db, t] {
      for (std::size_t i = 0; i < kOps; ++i)
        db.execute(strings::cat("INSERT INTO load (src) VALUES ('w", t, "-", i, "')"));
    });
  }
  for (auto& thread : threads) thread.join();

  // Every matching event fired exactly one action, none were lost: the
  // node-down trigger saw every publish, the config trigger every commit
  // to `load` (accounting UPDATEs land on `triggers`, a different channel).
  EXPECT_EQ(engine.firings(), kPublishers * kOps + kWriters * kOps);
  EXPECT_EQ(actions.load(), engine.firings());
  const auto rows = db.execute("SELECT id FROM load");
  EXPECT_EQ(rows.row_count(), kWriters * kOps);
}

// --- HealthAggregator -------------------------------------------------------

TEST(HealthAggregator, ConvergesInDepthRoundsNotEndpointScans) {
  AggregatorConfig config;
  config.leaf_size = 8;
  config.fanout = 8;
  HealthAggregator tree(config);
  tree.register_endpoints(512);        // 64 leaves -> 8 -> 1: depth 3
  EXPECT_EQ(tree.depth(), 3u);

  for (std::size_t i = 0; i < 512; ++i) tree.heartbeat(i, 10.0);
  const std::size_t rounds = tree.converge(10.0);
  EXPECT_LE(rounds, tree.depth() + 1);  // the O(depth) bound
  EXPECT_EQ(tree.root().total, 512u);
  EXPECT_EQ(tree.root().alive, 512u);

  // Quiet cluster: nothing dirty, no deadline crossed, zero work.
  EXPECT_EQ(tree.rollup_round(11.0), 0u);
}

TEST(HealthAggregator, SilentEndpointDeclaredDeadAfterThreshold) {
  AggregatorConfig config;
  config.dead_after = 30.0;
  EventBus bus;
  HealthAggregator tree(config, &bus);
  tree.register_endpoints(3);
  tree.set_name(0, "compute-0-0");
  tree.set_name(1, "compute-0-1");
  tree.set_name(2, "compute-0-2");
  tree.heartbeat(0, 10.0);
  tree.heartbeat(1, 10.0);
  tree.heartbeat(2, 10.0);
  tree.converge(10.0);
  EXPECT_TRUE(tree.dead_endpoints().empty());

  // Node 1 goes silent; the others keep beating.
  tree.heartbeat(0, 40.0);
  tree.heartbeat(2, 40.0);
  tree.converge(41.0);
  EXPECT_EQ(tree.dead_endpoints(), std::vector<std::string>{"compute-0-1"});
  EXPECT_FALSE(tree.alive(1));
  const auto down = bus.recent(EventType::kNodeDown, 10);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0].subject, "compute-0-1");

  // It comes back: one kNodeUp, dead set empty again.
  tree.heartbeat(1, 45.0);
  tree.converge(45.0);
  EXPECT_TRUE(tree.dead_endpoints().empty());
  const auto up = bus.recent(EventType::kNodeUp, 10);
  ASSERT_FALSE(up.empty());
  EXPECT_EQ(up.back().subject, "compute-0-1");
}

TEST(HealthAggregator, NeverHeartbeatedEndpointsStartDead) {
  // Matches the seed monitor: a node is not alive until its first beat.
  HealthAggregator tree;
  tree.register_endpoints(2);
  tree.set_name(0, "compute-0-0");
  tree.set_name(1, "compute-0-1");
  tree.heartbeat(0, 5.0);
  tree.converge(5.0);
  EXPECT_EQ(tree.root().alive, 1u);
  EXPECT_EQ(tree.dead_endpoints(), std::vector<std::string>{"compute-0-1"});
  EXPECT_LT(tree.last_seen(1), 0.0);
}

TEST(HealthAggregator, RootSummaryChangesPublishHealthSummary) {
  EventBus bus;
  AggregatorConfig config;
  config.dead_after = 30.0;
  HealthAggregator tree(config, &bus);
  tree.register_endpoints(4);
  for (std::size_t i = 0; i < 4; ++i) tree.heartbeat(i, 0.0);
  tree.converge(0.0);
  const auto after_up = bus.recent(EventType::kHealthSummary, 10);
  ASSERT_FALSE(after_up.empty());
  EXPECT_DOUBLE_EQ(after_up.back().value, 4.0);

  // Two die: one more summary, alive count down to 2.
  tree.heartbeat(0, 40.0);
  tree.heartbeat(1, 40.0);
  tree.converge(41.0);
  const auto after_down = bus.recent(EventType::kHealthSummary, 10);
  EXPECT_GT(after_down.size(), after_up.size());
  EXPECT_DOUBLE_EQ(after_down.back().value, 2.0);
  EXPECT_EQ(tree.root_version(), after_down.size());
}

TEST(HealthAggregator, IdleLeavesAreSkippedUntilTheirDeadline) {
  AggregatorConfig config;
  config.leaf_size = 4;
  config.fanout = 4;
  config.dead_after = 30.0;
  HealthAggregator tree(config);
  tree.register_endpoints(64);  // 16 leaves -> 4 -> 1
  for (std::size_t i = 0; i < 64; ++i) tree.heartbeat(i, 0.0);
  tree.converge(0.0);
  const std::uint64_t settled = tree.rollup_work();

  // One endpoint beats again: only its leaf (and the path up) recomputes.
  tree.heartbeat(7, 10.0);
  tree.converge(10.0);
  const std::uint64_t delta = tree.rollup_work() - settled;
  EXPECT_LE(delta, tree.depth() + 1);
}

TEST(HealthAggregator, GrowsMonotonicallyAndRejectsShrink) {
  HealthAggregator tree;
  tree.register_endpoints(10);
  tree.register_endpoints(10);  // same size: fine
  tree.register_endpoints(40);  // growth: fine
  EXPECT_EQ(tree.endpoint_count(), 40u);
  EXPECT_THROW(tree.register_endpoints(5), StateError);
}

}  // namespace
}  // namespace rocks::events
