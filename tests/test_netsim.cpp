// Unit tests for the discrete-event engine, the max-min flow model (the
// physics behind Table I), HTTP serving, DHCP, syslog, and the PDU.
#include <gtest/gtest.h>

#include <cmath>

#include "netsim/dhcp.hpp"
#include "netsim/engine.hpp"
#include "netsim/flow.hpp"
#include "netsim/http.hpp"
#include "netsim/power.hpp"
#include "netsim/syslog.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace rocks::netsim {
namespace {

constexpr double kMB = 1024.0 * 1024.0;

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(3.0, [&] { order.push_back(3); });
  sim.schedule(1.0, [&] { order.push_back(1); });
  sim.schedule(2.0, [&] { order.push_back(2); });
  EXPECT_EQ(sim.run(), 3.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulatorTest, SimultaneousEventsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.schedule(1.0, [&order, i] { order.push_back(i); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator sim;
  double fired_at = -1;
  sim.schedule(1.0, [&] { sim.schedule(2.0, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 3.0);
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.schedule(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(SimulatorTest, RunUntilAdvancesClockWithoutEvents) {
  Simulator sim;
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
  EXPECT_THROW(sim.run_until(5.0), StateError);
  EXPECT_THROW(sim.schedule(-1.0, [] {}), StateError);
}

TEST(SimulatorTest, RunUntilLeavesLaterEventsPending) {
  Simulator sim;
  int count = 0;
  sim.schedule(1.0, [&] { ++count; });
  sim.schedule(5.0, [&] { ++count; });
  sim.run_until(2.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(count, 2);
}

TEST(FlowTest, SingleFlowServerLimited) {
  Simulator sim;
  FairShareChannel ch(sim, 7.5 * kMB);
  double done_at = -1;
  ch.start(225.0 * kMB, /*uncapped*/ 0.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 225.0 / 7.5, 0.01);  // exactly the micro-benchmark
}

TEST(FlowTest, SingleFlowClientLimited) {
  Simulator sim;
  FairShareChannel ch(sim, 7.5 * kMB);
  double done_at = -1;
  ch.start(225.0 * kMB, 1.0 * kMB, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 225.0, 0.01);  // 1 MB/s demand cap binds
}

TEST(FlowTest, SevenCappedFlowsAllRunAtFullSpeed) {
  // The paper's model: a 7 MB/s server supports 7 concurrent 1 MB/s installs
  // at full speed.
  Simulator sim;
  FairShareChannel ch(sim, 7.0 * kMB);
  std::vector<double> done(7, -1);
  for (int i = 0; i < 7; ++i)
    ch.start(225.0 * kMB, 1.0 * kMB, [&done, i, &sim] { done[i] = sim.now(); });
  sim.run();
  for (int i = 0; i < 7; ++i) EXPECT_NEAR(done[i], 225.0, 0.5);
}

TEST(FlowTest, OversubscriptionSlowsEveryoneEqually) {
  Simulator sim;
  FairShareChannel ch(sim, 7.0 * kMB);
  std::vector<double> done(14, -1);
  for (int i = 0; i < 14; ++i)
    ch.start(225.0 * kMB, 1.0 * kMB, [&done, i, &sim] { done[i] = sim.now(); });
  sim.run();
  for (int i = 0; i < 14; ++i) EXPECT_NEAR(done[i], 450.0, 0.5);  // half rate
}

TEST(FlowTest, MaxMinRespectsHeterogeneousCaps) {
  // Two flows capped at 1, one uncapped, capacity 7: the uncapped flow gets
  // the residual 5.
  Simulator sim;
  FairShareChannel ch(sim, 7.0);
  ch.start(1e9, 1.0, nullptr);
  ch.start(1e9, 1.0, nullptr);
  const FlowId big = ch.start(1e9, 0.0, nullptr);
  EXPECT_NEAR(ch.rate_of(big), 5.0, 1e-9);
}

TEST(FlowTest, DepartureRedistributesBandwidth) {
  Simulator sim;
  FairShareChannel ch(sim, 10.0);
  double small_done = -1, big_done = -1;
  ch.start(50.0, 0.0, [&] { small_done = sim.now(); });   // 5/s share -> 10s
  ch.start(100.0, 0.0, [&] { big_done = sim.now(); });
  sim.run();
  EXPECT_NEAR(small_done, 10.0, 1e-6);
  // Big flow: 50 bytes in the first 10 s, then full 10/s for the last 50.
  EXPECT_NEAR(big_done, 15.0, 1e-6);
}

TEST(FlowTest, StaggeredArrivalsAccountedExactly) {
  Simulator sim;
  FairShareChannel ch(sim, 10.0);
  double first_done = -1;
  ch.start(100.0, 0.0, [&] { first_done = sim.now(); });
  sim.schedule(5.0, [&] { ch.start(100.0, 0.0, nullptr); });
  sim.run_until(20.0);
  // First flow: 50 bytes alone (5 s), then shares 5/s -> 10 more seconds.
  EXPECT_NEAR(first_done, 15.0, 1e-6);
}

TEST(FlowTest, AbortReturnsDeliveredBytesAndFreesBandwidth) {
  Simulator sim;
  FairShareChannel ch(sim, 10.0);
  const FlowId a = ch.start(1000.0, 0.0, nullptr);
  double b_done = -1;
  ch.start(100.0, 0.0, [&] { b_done = sim.now(); });
  sim.schedule(4.0, [&] {
    const double got = ch.abort(a);
    EXPECT_NEAR(got, 20.0, 1e-6);  // 4 s at a 5/s share
  });
  sim.run();
  // b: 20 bytes by t=4 (shared), then 80 bytes at 10/s -> t=12.
  EXPECT_NEAR(b_done, 12.0, 1e-6);
}

TEST(FlowTest, ZeroByteFlowCompletesImmediately) {
  Simulator sim;
  FairShareChannel ch(sim, 10.0);
  bool done = false;
  ch.start(0.0, 0.0, [&] { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
}

TEST(FlowTest, TotalDeliveredAccumulates) {
  Simulator sim;
  FairShareChannel ch(sim, 10.0);
  ch.start(30.0, 0.0, nullptr);
  ch.start(70.0, 0.0, nullptr);
  sim.run();
  EXPECT_NEAR(ch.total_delivered(), 100.0, 1e-6);
  EXPECT_EQ(ch.active_flows(), 0u);
}

TEST(FlowTest, CapacityChangeMidFlight) {
  Simulator sim;
  FairShareChannel ch(sim, 10.0);
  double done = -1;
  ch.start(100.0, 0.0, [&] { done = sim.now(); });
  sim.schedule(5.0, [&] { ch.set_capacity(50.0); });  // GigE upgrade
  sim.run();
  EXPECT_NEAR(done, 6.0, 1e-6);  // 50 bytes in 5 s, then 50 at 50/s
}

TEST(HttpTest, StatsTrackRequestsAndBytes) {
  Simulator sim;
  HttpServer server(sim, "frontend-0", 7.5 * kMB);
  server.serve(10.0 * kMB, 0.0, nullptr);
  server.serve(20.0 * kMB, 0.0, nullptr);
  sim.run();
  EXPECT_EQ(server.stats().requests, 2u);
  EXPECT_NEAR(server.stats().bytes_served, 30.0 * kMB, 1.0);
}

TEST(HttpTest, AbortCorrectsBytesServed) {
  Simulator sim;
  HttpServer server(sim, "frontend-0", 10.0);
  const FlowId id = server.serve(100.0, 0.0, nullptr);
  sim.schedule(2.0, [&] { server.abort(id); });
  sim.run();
  EXPECT_NEAR(server.stats().bytes_served, 20.0, 1e-6);
}

TEST(HttpTest, GroupBalancesByLeastConnections) {
  Simulator sim;
  HttpServerGroup group(sim, 7.5 * kMB, 2);
  group.serve(100.0 * kMB, 1.0 * kMB, nullptr);
  group.serve(100.0 * kMB, 1.0 * kMB, nullptr);
  group.serve(100.0 * kMB, 1.0 * kMB, nullptr);
  EXPECT_EQ(group.server(0).active_downloads() + group.server(1).active_downloads(), 3u);
  EXPECT_GE(group.server(0).active_downloads(), 1u);
  EXPECT_GE(group.server(1).active_downloads(), 1u);
}

TEST(HttpTest, NReplicasGiveNTimesThroughput) {
  // Paper Section 6.3: "By deploying N web servers, one can support N times
  // the number of concurrent full-speed reinstallations".
  constexpr int kNodes = 14;
  const auto finish_time = [&](std::size_t replicas) {
    Simulator sim;
    HttpServerGroup group(sim, 7.0 * kMB, replicas);
    for (int i = 0; i < kNodes; ++i) group.serve(225.0 * kMB, 1.0 * kMB, nullptr);
    return sim.run();
  };
  EXPECT_NEAR(finish_time(2), 225.0, 1.0);      // 14 nodes over 2 servers: full speed
  EXPECT_NEAR(finish_time(1), 450.0, 1.0);      // one server: half speed
}

TEST(HttpTest, PerStreamCapBindsUncappedClients) {
  Simulator sim;
  HttpServer server(sim, "web", 11.875 * kMB);
  server.set_per_stream_cap(7.5 * kMB);
  double done_at = -1;
  server.serve(225.0 * kMB, 0.0, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 30.0, 0.01);  // 7.5 MB/s, not the NIC's 11.875
}

TEST(HttpTest, PerStreamCapCombinesWithClientCap) {
  Simulator sim;
  HttpServer server(sim, "web", 100.0);
  server.set_per_stream_cap(10.0);
  const FlowId tight = server.serve(1e9, 4.0, nullptr);   // client cap binds
  const FlowId loose = server.serve(1e9, 50.0, nullptr);  // stream cap binds
  EXPECT_NEAR(server.rate_of(tight), 4.0, 1e-9);
  EXPECT_NEAR(server.rate_of(loose), 10.0, 1e-9);
}

TEST(HttpTest, GroupPerStreamCapAppliesToAllReplicas) {
  Simulator sim;
  HttpServerGroup group(sim, 100.0, 3);
  group.set_per_stream_cap(5.0);
  for (int i = 0; i < 3; ++i) {
    const auto ticket = group.serve(1e9, 0.0, nullptr);
    EXPECT_NEAR(ticket.server->rate_of(ticket.flow), 5.0, 1e-9);
  }
}

// Property test: random arrivals, sizes, caps, and aborts — the simulation
// must terminate (no zero-length-event livelock, the bug fixed in the flow
// scheduler) and conserve bytes exactly.
class FlowConservation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlowConservation, TerminatesAndConservesBytes) {
  rocks::Rng rng(GetParam());
  Simulator sim;
  FairShareChannel ch(sim, rng.next_double_range(1.0, 20.0) * kMB);
  double expected = 0.0;
  double aborted_delivered = 0.0;
  std::vector<FlowId> live;

  for (int i = 0; i < 40; ++i) {
    const double at = rng.next_double_range(0.0, 300.0);
    const double bytes = rng.next_double_range(0.0, 50.0) * kMB;
    const double cap = rng.chance(0.5) ? rng.next_double_range(0.2, 3.0) * kMB : 0.0;
    expected += bytes;
    sim.schedule(at, [&ch, &live, bytes, cap] {
      live.push_back(ch.start(bytes, cap, nullptr));
    });
  }
  // A few random aborts mid-stream.
  for (int i = 0; i < 5; ++i) {
    const double at = rng.next_double_range(50.0, 250.0);
    sim.schedule(at, [&] {
      if (live.empty()) return;
      const FlowId victim = live[rng.next_below(live.size())];
      expected -= ch.remaining(victim);
      aborted_delivered += 0.0;  // delivered bytes stay counted in expected
      ch.abort(victim);
    });
  }
  sim.run();  // must terminate
  EXPECT_EQ(ch.active_flows(), 0u);
  EXPECT_NEAR(ch.total_delivered(), expected + aborted_delivered, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservation,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(DhcpTest, KnownMacGetsLeaseUnknownGetsSyslog) {
  Simulator sim;
  SyslogBus syslog;
  DhcpServer dhcp(sim, syslog, "frontend-0", Ipv4(10, 1, 1, 1));
  const Mac known = *Mac::parse("00:50:8b:e0:3a:a7");
  dhcp.add_binding(known, {Ipv4(10, 255, 255, 245), "compute-0-0", Ipv4(10, 1, 1, 1)});

  const auto lease = dhcp.discover(known);
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->hostname, "compute-0-0");

  const Mac unknown = *Mac::parse("00:50:8b:e0:44:5e");
  EXPECT_FALSE(dhcp.discover(unknown).has_value());
  EXPECT_EQ(dhcp.unanswered_count(), 1u);
  const std::vector<SyslogMessage> log = syslog.recent(10);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_NE(log.back().text.find("DHCPDISCOVER"), std::string::npos);
  EXPECT_NE(log.back().text.find("00:50:8b:e0:44:5e"), std::string::npos);
}

TEST(DhcpTest, ConfigureReplacesBindings) {
  Simulator sim;
  SyslogBus syslog;
  DhcpServer dhcp(sim, syslog, "frontend-0", Ipv4(10, 1, 1, 1));
  const Mac mac = *Mac::parse("00:00:00:00:00:01");
  dhcp.add_binding(mac, {Ipv4(10, 0, 0, 1), "a", Ipv4(10, 1, 1, 1)});
  dhcp.configure({});
  EXPECT_FALSE(dhcp.knows(mac));
}

TEST(SyslogTest, ListenersReceiveAndUnsubscribe) {
  SyslogBus bus;
  int count = 0;
  const auto id = bus.subscribe([&](const SyslogMessage&) { ++count; });
  bus.publish({0.0, "test", "h", "one"});
  bus.unsubscribe(id);
  bus.publish({0.0, "test", "h", "two"});
  EXPECT_EQ(count, 1);
  EXPECT_EQ(bus.total_published(), 2u);
}

TEST(SyslogTest, ReentrantSubscriptionSafe) {
  SyslogBus bus;
  int nested = 0;
  bus.subscribe([&](const SyslogMessage& m) {
    if (m.text == "outer") bus.subscribe([&](const SyslogMessage&) { ++nested; });
  });
  bus.publish({0.0, "t", "h", "outer"});
  bus.publish({0.0, "t", "h", "inner"});
  EXPECT_EQ(nested, 1);
}

TEST(SyslogTest, RecentReturnsAtMostTheRetainedTail) {
  SyslogBus bus;
  int heard = 0;
  bus.subscribe([&](const SyslogMessage&) { ++heard; });
  const std::size_t published = SyslogBus::kLogCap + 10;
  for (std::size_t i = 0; i < published; ++i)
    bus.publish({0.0, "t", "h", std::to_string(i)});
  EXPECT_EQ(heard, static_cast<int>(published)) << "listeners see every message";
  const std::vector<SyslogMessage> tail = bus.recent(published);
  ASSERT_EQ(tail.size(), SyslogBus::kLogCap);
  EXPECT_EQ(tail.front().text, "10");
  EXPECT_EQ(tail.back().text, std::to_string(published - 1));
  EXPECT_EQ(bus.total_published(), published);
}

TEST(SimulatorTest, CancelledIdsReclaimedWhenEntriesPop) {
  Simulator sim;
  // A cancel-heavy workload (every retry timer that gets superseded) must
  // not grow the lazy-deletion set forever.
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) ids.push_back(sim.schedule(1.0 + i, [] {}));
  for (int i = 0; i < 100; i += 2) sim.cancel(ids[i]);
  EXPECT_EQ(sim.cancelled_backlog(), 50u);
  sim.run_until(51.0);  // pops entries at t=1..51: 26 of them were cancelled
  EXPECT_EQ(sim.cancelled_backlog(), 24u);
  sim.run();
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
  EXPECT_EQ(sim.events_fired(), 50u);
}

TEST(SimulatorTest, BacklogClearsWhenQueueDrainsEvenForUnpoppedIds) {
  Simulator sim;
  // Cancel ids scheduled *after* everything else has fired: their queue
  // entries pop during the same run, and a drained queue clears the set.
  for (int i = 0; i < 10; ++i) sim.cancel(sim.schedule(1.0, [] {}));
  EXPECT_EQ(sim.cancelled_backlog(), 10u);
  sim.run();
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(HttpTest, CrashKillsFlowsNotifiesClientsAndRefusesService) {
  Simulator sim;
  HttpServer server(sim, "frontend-0", 10.0);
  double aborted_at_bytes = -1.0;
  bool completed = false;
  server.serve(
      100.0, 0.0, [&] { completed = true; },
      [&](double delivered) { aborted_at_bytes = delivered; });
  sim.schedule(2.0, [&] { server.crash(); });
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_NEAR(aborted_at_bytes, 20.0, 1e-6);
  EXPECT_FALSE(server.is_up());
  EXPECT_EQ(server.stats().crashes, 1u);
  EXPECT_EQ(server.stats().flows_killed, 1u);
  // Only the undelivered remainder is refunded: the 20 bytes that made it
  // over the wire stay counted.
  EXPECT_NEAR(server.stats().bytes_served, 20.0, 1e-6);
  EXPECT_THROW(server.serve(10.0, 0.0, nullptr), UnavailableError);
  server.restart();
  EXPECT_TRUE(server.is_up());
  server.serve(10.0, 0.0, [&] { completed = true; });
  sim.run();
  EXPECT_TRUE(completed);
}

TEST(HttpTest, KillOneFlowResetsOldestOnly) {
  Simulator sim;
  HttpServer server(sim, "frontend-0", 10.0);
  double first_delivered = -1.0;
  bool second_done = false;
  server.serve(1000.0, 0.0, nullptr, [&](double delivered) { first_delivered = delivered; });
  sim.schedule(1.0, [&] { server.serve(20.0, 0.0, [&] { second_done = true; }); });
  sim.schedule(3.0, [&] { EXPECT_TRUE(server.kill_one_flow()); });
  sim.run();
  EXPECT_GT(first_delivered, 0.0);  // the oldest flow took the reset
  EXPECT_TRUE(second_done);         // the younger one finished untouched
  EXPECT_EQ(server.stats().flows_killed, 1u);
  EXPECT_FALSE(server.kill_one_flow());  // idle: nothing to kill
}

TEST(HttpTest, GroupRoutesAroundDownReplicas) {
  Simulator sim;
  HttpServerGroup group(sim, 7.5 * kMB, 3);
  group.crash_replica(1);
  EXPECT_EQ(group.up_count(), 2u);
  for (int i = 0; i < 4; ++i) group.serve(100.0 * kMB, 1.0 * kMB, nullptr);
  EXPECT_EQ(group.server(1).active_downloads(), 0u);
  EXPECT_EQ(group.server(0).active_downloads(), 2u);
  EXPECT_EQ(group.server(2).active_downloads(), 2u);
  group.restart_replica(1);
  group.serve(100.0 * kMB, 1.0 * kMB, nullptr);
  EXPECT_EQ(group.server(1).active_downloads(), 1u);  // least-connections
}

TEST(HttpTest, GroupReturnsNullTicketWhenAllReplicasDown) {
  Simulator sim;
  HttpServerGroup group(sim, 7.5 * kMB, 2);
  group.crash_replica(0);
  group.crash_replica(1);
  bool completed = false;
  const auto ticket = group.serve(10.0, 0.0, [&] { completed = true; });
  EXPECT_EQ(ticket.server, nullptr);
  sim.run();
  EXPECT_FALSE(completed);
  EXPECT_EQ(group.active_downloads(), 0u);
}

TEST(SimulatorTest, CancelHeavyBacklogCompactsEagerly) {
  // Past the floor, dead entries exceeding half the heap trigger one O(live)
  // compaction instead of lingering until the queue drains (a 100k-node
  // swarm cancels retry timers by the thousands without popping them).
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 400; ++i) ids.push_back(sim.schedule(1000.0 + i, [] {}));
  for (int i = 0; i < 300; ++i) sim.cancel(ids[i]);
  // The trigger fires at dead * 2 > heap size (201 of 400); the stragglers
  // cancelled after that stay lazy until the next trigger or pop.
  EXPECT_GT(sim.compactions(), 0u);
  EXPECT_LT(sim.cancelled_backlog(), 150u);
  EXPECT_EQ(sim.pending_events(), 100u);
  sim.run();
  EXPECT_EQ(sim.events_fired(), 100u);
}

TEST(SimulatorTest, SmallCancelBurstsStayLazy) {
  // Below the floor no compaction happens: micro-queues keep the original
  // lazy-deletion behaviour (and its tests) byte for byte.
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 60; ++i) ids.push_back(sim.schedule(10.0, [] {}));
  for (const EventId id : ids) sim.cancel(id);
  EXPECT_EQ(sim.compactions(), 0u);
  EXPECT_EQ(sim.cancelled_backlog(), 60u);
  sim.run();
  EXPECT_EQ(sim.cancelled_backlog(), 0u);
  EXPECT_EQ(sim.events_fired(), 0u);
}

TEST(FlowTest, ChannelStatsCountJoinsRebalancesAndPeak) {
  Simulator sim;
  FairShareChannel channel(sim, 7.0 * kMB);
  EXPECT_EQ(channel.stats().flow_joins, 0u);
  channel.start(7.0 * kMB, 0.0, [] {});
  channel.start(7.0 * kMB, 0.0, [] {});
  const FlowId third = channel.start(7.0 * kMB, 0.0, [] {});
  EXPECT_EQ(channel.stats().flow_joins, 3u);
  EXPECT_EQ(channel.stats().peak_active, 3u);
  EXPECT_GE(channel.stats().rebalances, 3u);
  channel.abort(third);
  EXPECT_EQ(channel.stats().peak_active, 3u);  // high-water, not current
  channel.reset_stats();
  EXPECT_EQ(channel.stats().flow_joins, 0u);
  EXPECT_EQ(channel.stats().rebalances, 0u);
  EXPECT_EQ(channel.stats().peak_active, 2u);  // restarts from live membership
  sim.run();
}

TEST(FlowTest, DeliveredAndRemainingAreConstReads) {
  // The read path must not mutate the channel: two queries at the same
  // instant see the same value, and completions stay exact afterwards.
  Simulator sim;
  FairShareChannel channel(sim, 7.0 * kMB);
  bool done = false;
  const FlowId flow = channel.start(7.0 * kMB, 0.0, [&] { done = true; });
  sim.run_until(0.5);
  const FairShareChannel& read_only = channel;
  const double first = read_only.delivered(flow);
  EXPECT_NEAR(first, 3.5 * kMB, 1.0);
  EXPECT_NEAR(read_only.remaining(flow), 3.5 * kMB, 1.0);
  EXPECT_EQ(read_only.delivered(flow), first);
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

TEST(PduTest, PowerCycleRunsAttachedAction) {
  PowerDistributionUnit pdu;
  int cycles = 0;
  pdu.attach("compute-0-0", [&] { ++cycles; });
  pdu.power_cycle("compute-0-0");
  EXPECT_EQ(cycles, 1);
  EXPECT_EQ(pdu.cycles_executed(), 1u);
  EXPECT_THROW(pdu.power_cycle("ghost"), LookupError);
  pdu.detach("compute-0-0");
  EXPECT_THROW(pdu.power_cycle("compute-0-0"), LookupError);
}

}  // namespace
}  // namespace rocks::netsim
