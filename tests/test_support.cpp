// Unit tests for the support library: strings, IP/MAC types, RNG, tables,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <future>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/backoff.hpp"
#include "support/channel_log.hpp"
#include "support/error.hpp"
#include "support/ip.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/threadpool.hpp"

namespace rocks {
namespace {

using strings::split;
using strings::split_ws;
using strings::trim;

TEST(Strings, SplitBasic) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWs) {
  EXPECT_EQ(split_ws("  a  b\tc\n"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, IEqualsComparesAsciiCaseInsensitively) {
  EXPECT_TRUE(strings::iequals("Nodes", "nODES"));
  EXPECT_TRUE(strings::iequals("", ""));
  EXPECT_FALSE(strings::iequals("nodes", "node"));
  EXPECT_FALSE(strings::iequals("a_b", "a-b"));
  EXPECT_TRUE(strings::iequals("graph_root", "GRAPH_ROOT"));
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim(" \t\n "), "");
}

TEST(Strings, Join) {
  EXPECT_EQ(strings::join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(strings::join({}, ","), "");
  EXPECT_EQ(strings::join({"x"}, ","), "x");
}

TEST(Strings, ReplaceAll) {
  EXPECT_EQ(strings::replace_all("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(strings::replace_all("no match", "x", "y"), "no match");
  EXPECT_EQ(strings::replace_all("abc", "", "y"), "abc");
}

TEST(Strings, Cat) {
  EXPECT_EQ(strings::cat("n=", 42, ", f=", 1.5), "n=42, f=1.5");
  EXPECT_EQ(strings::cat(), "");
}

struct GlobCase {
  const char* pattern;
  const char* text;
  bool match;
};

// Names each case by its contents; the default byte dump shows the pointers,
// which change from build to build.
void PrintTo(const GlobCase& c, std::ostream* os) {
  *os << "'" << c.pattern << "' " << (c.match ? "matches" : "rejects") << " '" << c.text << "'";
}

class GlobTest : public ::testing::TestWithParam<GlobCase> {};

TEST_P(GlobTest, Matches) {
  const auto& c = GetParam();
  EXPECT_EQ(strings::glob_match(c.pattern, c.text), c.match)
      << c.pattern << " vs " << c.text;
}

INSTANTIATE_TEST_SUITE_P(Patterns, GlobTest,
                         ::testing::Values(GlobCase{"*", "", true},
                                           GlobCase{"*", "anything", true},
                                           GlobCase{"compute-*", "compute-0-0", true},
                                           GlobCase{"compute-*", "frontend-0", false},
                                           GlobCase{"compute-?-?", "compute-0-1", true},
                                           GlobCase{"compute-?-?", "compute-0-12", false},
                                           GlobCase{"*-0", "rack-1-0", true},
                                           GlobCase{"a*b*c", "axxbyyc", true},
                                           GlobCase{"a*b*c", "axxbyy", false},
                                           GlobCase{"", "", true},
                                           GlobCase{"", "x", false}));

TEST(Ipv4, ParseAndFormat) {
  const auto ip = Ipv4::parse("10.255.255.254");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "10.255.255.254");
  EXPECT_EQ(ip->value(), 0x0AFFFFFEu);
}

TEST(Ipv4, ParseRejectsMalformed) {
  EXPECT_FALSE(Ipv4::parse("10.1.1").has_value());
  EXPECT_FALSE(Ipv4::parse("10.1.1.256").has_value());
  EXPECT_FALSE(Ipv4::parse("10.1.1.x").has_value());
  EXPECT_FALSE(Ipv4::parse("").has_value());
  EXPECT_FALSE(Ipv4::parse("1.2.3.4.5").has_value());
}

TEST(Ipv4, PrevAllocatesDownward) {
  const Ipv4 top(10, 255, 255, 254);
  EXPECT_EQ(top.prev().to_string(), "10.255.255.253");
}

TEST(Ipv4, SubnetMembership) {
  const Ipv4 ip(10, 1, 1, 1);
  EXPECT_TRUE(ip.in_subnet(Ipv4(10, 0, 0, 0), 8));
  EXPECT_FALSE(ip.in_subnet(Ipv4(192, 168, 0, 0), 16));
  EXPECT_TRUE(ip.in_subnet(Ipv4(0, 0, 0, 0), 0));
  EXPECT_TRUE(ip.in_subnet(ip, 32));
  EXPECT_FALSE(ip.next().in_subnet(ip, 32));
}

TEST(Mac, ParseAndFormat) {
  const auto mac = Mac::parse("00:50:8b:e0:3a:a7");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->to_string(), "00:50:8b:e0:3a:a7");
}

TEST(Mac, ParseRejectsMalformed) {
  EXPECT_FALSE(Mac::parse("00:50:8b:e0:3a").has_value());
  EXPECT_FALSE(Mac::parse("00:50:8b:e0:3a:zz").has_value());
  EXPECT_FALSE(Mac::parse("").has_value());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, RangesRespected) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_range(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(AsciiTable, RendersAlignedColumns) {
  AsciiTable table({"Nodes", "Minutes"});
  table.add_row({"1", "10.3"});
  table.add_row({"32", "13.7"});
  const std::string out = table.render();
  EXPECT_NE(out.find("| Nodes | Minutes |"), std::string::npos);
  EXPECT_NE(out.find("| 32    | 13.7    |"), std::string::npos);
}

TEST(AsciiTable, RejectsRaggedRow) {
  AsciiTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), StateError);
}

TEST(Errors, RequireHelpers) {
  EXPECT_NO_THROW(require_found(true, "x"));
  EXPECT_THROW(require_found(false, "x"), LookupError);
  EXPECT_THROW(require_state(false, "x"), StateError);
}

TEST(Fixed, FormatsDecimals) {
  EXPECT_EQ(fixed(10.345, 1), "10.3");
  EXPECT_EQ(fixed(2.0, 2), "2.00");
}

// --- ChannelLog: the bounded log + subscribers under the journal, the event
// bus, syslog and eKV ---------------------------------------------------------

struct Rec {
  int value = 0;
  std::uint64_t seq = 0;
};

std::vector<int> values(const std::vector<Rec>& records) {
  std::vector<int> out;
  for (const Rec& record : records) out.push_back(record.value);
  return out;
}

TEST(ChannelLog, Contract) {
  using Log = support::ChannelLog<Rec, int>;

  // Capacity 1 (0 clamps to 1): each append trims its predecessor, and the
  // floor is the seq of the record just dropped.
  Log one(0);
  EXPECT_EQ(one.append(0, {10}), 1u);
  EXPECT_EQ(one.floor(0), 0u);
  EXPECT_EQ(one.append(0, {11}), 2u);
  EXPECT_EQ(one.floor(0), 1u);
  EXPECT_TRUE(one.since(0, 0).truncated);
  EXPECT_EQ(values(one.since(0, 1).records), std::vector<int>{11});

  // Capacity N: ten appends keep seqs 7..10 and floor at 6.
  Log log(4);
  for (int i = 1; i <= 10; ++i) EXPECT_EQ(log.append(0, {i}), static_cast<std::uint64_t>(i));
  EXPECT_EQ(log.seq(0), 10u);
  EXPECT_EQ(log.floor(0), 6u);
  const auto below = log.since(0, 5);  // floor - 1
  EXPECT_TRUE(below.truncated);
  EXPECT_TRUE(below.records.empty());
  EXPECT_EQ(below.seq, 10u);
  EXPECT_EQ(below.floor, 6u);
  const auto at_floor = log.since(0, 6);
  EXPECT_FALSE(at_floor.truncated);
  EXPECT_EQ(values(at_floor.records), (std::vector<int>{7, 8, 9, 10}));
  EXPECT_EQ(at_floor.records.front().seq, 7u);  // append stamps the seq
  const auto current = log.since(0, 10);
  EXPECT_FALSE(current.truncated);
  EXPECT_TRUE(current.records.empty());
  EXPECT_EQ(current.seq, 10u);
  // Channels count independently; an unknown channel reads as empty at 0.
  EXPECT_EQ(log.append(1, {100}), 1u);
  EXPECT_EQ(log.seq(99), 0u);
  const auto unknown = log.since(99, 0);
  EXPECT_FALSE(unknown.truncated);
  EXPECT_EQ(unknown.seq, 0u);
  EXPECT_TRUE(log.recent(99, 5).empty());

  // recent(): newest <= limit, oldest first.
  EXPECT_TRUE(log.recent(0, 0).empty());
  EXPECT_EQ(values(log.recent(0, 100)), (std::vector<int>{7, 8, 9, 10}));
  EXPECT_EQ(values(log.recent(0, 2)), (std::vector<int>{9, 10}));

  // Shrinking trims at once and raises the floor.
  log.set_capacity(2);
  EXPECT_EQ(log.floor(0), 8u);
  EXPECT_EQ(values(log.recent(0, 100)), (std::vector<int>{9, 10}));
  log.set_capacity(4);

  // poison(): a seq with no record; every cursor behind it must rescan.
  EXPECT_EQ(log.poison(0), 11u);
  EXPECT_EQ(log.floor(0), 11u);
  EXPECT_TRUE(log.since(0, 10).truncated);
  EXPECT_FALSE(log.since(0, 11).truncated);
  EXPECT_TRUE(log.recent(0, 10).empty());
  EXPECT_EQ(log.append(0, {12}), 12u);
  EXPECT_EQ(values(log.since(0, 11).records), std::vector<int>{12});

  // restore(): seq and floor at the recovered value, no records.
  log.restore(2, 40);
  EXPECT_EQ(log.seq(2), 40u);
  EXPECT_TRUE(log.since(2, 39).truncated);
  EXPECT_FALSE(log.since(2, 40).truncated);
  EXPECT_EQ(log.append(2, {41}), 41u);
  EXPECT_EQ(log.seqs(), (std::vector<std::pair<int, std::uint64_t>>{{0, 12}, {1, 1}, {2, 41}}));

  // Subscribers: one channel or all, in subscription order; a callback may
  // unsubscribe itself (it still sees the record in flight) and subscribe
  // others (they start with the next record).
  Log bus(8);
  std::vector<std::string> calls;
  std::size_t self_id = 0;
  self_id = bus.subscribe(0, [&](const Rec& record) {
    calls.push_back(strings::cat("self:", record.value));
    bus.unsubscribe(self_id);
  });
  bus.subscribe_all([&](const Rec& record) {
    calls.push_back(strings::cat("all:", record.value, "#", record.seq));
    if (record.value == 1)
      bus.subscribe(0, [&](const Rec& late) { calls.push_back(strings::cat("late:", late.value)); });
  });
  bus.subscribe(1, [&](const Rec& record) { calls.push_back(strings::cat("one:", record.value)); });
  EXPECT_EQ(bus.publish(0, {1}), 1u);
  EXPECT_EQ(bus.publish(0, {2}), 2u);
  EXPECT_EQ(bus.publish(1, {3}), 1u);
  EXPECT_EQ(calls, (std::vector<std::string>{"self:1", "all:1#1", "all:2#2", "late:2",
                                             "all:3#1", "one:3"}));
  EXPECT_EQ(bus.notifications_sent(), 6u);
  EXPECT_EQ(values(bus.recent(0, 8)), (std::vector<int>{1, 2}));

  // dispatch() forwards any arguments (the journal notifies per statement
  // with (channel, revision), not per record).
  support::ChannelLog<Rec, std::string, std::function<void(std::string_view, std::uint64_t)>>
      journal(8);
  std::vector<std::string> notified;
  journal.subscribe("nodes", [&](std::string_view channel, std::uint64_t revision) {
    notified.push_back(strings::cat(channel, "@", revision));
  });
  journal.append("nodes", {1});
  journal.append("nodes", {2});
  journal.dispatch("nodes", std::string_view("nodes"), journal.seq("nodes"));
  journal.dispatch("apps", std::string_view("apps"), std::uint64_t{0});
  EXPECT_EQ(notified, std::vector<std::string>{"nodes@2"});

  // Churn: publishers on two channels race subscribe/unsubscribe and cursor
  // reads; a subscriber present throughout sees every record exactly once.
  Log shared(16);
  std::atomic<std::uint64_t> delivered{0};
  std::atomic<std::uint64_t> churned{0};
  shared.subscribe_all([&](const Rec&) { delivered.fetch_add(1); });
  constexpr int kPerPublisher = 2000;
  std::vector<std::thread> threads;
  for (int channel = 0; channel < 2; ++channel)
    threads.emplace_back([&shared, channel] {
      for (int i = 1; i <= kPerPublisher; ++i) shared.publish(channel, {i});
    });
  for (int t = 0; t < 2; ++t)
    threads.emplace_back([&shared, &churned] {
      for (int i = 0; i < 500; ++i) {
        const std::size_t id = shared.subscribe(0, [&churned](const Rec&) { churned.fetch_add(1); });
        const auto delta = shared.since(0, shared.seq(0) / 2);
        for (std::size_t k = 1; k < delta.records.size(); ++k) {
          EXPECT_EQ(delta.records[k].seq, delta.records[k - 1].seq + 1);
        }
        (void)shared.recent(1, 4);
        shared.unsubscribe(id);
      }
    });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(delivered.load(), 2u * kPerPublisher);
  EXPECT_EQ(shared.notifications_sent(), 2u * kPerPublisher + churned.load());
  for (int channel = 0; channel < 2; ++channel) {
    EXPECT_EQ(shared.seq(channel), static_cast<std::uint64_t>(kPerPublisher));
    EXPECT_EQ(values(shared.recent(channel, 1)), std::vector<int>{kPerPublisher});
    EXPECT_EQ(shared.since(channel, kPerPublisher - 16).records.size(), 16u);
    EXPECT_TRUE(shared.since(channel, kPerPublisher - 17).truncated);
  }
}

TEST(ThreadPool, SubmitReturnsFutureWithResult) {
  support::ThreadPool pool(2);
  auto answer = pool.submit([] { return 42; });
  EXPECT_EQ(answer.get(), 42);
  EXPECT_EQ(pool.tasks_run(), 1u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  support::ThreadPool pool(4);
  constexpr std::size_t kItems = 1000;
  std::vector<std::atomic<int>> touched(kItems);
  pool.parallel_for(kItems, [&](std::size_t i) { touched[i].fetch_add(1); });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(touched[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForZeroItemsIsANoOp) {
  support::ThreadPool pool(4);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "fn must not run for n == 0"; });
  EXPECT_EQ(pool.tasks_run(), 0u);
}

TEST(ThreadPool, SingleWorkerPoolStillCompletes) {
  support::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) { sum.fetch_add(static_cast<int>(i)); });
  EXPECT_EQ(sum.load(), 4950);
  // 0 workers clamps to 1 rather than deadlocking.
  support::ThreadPool clamped(0);
  EXPECT_EQ(clamped.size(), 1u);
  EXPECT_EQ(clamped.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ParallelForPropagatesWorkerException) {
  support::ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          ran.fetch_add(1);
                          if (i == 13) throw StateError("worker 13 failed");
                        }),
      StateError);
  // Other chunks are not cancelled; the pool stays usable afterwards.
  EXPECT_GT(ran.load(), 0);
  std::atomic<int> after{0};
  pool.parallel_for(8, [&](std::size_t) { after.fetch_add(1); });
  EXPECT_EQ(after.load(), 8);
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  std::atomic<int> completed{0};
  std::vector<std::future<void>> futures;
  {
    support::ThreadPool pool(1);  // one worker so tasks genuinely queue up
    for (int i = 0; i < 32; ++i)
      futures.push_back(pool.submit([&completed] { completed.fetch_add(1); }));
    // Destructor drains: every queued task must run before the worker exits.
  }
  EXPECT_EQ(completed.load(), 32);
  for (auto& future : futures) EXPECT_NO_THROW(future.get());
}

TEST(ThreadPool, StatsTrackQueueAndRuntime) {
  support::ThreadPool pool(2);
  pool.parallel_for(100, [](std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(10));
  });
  EXPECT_GT(pool.tasks_run(), 0u);
  EXPECT_GT(pool.queue_depth_high_water(), 0u);
  EXPECT_GT(pool.total_run().count(), 0);
  EXPECT_GE(pool.total_wait().count(), 0);
}

TEST(ThreadPool, ParallelWallSecondsCeilModel) {
  using support::parallel_wall_seconds;
  EXPECT_DOUBLE_EQ(parallel_wall_seconds(8, 1, 2.0), 16.0);
  EXPECT_DOUBLE_EQ(parallel_wall_seconds(8, 8, 2.0), 2.0);
  EXPECT_DOUBLE_EQ(parallel_wall_seconds(9, 8, 2.0), 4.0);  // ceil(9/8) = 2
  EXPECT_DOUBLE_EQ(parallel_wall_seconds(0, 4, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(parallel_wall_seconds(5, 0, 2.0), 10.0);  // 0 workers = 1
}

TEST(BackoffPolicy, FirstAttemptIsExactlyBaseWithNoRngDraw) {
  const support::BackoffPolicy policy{5.0, 60.0, 0.25};
  Rng rng(1);
  Rng untouched(1);
  EXPECT_DOUBLE_EQ(policy.delay(0, rng), 5.0);
  EXPECT_DOUBLE_EQ(policy.delay(1, rng), 5.0);
  // The fault-free path never consults the RNG (DESIGN.md §12.6 property 1).
  EXPECT_EQ(rng.next_u64(), untouched.next_u64());
}

TEST(BackoffPolicy, DoublesUpToCapWithBoundedJitter) {
  const support::BackoffPolicy policy{5.0, 60.0, 0.25};
  Rng rng(42);
  for (int attempt = 2; attempt <= 8; ++attempt) {
    const double raw = std::min(5.0 * (1 << (attempt - 1)), 60.0);
    const double delay = policy.delay(attempt, rng);
    EXPECT_GE(delay, raw) << attempt;
    EXPECT_LT(delay, raw * 1.25) << attempt;
  }
  // Far past the ceiling the delay stays bounded by cap * (1 + jitter).
  EXPECT_LT(policy.delay(50, rng), 60.0 * 1.25);
}

TEST(BackoffPolicy, ZeroJitterIsFullyDeterministic) {
  const support::BackoffPolicy policy{2.0, 16.0, 0.0};
  Rng rng(7);
  EXPECT_DOUBLE_EQ(policy.delay(2, rng), 4.0);
  EXPECT_DOUBLE_EQ(policy.delay(3, rng), 8.0);
  EXPECT_DOUBLE_EQ(policy.delay(4, rng), 16.0);
  EXPECT_DOUBLE_EQ(policy.delay(5, rng), 16.0);  // capped
}

}  // namespace
}  // namespace rocks
