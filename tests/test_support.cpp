// Unit tests for the support library: strings, IP/MAC types, RNG, tables,
// thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "support/backoff.hpp"
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
