// Concurrency stress tests for the serving stack (DESIGN.md §9): the
// sqldb reader-writer engine, the generator's striped profile cache, and
// KickstartServer::handle_many. These are the tests the build-tsan CI job
// runs under ThreadSanitizer — they are written to provoke races (many
// threads, small tables, tight loops), not to measure throughput.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "kickstart/defaults.hpp"
#include "kickstart/generator.hpp"
#include "kickstart/server.hpp"
#include "rpm/synth.hpp"
#include "services/generators.hpp"
#include "services/incremental.hpp"
#include "services/manager.hpp"
#include "sqldb/engine.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/threadpool.hpp"
#include "vfs/filesystem.hpp"

namespace rocks {
namespace {

constexpr std::size_t kThreads = 8;
constexpr std::size_t kOpsPerThread = 1000;

/// 8 threads × 1k ops against one Database: six readers re-running indexed
/// and scanning SELECTs while two writers INSERT disjoint rows and UPDATE
/// their own counter row. Asserts no lost updates (every increment lands)
/// and that readers only ever observe well-formed rows.
TEST(DatabaseConcurrency, ConcurrentSelectInsertUpdate) {
  sqldb::Database db;
  db.execute("CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, rack INT)");
  db.execute("CREATE INDEX nodes_name ON nodes (name)");
  db.execute("INSERT INTO nodes (name, rack) VALUES ('seed-0', 0), ('seed-1', 0)");
  // One counter row per writer thread; each writer increments only its own.
  db.execute("INSERT INTO nodes (name, rack) VALUES ('counter-6', 0), ('counter-7', 0)");

  std::atomic<std::size_t> malformed{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &malformed, t] {
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        if (t >= 6) {
          // Writers: grow the table and bump a private counter.
          db.execute(strings::cat("INSERT INTO nodes (name, rack) VALUES ('w", t, "-", op,
                                  "', ", t, ")"));
          db.execute(strings::cat("UPDATE nodes SET rack = rack + 1 WHERE name = 'counter-",
                                  t, "'"));
        } else {
          // Readers: one indexed probe, one scan; every hit must be whole.
          const auto probe = db.execute("SELECT name, rack FROM nodes WHERE name = 'seed-0'");
          if (probe.row_count() != 1 || probe.at(0, 0).to_string() != "seed-0")
            malformed.fetch_add(1);
          const auto scan = db.execute("SELECT name FROM nodes WHERE rack >= 0");
          if (scan.row_count() < 4) malformed.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(malformed.load(), 0u);
  // No lost inserts: 4 seed rows + 2 writers × 1000.
  const auto count = db.execute("SELECT id FROM nodes");
  EXPECT_EQ(count.row_count(), 4u + 2u * kOpsPerThread);
  // No lost updates: each counter saw exactly its writer's 1000 increments.
  for (int t = 6; t <= 7; ++t) {
    const auto counter = db.execute(
        strings::cat("SELECT rack FROM nodes WHERE name = 'counter-", t, "'"));
    ASSERT_EQ(counter.row_count(), 1u);
    EXPECT_EQ(counter.at(0, 0).to_string(), "1000");
  }
  // Under MVCC the read path takes no lock at all: every SELECT pinned a
  // read view instead (6 reader threads × 2 each op, plus the 3
  // verification SELECTs above); the 4 setup statements and 2 writers × 2
  // DML each op ran exclusive.
  EXPECT_EQ(db.read_views_opened(), 6u * kOpsPerThread * 2 + 3);
  EXPECT_EQ(db.exclusive_lock_acquisitions(), 2u * kOpsPerThread * 2 + 4);
}

/// MVCC snapshot isolation under a writer storm: 8 writer threads churning
/// INSERT/UPDATE/DELETE while 8 reader threads each pin a read view and
/// re-run the same aggregate through it. A pinned view must return the
/// *identical* result however many commits land while it is held — any
/// drift means a version became visible (or was reclaimed) inside a live
/// snapshot.
TEST(DatabaseConcurrency, PinnedReadViewIsStableUnderWriterStorm) {
  sqldb::Database db;
  db.execute("CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT, rack INT)");
  db.execute("CREATE INDEX nodes_name ON nodes (name)");
  for (int i = 0; i < 16; ++i)
    db.execute(strings::cat("INSERT INTO nodes (name, rack) VALUES ('seed-", i, "', 0)"));

  constexpr std::size_t kStormOps = 300;
  std::atomic<std::size_t> unstable{0};
  std::vector<std::thread> writers;
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    writers.emplace_back([&db, t] {
      for (std::size_t op = 0; op < kStormOps; ++op) {
        db.execute(strings::cat("INSERT INTO nodes (name, rack) VALUES ('w", t, "-", op,
                                "', ", t + 1, ")"));
        db.execute(strings::cat("UPDATE nodes SET rack = rack + 1 WHERE name = 'seed-", t,
                                "'"));
        db.execute(strings::cat("DELETE FROM nodes WHERE name = 'w", t, "-", op, "'"));
      }
    });
    readers.emplace_back([&db, &unstable] {
      for (std::size_t op = 0; op < kStormOps; ++op) {
        sqldb::ReadView view = db.read_view();
        const auto first = view.execute("SELECT name, rack FROM nodes ORDER BY id");
        // Indexed probe and scan through the same view: same snapshot.
        const auto probe = view.execute("SELECT rack FROM nodes WHERE name = 'seed-3'");
        const auto second = view.execute("SELECT name, rack FROM nodes ORDER BY id");
        if (first.render() != second.render()) unstable.fetch_add(1);
        if (probe.row_count() != 1) unstable.fetch_add(1);
      }
    });
  }
  for (auto& thread : writers) thread.join();
  for (auto& thread : readers) thread.join();
  EXPECT_EQ(unstable.load(), 0u);
  // Every insert was matched by a delete: the 16 seeds survive.
  EXPECT_EQ(db.execute("SELECT id FROM nodes").row_count(), 16u);
  // Each seed row took exactly its writer's increments.
  for (std::size_t t = 0; t < kThreads; ++t) {
    const auto rack =
        db.execute(strings::cat("SELECT rack FROM nodes WHERE name = 'seed-", t, "'"));
    ASSERT_EQ(rack.row_count(), 1u);
    EXPECT_EQ(rack.at(0, 0).to_string(), strings::cat(kStormOps));
  }
}

/// Zero-pause checkpoints racing kickstart generation: one thread
/// snapshotting a durable store in a tight loop, readers resolving
/// kickstarts (each resolve pins a view for its two lookups), a writer
/// integrating and retiring transient nodes. Readers must never block,
/// fail, or observe a half-registered node; the final image must recover
/// byte-identically.
TEST(DatabaseConcurrency, GenerateRacingCheckpoint) {
  rpm::SynthDistro distro = rpm::make_redhat_release();
  const kickstart::DefaultConfiguration config = kickstart::make_default_configuration(distro);
  vfs::FileSystem disk;
  sqldb::Database db;
  db.open_durable(disk, "/state/db");
  kickstart::ensure_cluster_schema(db);
  kickstart::insert_node_row(db, Mac(0x00508BE00000ULL).to_string(), "compute-0-0", 2, 0, 0,
                             Ipv4(10, 255, 255, 254).to_string());
  kickstart::KickstartServer server(db, config.files, config.graph, Ipv4(10, 1, 1, 1),
                                    "http://10.1.1.1/install/rocks-dist", &distro.repo);
  const std::string expected = server.handle_request(Ipv4(10, 255, 255, 254));

  std::atomic<std::size_t> failures{0};
  std::atomic<bool> done{false};
  std::thread checkpointer([&db, &done] {
    while (!done.load(std::memory_order_relaxed)) (void)db.snapshot();
  });
  std::thread writer([&db, &done] {
    for (std::size_t op = 0; op < kOpsPerThread / 4; ++op) {
      kickstart::insert_node_row(db, Mac(0x00A0C9000000ULL + op).to_string(),
                                 strings::cat("transient-1-", op), 2, 1,
                                 static_cast<int>(op),
                                 Ipv4(Ipv4(10, 250, 0, 1).value() +
                                      static_cast<std::uint32_t>(op)).to_string());
      db.execute(strings::cat("DELETE FROM nodes WHERE name = 'transient-1-", op, "'"));
    }
    done.store(true, std::memory_order_relaxed);
  });
  std::vector<std::thread> resolvers;
  for (std::size_t t = 0; t < 4; ++t) {
    resolvers.emplace_back([&server, &expected, &failures] {
      for (std::size_t op = 0; op < kOpsPerThread / 4; ++op) {
        try {
          if (server.handle_request(Ipv4(10, 255, 255, 254)) != expected)
            failures.fetch_add(1);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : resolvers) thread.join();
  writer.join();
  checkpointer.join();
  EXPECT_EQ(failures.load(), 0u);

  db.wal_flush();
  const std::string final_state = db.dump_state();
  sqldb::Database recovered;
  recovered.open_durable(disk, "/state/db");
  EXPECT_EQ(recovered.dump_state(), final_state);
}

/// Epoch-based reclamation under churn: writers supersede versions at full
/// tilt while readers hold overlapping pinned views. While views are live
/// the horizon protects what they can see; once they drain, reclaim()
/// returns the store to one live version per row — superseded versions and
/// dead chains must not accumulate.
TEST(DatabaseConcurrency, VersionReclamationUnderChurn) {
  sqldb::Database db;
  db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, x INT)");
  for (int i = 0; i < 8; ++i) db.execute("INSERT INTO t (x) VALUES (0)");

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, t] {
      for (std::size_t op = 0; op < kOpsPerThread / 2; ++op) {
        if (t >= 6) {
          db.execute(strings::cat("UPDATE t SET x = x + 1 WHERE id = ", (op % 8) + 1));
        } else {
          // Overlapping pinned views gate the reclamation horizon.
          sqldb::ReadView view = db.read_view();
          (void)view.execute("SELECT x FROM t ORDER BY id");
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Views drained: two passes (ts horizon, then limbo/registration drain)
  // must collapse every chain back to its single live version.
  (void)db.reclaim();
  (void)db.reclaim();
  const sqldb::MvccStatus status = db.mvcc_status();
  EXPECT_EQ(status.active_read_views, 0u);
  EXPECT_GT(status.versions_reclaimed, 2u * (kOpsPerThread / 2) / 2);
  EXPECT_EQ(status.versions_live, 8u);
  EXPECT_EQ(status.retired_pending, 0u);
  EXPECT_EQ(status.limbo_versions, 0u);
  EXPECT_EQ(status.max_chain, 1u);
  // 2 writers × 500 updates all landed.
  const auto sum = db.execute("SELECT x FROM t ORDER BY id");
  std::int64_t total = 0;
  for (const auto& row : sum.rows) total += row[0].as_int();
  EXPECT_EQ(total, static_cast<std::int64_t>(2 * (kOpsPerThread / 2)));
}

TEST(DatabaseConcurrency, PreparedStatementCacheSharedAcrossThreads) {
  sqldb::Database db;
  db.execute("CREATE TABLE t (x INT)");
  db.execute("INSERT INTO t (x) VALUES (1)");
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db] {
      for (std::size_t op = 0; op < kOpsPerThread; ++op)
        (void)db.execute("SELECT x FROM t WHERE x = 1");
    });
  }
  for (auto& thread : threads) thread.join();
  // All threads hit the same cache entry; racing first-misses may parse the
  // same text more than once, but the cache holds exactly one entry for it.
  EXPECT_GE(db.statement_cache_hits(), kThreads * kOpsPerThread - kThreads);
  EXPECT_EQ(db.statement_cache_size(), 3u);
}

/// Threads execute one shared prepared statement — SELECT and INSERT, with
/// bound values — while another thread drops and recreates its table with
/// a different column order. Each execute must either see a table (and
/// read the right column of it, whichever schema it bound to) or fail
/// with LookupError; the rebind must never mix two schemas.
TEST(DatabaseConcurrency, SharedPreparedStatementRebindsAcrossDropAndCreate) {
  sqldb::Database db;
  db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
  db.execute("INSERT INTO t VALUES (1, 'one')");
  const sqldb::Database::PreparedStatement select = db.prepare("SELECT name FROM t WHERE id = ?");
  const sqldb::Database::PreparedStatement insert =
      db.prepare("INSERT INTO t (id, name) VALUES (?, ?)");
  std::atomic<bool> done{false};
  std::atomic<std::size_t> wrong{0}, served{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads - 1; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t op = 0; !done.load() || op < 200; ++op) {
        try {
          if (op % 8 == 0) {
            db.execute(*insert, {static_cast<std::int64_t>(1000 + t * kOpsPerThread + op), "x"});
            continue;
          }
          const sqldb::ResultSet rows = db.execute(*select, {1});
          if (rows.row_count() > 1 || rows.columns != std::vector<std::string>{"name"} ||
              (rows.row_count() == 1 && rows.rows[0][0].to_string() != "one"))
            ++wrong;
          served += rows.row_count();
        } catch (const LookupError&) {
          // The table was gone at this execute's timestamp.
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 100; ++round) {
      db.execute("DROP TABLE t");
      if (round % 2 == 0)
        db.execute("CREATE TABLE t (name TEXT, id INT PRIMARY KEY)");
      else
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, name TEXT)");
      db.execute("INSERT INTO t (id, name) VALUES (1, 'one')");
    }
    done = true;
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GT(served.load(), 0u);
  EXPECT_EQ(db.execute(*select, {1}).rows.at(0).at(0).as_text(), "one");
}

/// Concurrent generate() against concurrent mark_stale(): readers
/// must always get a profile that is byte-identical to a cold build
/// (snapshot semantics — a flush never mutates a profile mid-render).
TEST(GeneratorConcurrency, GenerateRacingInvalidate) {
  const rpm::SynthDistro distro = rpm::make_redhat_release();
  const kickstart::DefaultConfiguration config = kickstart::make_default_configuration(distro);
  const kickstart::Generator generator(config.files, config.graph, &distro.repo);

  const auto config_for = [](const std::string& appliance) {
    kickstart::NodeConfig nc;
    nc.hostname = appliance + "-0-0";
    nc.appliance = appliance;
    nc.ip = Ipv4(10, 255, 255, 254);
    nc.frontend_ip = Ipv4(10, 1, 1, 1);
    nc.distribution_url = "http://10.1.1.1/install/rocks-dist";
    return nc;
  };
  const std::vector<std::string> appliances = {"compute", "frontend", "nfs", "web"};
  // Cold references, rendered before any concurrency.
  std::vector<std::string> expected;
  for (const auto& appliance : appliances)
    expected.push_back(generator.generate_text(config_for(appliance)));

  std::atomic<std::size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        if (t >= 6) {
          generator.mark_stale();
        } else {
          const std::size_t which = (t + op) % appliances.size();
          if (generator.generate_text(config_for(appliances[which])) != expected[which])
            mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  // The invalidators forced real rebuilds throughout.
  EXPECT_GT(generator.profile_cache_misses(), appliances.size());
}

/// The change bus under fire: two writer threads committing (each commit
/// records into the journal and dispatches notifications), three threads
/// churning subscriptions and cursor reads, and one flusher thread driving
/// a dirty-tracked ServiceManager. TSan verifies the journal's leaf
/// mutexes, the shared_ptr callback snapshots, and the per-service atomic
/// dirty flags; the final assertions verify nothing was lost.
TEST(DatabaseConcurrency, JournalSubscribeRacingCommits) {
  sqldb::Database db;
  db.execute("CREATE TABLE nodes (id INT PRIMARY KEY AUTO_INCREMENT, name TEXT)");

  services::ServiceManager manager;
  vfs::FileSystem fs;
  manager.register_service("census", "/etc/census",
                           [](sqldb::Database& db) {
                             return strings::cat(db.execute("SELECT id FROM nodes").row_count(),
                                                 " nodes\n");
                           },
                           {"nodes"});
  manager.attach(db.journal());

  std::atomic<std::uint64_t> callbacks{0};
  constexpr std::size_t kWriters = 2;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (t >= kThreads - kWriters) {
        // Writers: every INSERT journals one record and notifies once.
        for (std::size_t op = 0; op < kOpsPerThread; ++op)
          db.execute(strings::cat("INSERT INTO nodes (name) VALUES ('w", t, "-", op, "')"));
      } else if (t == 0) {
        // Flusher: regenerate whenever the bus marked the service dirty.
        // (One flushing thread — regenerate() is not re-entrant.)
        for (std::size_t op = 0; op < kOpsPerThread / 10; ++op)
          (void)manager.regenerate(db, fs);
      } else {
        // Subscription churn racing the writers' notification snapshots.
        for (std::size_t op = 0; op < kOpsPerThread / 10; ++op) {
          const std::size_t id =
              db.journal().subscribe("nodes", [&callbacks](std::string_view, std::uint64_t) {
                callbacks.fetch_add(1, std::memory_order_relaxed);
              });
          (void)db.since("nodes", db.revision("nodes") / 2);
          db.journal().unsubscribe(id);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every commit journaled exactly one record (CREATE TABLE only truncates).
  EXPECT_EQ(db.journal().records_written(), kWriters * kOpsPerThread);
  EXPECT_EQ(db.revision("nodes"), 1 + kWriters * kOpsPerThread);
  // A final flush settles the census at the true row count.
  (void)manager.regenerate(db, fs);
  EXPECT_EQ(fs.read_file("/etc/census"), strings::cat(kWriters * kOpsPerThread, " nodes\n"));
}

/// Bounded-changelog overflow under concurrent commits: writers register
/// nodes fast enough to blow past a tiny journal capacity while a renderer
/// keeps re-rendering the hosts report through its incremental path. Every
/// overflow makes since() report truncated, which must force a full rebuild
/// — and every render, overflowed or not, must be byte-identical to the
/// from-scratch generator run at the same instant (via a pinned view there
/// is no such instant from the outside, so the renderer thread checks line
/// integrity and the final quiesced render checks bytes).
TEST(DatabaseConcurrency, JournalOverflowForcesIncrementalRebuild) {
  sqldb::Database db;
  kickstart::ensure_cluster_schema(db);
  kickstart::insert_node_row(db, Mac(0x00508BE00000ULL).to_string(), "frontend-0", 1, 0, 0,
                             Ipv4(10, 1, 1, 1).to_string());
  // Capacity far below the commit volume: truncation is guaranteed, not
  // incidental.
  db.journal().set_capacity(8);

  services::IncrementalReport report(services::hosts_report_spec());
  std::atomic<std::size_t> malformed{0};
  constexpr std::size_t kWriters = 4;
  constexpr std::size_t kRows = 200;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kWriters; ++t) {
    threads.emplace_back([&db, t] {
      for (std::size_t op = 0; op < kRows; ++op) {
        const std::size_t n = t * kRows + op;
        kickstart::insert_node_row(
            db, Mac(0x00A0C9000000ULL + n).to_string(),
            strings::cat("compute-", t, "-", op), 2, static_cast<int>(t),
            static_cast<int>(op),
            Ipv4(Ipv4(10, 254, 0, 1).value() + static_cast<std::uint32_t>(n)).to_string());
      }
    });
  }
  threads.emplace_back([&db, &report, &malformed] {
    for (std::size_t op = 0; op < kRows; ++op) {
      // Each render sees *some* committed prefix; every emitted line must be
      // whole (hostname and dotted quad on one line) even when the render
      // straddled a truncation.
      const std::string rendered = report.render(db);
      std::size_t begin = 0;
      while (begin < rendered.size()) {
        std::size_t end = rendered.find('\n', begin);
        if (end == std::string::npos) end = rendered.size();
        const std::string_view line(rendered.data() + begin, end - begin);
        if (!line.empty() && line[0] != '#' &&
            (line.find('\t') == std::string_view::npos ||
             line.find('.') == std::string_view::npos))
          malformed.fetch_add(1);
        begin = end + 1;
      }
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(malformed.load(), 0u);

  // The journal overflowed: a cursor from before the floor is told to
  // rescan rather than handed a gapped delta.
  const auto stale = db.since("nodes", 1);
  EXPECT_TRUE(stale.truncated);
  EXPECT_GT(stale.floor, 1u);

  // Now overflow the window *between* two renders (the race above keeps the
  // renderer's cursor close; here we guarantee it is left behind): the next
  // render must detect truncation, full-rebuild, and still match the
  // from-scratch generator byte for byte.
  (void)report.render(db);  // catch the cursor up
  const std::uint64_t rebuilds_before = report.full_rebuilds();
  for (std::size_t n = 0; n < 16; ++n)
    kickstart::insert_node_row(
        db, Mac(0x00E0810000000ULL + n).to_string(), strings::cat("late-9-", n), 2, 9,
        static_cast<int>(n),
        Ipv4(Ipv4(10, 253, 0, 1).value() + static_cast<std::uint32_t>(n)).to_string());
  EXPECT_EQ(report.render(db), services::generate_hosts(db));
  EXPECT_EQ(report.full_rebuilds(), rebuilds_before + 1);
  // And once back inside the window, deltas resume: one more insert must
  // apply incrementally, not rebuild.
  kickstart::insert_node_row(db, Mac(0x00E0810000100ULL).to_string(), "late-9-16", 2, 9, 16,
                             Ipv4(10, 253, 0, 100).to_string());
  EXPECT_EQ(report.render(db), services::generate_hosts(db));
  EXPECT_EQ(report.full_rebuilds(), rebuilds_before + 1);
  EXPECT_EQ(db.execute("SELECT id FROM nodes").row_count(), 18u + kWriters * kRows);
}

TEST(ServerConcurrency, HandleManyServesWholeBatch) {
  rpm::SynthDistro distro = rpm::make_redhat_release();
  const kickstart::DefaultConfiguration config = kickstart::make_default_configuration(distro);
  sqldb::Database db;
  kickstart::ensure_cluster_schema(db);
  constexpr std::size_t kNodes = 128;
  std::vector<Ipv4> ips;
  for (std::size_t i = 0; i < kNodes; ++i) {
    const Ipv4 ip(Ipv4(10, 255, 255, 254).value() - static_cast<std::uint32_t>(i));
    kickstart::insert_node_row(db, Mac(0x00508BE00000ULL + i).to_string(),
                               strings::cat("compute-0-", i), 2, 0, static_cast<int>(i),
                               ip.to_string());
    ips.push_back(ip);
  }
  // One ringer that cannot resolve: the batch must still serve the rest.
  ips.push_back(Ipv4(10, 9, 9, 9));

  kickstart::KickstartServer server(db, config.files, config.graph, Ipv4(10, 1, 1, 1),
                                    "http://10.1.1.1/install/rocks-dist", &distro.repo);
  const std::string expected = server.handle_request(ips[0]);

  support::ThreadPool pool(8);
  const auto report = server.handle_many(pool, ips);
  EXPECT_EQ(report.served, kNodes);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_FALSE(report.errors.back().empty());
  EXPECT_EQ(report.results[0], expected);
  // Every served kickstart localizes its own hostname, off a shared
  // profile (the header uses DHCP, so the IP itself never appears).
  for (std::size_t i = 0; i < kNodes; ++i)
    EXPECT_NE(report.results[i].find(strings::cat("compute-0-", i)), std::string::npos) << i;
}

}  // namespace
}  // namespace rocks
