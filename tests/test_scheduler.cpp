// The fault-tolerant batch scheduler (DESIGN.md §16): durable queue with
// exactly-once accounting, EASY backfill with the no-starvation bound, the
// shrink valve, requeue-on-node-death under a retry budget, crash recovery
// (stale-row repair + byte-identical resume), reinstall waves with the
// health gate, the attached-cluster drain-not-preempt path, and a mini
// chaos soak (random node kills + mid-finish crashes).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batch/accounting.hpp"
#include "batch/scheduler.hpp"
#include "cluster/cluster.hpp"
#include "netsim/engine.hpp"
#include "sqldb/engine.hpp"
#include "support/crashpoint.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "tools/cluster_tools.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::batch {
namespace {

using sqldb::Database;
using support::CrashError;
using support::CrashPoints;

constexpr const char* kDir = "/state/db";

JobSpec user_job(std::string name, std::size_t nodes, double walltime,
                 std::size_t min_nodes = 0, int max_retries = 3) {
  JobSpec spec;
  spec.name = std::move(name);
  spec.nodes = nodes;
  spec.walltime_seconds = walltime;
  spec.min_nodes = min_nodes;
  spec.max_retries = max_retries;
  return spec;
}

/// Standalone scheduler over a durable database and a bare simulator: the
/// caller plays the cluster (register_node / node_down / node_up).
struct Standalone {
  vfs::FileSystem disk;
  netsim::Simulator sim;
  Database db;
  std::unique_ptr<Scheduler> sched;

  explicit Standalone(std::size_t nodes, SchedulerConfig config = {}) {
    db.open_durable(disk, kDir);
    sched = std::make_unique<Scheduler>(db, sim, config);
    for (std::size_t i = 0; i < nodes; ++i) sched->register_node(host(i));
    sched->resume();
  }
  static std::string host(std::size_t i) { return strings::cat("n", i / 10, i % 10); }
};

class SchedulerTest : public ::testing::Test {
 protected:
  void TearDown() override { CrashPoints::instance().disarm_all(); }
};

// --- the basics --------------------------------------------------------------

TEST_F(SchedulerTest, JobsRunAndLandInAccountingExactlyOnce) {
  Standalone s(4);
  const JobId a = s.sched->submit(user_job("alpha", 2, 100.0));
  const JobId b = s.sched->submit(user_job("beta", 2, 50.0));
  s.sched->drain();
  EXPECT_EQ(s.sched->live_count(), 0u);
  EXPECT_EQ(s.sched->idle_nodes(), 4u);

  const AccountingTotals totals = Accounting::totals(s.db);
  EXPECT_EQ(totals.completed, 2u);
  EXPECT_EQ(totals.cancelled, 0u);
  EXPECT_EQ(totals.duplicate_ids, 0u);

  const auto ra = Accounting::lookup(s.db, a);
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->state, JobState::kComplete);
  EXPECT_EQ(ra->nodes_used, 2u);
  EXPECT_DOUBLE_EQ(ra->started, 0.0);
  EXPECT_DOUBLE_EQ(ra->ended, 100.0);

  const auto rb = Accounting::lookup(s.db, b);
  ASSERT_TRUE(rb.has_value());
  EXPECT_DOUBLE_EQ(rb->ended - rb->started, 50.0);  // both fit side by side
}

TEST_F(SchedulerTest, CancelWorksQueuedAndRunning) {
  Standalone s(2);
  const JobId running = s.sched->submit(user_job("hog", 2, 1000.0));
  const JobId waiting = s.sched->submit(user_job("waiting", 1, 10.0));
  s.sim.run_until(1.0);
  ASSERT_EQ(s.sched->job(running)->state, JobState::kRunning);

  EXPECT_TRUE(s.sched->cancel(waiting));   // queued: plain dequeue
  EXPECT_FALSE(s.sched->cancel(waiting));  // already terminal
  EXPECT_TRUE(s.sched->cancel(running));   // running: releases both nodes
  EXPECT_EQ(s.sched->idle_nodes(), 2u);
  EXPECT_EQ(s.sched->live_count(), 0u);

  const auto record = Accounting::lookup(s.db, running);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->reason, "qdel");
  EXPECT_GE(record->started, 0.0);                              // it did run
  EXPECT_LT(Accounting::lookup(s.db, waiting)->started, 0.0);   // it did not
}

TEST_F(SchedulerTest, UnschedulableJobsCancelIntoAccountingInsteadOfHanging) {
  // Every node vanishes with work queued. drain() must terminate with the
  // jobs accounted, not throw.
  Standalone s(2);
  s.sched->node_down(Standalone::host(0));
  s.sched->node_down(Standalone::host(1));
  const JobId id = s.sched->submit(user_job("doomed", 2, 10.0));
  s.sched->drain();
  const auto record = Accounting::lookup(s.db, id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->reason, "unschedulable");
}

// --- policy ------------------------------------------------------------------

TEST_F(SchedulerTest, EasyBackfillStartsOnlyJobsThatCannotDelayTheHead) {
  Standalone s(5);
  s.sched->submit(user_job("wide", 3, 500.0));
  const JobId head = s.sched->submit(user_job("head", 5, 10.0));
  const JobId small = s.sched->submit(user_job("small", 1, 50.0));
  const JobId late = s.sched->submit(user_job("late", 1, 1000.0));
  s.sim.run_until(1.0);

  // wide runs on 3 of 5; the head (wants all 5) holds a shadow reservation
  // at t=500. small (ends at 50 <= 500) backfills; late (would run past the
  // shadow with no leftover nodes) must wait behind the head.
  EXPECT_EQ(s.sched->job(small)->state, JobState::kRunning);
  EXPECT_EQ(s.sched->job(late)->state, JobState::kQueued);
  EXPECT_EQ(s.sched->job(head)->state, JobState::kQueued);
  s.sched->drain();

  // The head started the instant wide freed its nodes — backfill never
  // moved it — and late went after the head.
  EXPECT_DOUBLE_EQ(Accounting::lookup(s.db, head)->started, 500.0);
  EXPECT_DOUBLE_EQ(Accounting::lookup(s.db, late)->started, 510.0);
  EXPECT_EQ(s.sched->stats().backfilled, 1u);
  EXPECT_EQ(Accounting::totals(s.db).completed, 4u);
}

TEST_F(SchedulerTest, StarvationBoundClosesTheBackfillValve) {
  SchedulerConfig config;
  config.starvation_bound = 30.0;
  Standalone s(2, config);
  s.sched->submit(user_job("long", 1, 100.0));
  const JobId head = s.sched->submit(user_job("head", 2, 10.0));
  std::vector<JobId> smalls;
  for (int i = 0; i < 5; ++i)
    smalls.push_back(s.sched->submit(user_job(strings::cat("s", i), 1, 20.0)));
  s.sched->drain();

  // Two smalls backfilled (head age 0 and 20); at age 40 the valve was
  // closed, so the idle node waited for the head instead of a third small.
  EXPECT_EQ(s.sched->stats().backfilled, 2u);
  EXPECT_DOUBLE_EQ(Accounting::lookup(s.db, head)->started, 100.0);
  EXPECT_GE(Accounting::lookup(s.db, smalls[2])->started, 110.0);
  EXPECT_EQ(Accounting::totals(s.db).completed, 7u);
}

TEST_F(SchedulerTest, ShrinkValveStartsMoldableHeadOnTheIdleSet) {
  SchedulerConfig config;
  config.shrink_after = 100.0;
  Standalone s(4, config);
  s.sched->submit(user_job("big", 2, 1000.0));
  const JobId head = s.sched->submit(user_job("moldable", 4, 50.0, /*min_nodes=*/2));
  s.sched->drain();

  // Only 2 nodes were ever free; after 100 s of head age the moldable job
  // started shrunk on them instead of blocking until t=1000.
  const auto record = Accounting::lookup(s.db, head);
  ASSERT_TRUE(record.has_value());
  EXPECT_DOUBLE_EQ(record->started, 100.0);
  EXPECT_EQ(record->nodes_used, 2u);
  EXPECT_EQ(s.sched->stats().shrunk, 1u);
}

// --- node churn --------------------------------------------------------------

TEST_F(SchedulerTest, NodeDownRequeuesWithBackoffThenBudgetExhausts) {
  Standalone s(2);
  const JobId id = s.sched->submit(user_job("fragile", 2, 100.0, 0, /*max_retries=*/1));
  s.sim.run_until(10.0);
  ASSERT_EQ(s.sched->job(id)->state, JobState::kRunning);

  s.sched->node_down(Standalone::host(0));
  EXPECT_EQ(s.sched->job(id)->state, JobState::kQueued);
  EXPECT_EQ(s.sched->job(id)->retries, 1);
  EXPECT_EQ(s.sched->node_life(Standalone::host(0)), NodeLife::kDown);
  s.sched->node_up(Standalone::host(0));

  // Attempt 1 waits exactly the backoff base (5 s): ineligible at 14.9,
  // restarted at 15.
  s.sim.run_until(14.9);
  EXPECT_EQ(s.sched->job(id)->state, JobState::kQueued);
  s.sim.run_until(16.0);
  ASSERT_EQ(s.sched->job(id)->state, JobState::kRunning);
  EXPECT_DOUBLE_EQ(s.sched->job(id)->started, 15.0);

  // Second loss: the budget (1 retry) is spent — terminal, exactly once.
  s.sched->node_down(Standalone::host(1));
  const auto record = Accounting::lookup(s.db, id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kCancelled);
  EXPECT_EQ(record->reason, "retry budget exhausted");
  EXPECT_EQ(record->retries, 1);
  EXPECT_EQ(s.sched->stats().requeued, 1u);
  EXPECT_EQ(Accounting::totals(s.db).duplicate_ids, 0u);
}

TEST_F(SchedulerTest, HealthGateParksReinstallWavesUntilTheClusterRecovers) {
  SchedulerConfig config;
  config.reinstall_wave = 2;
  config.min_healthy_fraction = 0.9;
  Standalone s(10, config);
  std::vector<std::string> reinstalled;
  SchedulerHooks hooks;
  hooks.reinstall = [&reinstalled](const std::string& host) {
    reinstalled.push_back(host);
  };
  s.sched->set_hooks(std::move(hooks));

  // 8/10 alive: below the 0.9 floor, so the request parks.
  s.sched->health_report(8, 10);
  s.sched->request_reinstall(Standalone::host(2));
  s.sched->request_reinstall(Standalone::host(3));
  s.sched->request_reinstall(Standalone::host(4));
  EXPECT_TRUE(reinstalled.empty());
  EXPECT_EQ(s.sched->node_life(Standalone::host(2)), NodeLife::kPendingReinstall);

  // Recovery opens the gate: a wave of 2 starts, the third stays parked.
  s.sched->health_report(10, 10);
  ASSERT_EQ(reinstalled.size(), 2u);
  EXPECT_EQ(s.sched->node_life(reinstalled[0]), NodeLife::kReinstalling);
  EXPECT_EQ(s.sched->node_life(Standalone::host(4)), NodeLife::kPendingReinstall);

  // A rejoin frees a wave slot for the parked node.
  s.sched->node_up(reinstalled[0]);
  ASSERT_EQ(reinstalled.size(), 3u);
  EXPECT_EQ(reinstalled[2], Standalone::host(4));
  EXPECT_EQ(s.sched->node_life(reinstalled[0]), NodeLife::kIdle);
  EXPECT_EQ(s.sched->stats().reinstalls_finished, 1u);
}

// --- durability --------------------------------------------------------------

TEST_F(SchedulerTest, CrashBetweenAccountingInsertAndDeleteRepairsExactlyOnce) {
  Standalone s(2);
  const JobId a = s.sched->submit(user_job("first", 1, 10.0));
  const JobId b = s.sched->submit(user_job("second", 1, 20.0));
  CrashPoints::instance().arm("sched.finish.between", 1);
  EXPECT_THROW(s.sched->drain(), CrashError);
  CrashPoints::instance().disarm_all();

  // The crash left job a's accounting row AND its live row on disk.
  s.db.wal_flush();
  vfs::FileSystem shadow;
  shadow.copy_tree(s.disk, kDir, kDir);
  netsim::Simulator sim2;
  Database recovered;
  recovered.open_durable(shadow, kDir);
  EXPECT_EQ(recovered.execute("SELECT id FROM sched_accounting").row_count(), 1u);
  EXPECT_EQ(recovered.execute("SELECT id FROM sched_jobs").row_count(), 2u);

  // Recovery repairs by finishing the delete — never by finishing twice.
  Scheduler sched2(recovered, sim2);
  EXPECT_EQ(sched2.stats().stale_rows_repaired, 1u);
  EXPECT_TRUE(Accounting::has(recovered, a));
  sched2.register_node(Standalone::host(0));
  sched2.register_node(Standalone::host(1));
  sched2.resume();
  sched2.drain();

  const AccountingTotals totals = Accounting::totals(recovered);
  EXPECT_EQ(totals.completed, 2u);
  EXPECT_EQ(totals.duplicate_ids, 0u);
  EXPECT_TRUE(Accounting::has(recovered, b));
  EXPECT_EQ(recovered.execute("SELECT id FROM sched_jobs").row_count(), 0u);
}

TEST_F(SchedulerTest, RecoveredQueueIsByteIdenticalAndResumesRunningJobs) {
  Standalone s(4);
  const JobId running = s.sched->submit(user_job("resident", 4, 120.0));
  std::vector<JobId> queued;
  for (int i = 0; i < 4; ++i)
    queued.push_back(s.sched->submit(user_job(strings::cat("q", i), 2, 30.0)));
  s.sim.run_until(50.0);
  ASSERT_EQ(s.sched->job(running)->state, JobState::kRunning);
  const double original_start = s.sched->job(running)->started;

  // The frontend "crashes" here: copy the disk and recover from scratch.
  s.db.wal_flush();
  vfs::FileSystem shadow;
  shadow.copy_tree(s.disk, kDir, kDir);
  Database recovered;
  recovered.open_durable(shadow, kDir);
  // Shadow replay: the recovered image reproduces the writer's state
  // byte-for-byte before any scheduler touches it.
  EXPECT_EQ(recovered.dump_state(), s.db.dump_state());

  netsim::Simulator sim2;
  sim2.run_until(50.0);  // the promoted frontend's clock does not rewind
  Scheduler sched2(recovered, sim2);
  EXPECT_EQ(sched2.live_count(), 5u);
  EXPECT_EQ(sched2.queued_count(), 4u);
  for (std::size_t i = 0; i < 4; ++i) sched2.register_node(Standalone::host(i));
  sched2.resume();
  // The running job was NOT restarted: same epoch start, no duplicate.
  EXPECT_EQ(sched2.job(running)->state, JobState::kRunning);
  EXPECT_DOUBLE_EQ(sched2.job(running)->started, original_start);
  EXPECT_EQ(sched2.stats().started, 0u);

  sched2.drain();
  const AccountingTotals totals = Accounting::totals(recovered);
  EXPECT_EQ(totals.completed, 5u);
  EXPECT_EQ(totals.duplicate_ids, 0u);
  // It finished at its original deadline, with its original start time.
  const auto record = Accounting::lookup(recovered, running);
  EXPECT_DOUBLE_EQ(record->started, original_start);
  EXPECT_DOUBLE_EQ(record->ended, 120.0);
  // New submissions continue the id sequence past everything recovered.
  EXPECT_GT(sched2.submit(user_job("after", 1, 1.0)), queued.back());
}

TEST_F(SchedulerTest, RecoveryRequeuesRunningJobsWhoseNodesDied) {
  Standalone s(2);
  const JobId id = s.sched->submit(user_job("victim", 2, 100.0));
  s.sim.run_until(10.0);
  ASSERT_EQ(s.sched->job(id)->state, JobState::kRunning);

  s.db.wal_flush();
  vfs::FileSystem shadow;
  shadow.copy_tree(s.disk, kDir, kDir);
  Database recovered;
  recovered.open_durable(shadow, kDir);
  netsim::Simulator sim2;
  Scheduler sched2(recovered, sim2);
  // One of the job's nodes did not survive the crash.
  sched2.register_node(Standalone::host(0));
  sched2.resume();
  EXPECT_EQ(sched2.job(id)->state, JobState::kQueued);
  EXPECT_EQ(sched2.job(id)->retries, 1);
  EXPECT_EQ(sched2.stats().requeued, 1u);

  // It reruns shrunk? No — want=2, one node: unschedulable until the node
  // rejoins; bring it back and the job completes exactly once.
  sched2.register_node(Standalone::host(1));
  sched2.kick();
  sched2.drain();
  const auto record = Accounting::lookup(recovered, id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kComplete);
  EXPECT_EQ(record->retries, 1);
  EXPECT_EQ(Accounting::totals(recovered).duplicate_ids, 0u);
}

// --- attached to a live cluster ----------------------------------------------

cluster::ClusterConfig small_cluster_config() {
  cluster::ClusterConfig config;
  config.synth.filler_packages = 20;
  return config;
}

struct Attached {
  std::unique_ptr<cluster::Cluster> cluster;
  std::unique_ptr<Scheduler> sched;

  explicit Attached(int nodes, SchedulerConfig config = {}) {
    cluster = std::make_unique<cluster::Cluster>(small_cluster_config());
    for (int i = 0; i < nodes; ++i) cluster->add_node();
    cluster->integrate_all();
    sched = std::make_unique<Scheduler>(cluster->frontend().db(), cluster->sim(),
                                        config);
    sched->attach(*cluster);
    sched->resume();
  }
};

TEST_F(SchedulerTest, AttachedJobsLaunchRealProcessesAndReinstallDrainsNotPreempts) {
  Attached a(4);
  const JobId id = a.sched->submit(user_job("mdrun", 2, 300.0));
  a.cluster->sim().run_until(a.cluster->sim().now() + 1.0);
  ASSERT_EQ(a.sched->job(id)->state, JobState::kRunning);
  const std::vector<std::string> hosts = a.sched->job(id)->assigned;
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(a.cluster->node(hosts[0])->process_count(), 1u);

  // Section 5: the upgrade "does not disturb any running applications" —
  // the reinstall request drains; the job keeps its node.
  a.sched->request_reinstall(hosts[0]);
  EXPECT_EQ(a.sched->node_life(hosts[0]), NodeLife::kDraining);
  EXPECT_EQ(a.sched->job(id)->state, JobState::kRunning);
  EXPECT_EQ(a.cluster->node(hosts[0])->process_count(), 1u);

  a.sched->drain();
  const auto record = Accounting::lookup(a.sched->db(), id);
  ASSERT_TRUE(record.has_value());
  EXPECT_DOUBLE_EQ(record->ended - record->started, 300.0);  // full walltime

  // The drain completed into a reinstall; the node comes back and rejoins.
  a.cluster->sim().run_until(a.cluster->sim().now() + 20000.0);
  EXPECT_EQ(a.cluster->node(hosts[0])->install_count(), 2);
  EXPECT_EQ(a.sched->node_life(hosts[0]), NodeLife::kIdle);
  EXPECT_EQ(a.sched->stats().drains_started, 1u);
  EXPECT_EQ(a.sched->stats().reinstalls_finished, 1u);

  // attach() registered its durable triggers exactly once.
  std::set<std::string> names;
  for (const auto& status : a.cluster->triggers().list()) names.insert(status.spec.name);
  EXPECT_TRUE(names.contains("sched-node-down"));
  EXPECT_TRUE(names.contains("sched-health-wave"));
}

TEST_F(SchedulerTest, ReinstallAllRunsInBoundedWaves) {
  SchedulerConfig config;
  config.reinstall_wave = 2;
  Attached a(4, config);
  a.sched->request_reinstall_all();
  std::size_t reinstalling = 0, pending = 0;
  for (cluster::Node* node : a.cluster->nodes()) {
    const auto life = a.sched->node_life(node->hostname());
    if (life == NodeLife::kReinstalling) ++reinstalling;
    if (life == NodeLife::kPendingReinstall) ++pending;
  }
  EXPECT_EQ(reinstalling, 2u);  // the wave cap holds
  EXPECT_EQ(pending, 2u);

  // Long enough for both waves; run_until alone would stop between waves.
  a.cluster->sim().run_until(a.cluster->sim().now() + 40000.0);
  for (cluster::Node* node : a.cluster->nodes()) {
    EXPECT_EQ(node->install_count(), 2) << node->hostname();
    EXPECT_EQ(a.sched->node_life(node->hostname()), NodeLife::kIdle);
  }
  EXPECT_EQ(a.sched->stats().reinstalls_started, 4u);
  EXPECT_EQ(a.sched->stats().reinstalls_finished, 4u);
  EXPECT_TRUE(a.cluster->consistent());
}

TEST_F(SchedulerTest, AttachedNodeDeathRequeuesThroughTheEventSpine) {
  Attached a(4);
  const JobId id = a.sched->submit(user_job("survivor", 2, 100.0));
  netsim::Simulator& sim = a.cluster->sim();
  sim.run_until(sim.now() + 1.0);
  ASSERT_EQ(a.sched->job(id)->state, JobState::kRunning);
  const std::string victim = a.sched->job(id)->assigned[0];

  // Power loss: kNodeState "off" reaches the scheduler via the bus and the
  // job requeues onto the surviving nodes.
  a.cluster->node(victim)->power_off();
  sim.run_until(sim.now() + 30.0);
  EXPECT_EQ(a.sched->node_life(victim), NodeLife::kDown);

  a.sched->drain();
  const auto record = Accounting::lookup(a.sched->db(), id);
  ASSERT_TRUE(record.has_value());
  EXPECT_EQ(record->state, JobState::kComplete);
  EXPECT_EQ(record->retries, 1);
  EXPECT_EQ(a.sched->stats().requeued, 1u);
  // The rerun landed only on living nodes.
  for (const std::string& host : {victim})
    EXPECT_FALSE(a.cluster->node(host)->is_running());
  EXPECT_EQ(Accounting::totals(a.sched->db()).duplicate_ids, 0u);
}

TEST_F(SchedulerTest, JobsReportRendersForOperators) {
  Attached a(4);
  a.sched->submit(user_job("render", 2, 50.0));
  a.sched->drain();
  const std::string report = tools::ClusterTools::jobs_report(*a.sched);
  EXPECT_NE(report.find("batch queue:"), std::string::npos);
  EXPECT_NE(report.find("accounting: 1 completed"), std::string::npos);
  EXPECT_NE(report.find("render"), std::string::npos);
  EXPECT_NE(report.find("0 duplicate ids"), std::string::npos);
}

// --- chaos soak --------------------------------------------------------------

TEST_F(SchedulerTest, ChaosSoakSurvivesNodeKillsAndMidFinishCrashes) {
  // Random node kills during execution plus two frontend crashes landed
  // exactly between the accounting INSERT and the live-row DELETE. Every
  // job must end in the ledger exactly once, no matter what.
  constexpr std::size_t kNodes = 8;
  constexpr int kJobs = 60;
  Rng rng(0xC4A05);

  vfs::FileSystem disk;
  auto sim = std::make_unique<netsim::Simulator>();
  auto db = std::make_unique<Database>();
  db->open_durable(disk, kDir);
  auto sched = std::make_unique<Scheduler>(*db, *sim);
  for (std::size_t i = 0; i < kNodes; ++i) sched->register_node(Standalone::host(i));
  sched->resume();

  std::vector<JobSpec> specs;
  for (int i = 0; i < kJobs; ++i)
    specs.push_back(user_job(strings::cat("chaos", i),
                             1 + static_cast<std::size_t>(rng.next_below(3)),
                             5.0 + static_cast<double>(rng.next_below(45)),
                             0, /*max_retries=*/3));
  sched->submit_batch(specs);

  // Churn: every 7 simulated seconds, one random node dies and one random
  // node comes back.
  std::function<void()> churn = [&] {
    sched->node_down(Standalone::host(rng.next_below(kNodes)));
    sched->node_up(Standalone::host(rng.next_below(kNodes)));
    if (sched->live_count() > 0) sim->schedule(7.0, churn);
  };
  sim->schedule(7.0, churn);

  int crashes = 0;
  CrashPoints::instance().arm("sched.finish.between", 10);
  for (;;) {
    try {
      sched->drain();
      break;
    } catch (const CrashError&) {
      ++crashes;
      CrashPoints::instance().disarm_all();
      // Frontend restart: recover from the disk image, re-register every
      // node (operator revives the dead ones), resume, carry on.
      db->wal_flush();
      vfs::FileSystem next_disk;
      next_disk.copy_tree(disk, kDir, kDir);
      disk = std::move(next_disk);
      sched.reset();
      db = std::make_unique<Database>();
      db->open_durable(disk, kDir);
      sim = std::make_unique<netsim::Simulator>();
      sched = std::make_unique<Scheduler>(*db, *sim);
      for (std::size_t i = 0; i < kNodes; ++i) {
        sched->register_node(Standalone::host(i));
        sched->node_up(Standalone::host(i));
      }
      sched->resume();
      sim->schedule(7.0, churn);
      if (crashes == 1) CrashPoints::instance().arm("sched.finish.between", 10);
    }
  }
  EXPECT_EQ(crashes, 2);

  const AccountingTotals totals = Accounting::totals(*db);
  EXPECT_EQ(totals.completed + totals.cancelled, static_cast<std::uint64_t>(kJobs));
  EXPECT_EQ(totals.duplicate_ids, 0u);
  for (JobId id = 1; id <= static_cast<JobId>(kJobs); ++id)
    EXPECT_TRUE(Accounting::has(*db, id)) << "job " << id << " missing from the ledger";
  EXPECT_EQ(sched->live_count(), 0u);
}

// --- concurrency (TSan) ------------------------------------------------------

TEST_F(SchedulerTest, ConcurrentObserversDuringSchedulingStayCoherent) {
  // The scheduler mutates its queue and the MVCC database on the simulator
  // thread while observer threads hammer qstat / totals / job lookups —
  // the cluster-status --jobs path against a live scheduler.
  Standalone s(4);
  std::vector<JobSpec> specs;
  for (int i = 0; i < 50; ++i)
    specs.push_back(user_job(strings::cat("par", i), 1 + (i % 3), 5.0 + i));
  s.sched->submit_batch(specs);

  std::atomic<bool> done{false};
  std::vector<std::thread> observers;
  for (int t = 0; t < 2; ++t)
    observers.emplace_back([&s, &done] {
      while (!done.load()) {
        (void)s.sched->qstat(8);
        (void)s.sched->running_count();
        (void)s.sched->job(1);
        (void)Accounting::totals(s.db).completed;
      }
    });
  s.sched->drain();
  done.store(true);
  for (auto& thread : observers) thread.join();

  const AccountingTotals totals = Accounting::totals(s.db);
  EXPECT_EQ(totals.completed, 50u);
  EXPECT_EQ(totals.duplicate_ids, 0u);
}

}  // namespace
}  // namespace rocks::batch
