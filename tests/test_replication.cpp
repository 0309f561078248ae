// The replicated control plane (DESIGN.md §12): shipment codec, WAL
// shipping and byte-identical follower replay, epoch fencing, commit modes
// (quorum-ack vs async loss windows), reconnect backoff, ship-log overflow
// re-bootstrap, the leader-kill chaos sweep with shadow-replay verification,
// kickstart continuity across a failover, and the operator reports.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "batch/accounting.hpp"
#include "batch/scheduler.hpp"
#include "cluster/cluster.hpp"
#include "kickstart/server.hpp"
#include "registration_churn.hpp"
#include "netsim/fault.hpp"
#include "replication/control_plane.hpp"
#include "replication/follower.hpp"
#include "replication/shipment.hpp"
#include "sqldb/wal.hpp"
#include "support/crashpoint.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "tools/cluster_tools.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/path.hpp"

namespace rocks {
namespace {

using replication::Ack;
using replication::CommitMode;
using replication::ControlPlane;
using replication::ControlPlaneConfig;
using replication::Follower;
using replication::FollowerConfig;
using replication::Shipment;
using sqldb::Database;
using support::CrashError;
using support::CrashPoints;

constexpr const char* kDir = "/state/db";

class ReplicationTest : public ::testing::Test {
 protected:
  void TearDown() override { CrashPoints::instance().disarm_all(); }
};

/// A bare durable leader database with a tiny schema.
struct BareLeader {
  vfs::FileSystem disk;
  Database db;
  BareLeader() {
    db.open_durable(disk, kDir);
    db.execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, v TEXT)");
  }
  void insert(const std::string& v) {
    db.execute("INSERT INTO t (v) VALUES ('" + v + "')");
  }
};

// --- codec -------------------------------------------------------------------

TEST_F(ReplicationTest, ShipmentRoundTripsAndRejectsTruncation) {
  Shipment shipment;
  shipment.epoch = 7;
  const std::string binary("\x00\x01z", 3);  // groups are views: keep the bytes alive
  shipment.groups = {"alpha", binary, ""};
  const std::string wire = replication::encode_shipment(shipment);
  const Shipment back = replication::decode_shipment(wire);
  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.groups, shipment.groups);
  EXPECT_THROW(replication::decode_shipment(wire.substr(0, wire.size() - 2)), ParseError);
}

// --- shipping + replay -------------------------------------------------------

TEST_F(ReplicationTest, FollowerReplaysShippedCommitsByteIdentically) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim);
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});

  for (int i = 0; i < 10; ++i) leader.insert("row");
  leader.db.execute("UPDATE t SET v = 'updated' WHERE id = 3");
  leader.db.execute("DELETE FROM t WHERE id = 7");
  cp.pump();

  Follower& follower = cp.follower(0);
  EXPECT_EQ(follower.last_lsn(), leader.db.last_lsn());
  EXPECT_EQ(follower.db().dump_state(), leader.db.dump_state());
  EXPECT_GT(follower.shipments_applied(), 0u);
  const auto status = cp.status();
  EXPECT_EQ(status.followers[0].acked_lsn, leader.db.last_lsn());
  EXPECT_GT(status.shipped_groups, 0u);

  // Incremental: one more statement ships one more group, stays identical.
  leader.insert("tail");
  cp.pump();
  EXPECT_EQ(follower.db().dump_state(), leader.db.dump_state());
}

TEST_F(ReplicationTest, FollowerWalIsByteIdenticalToTheLeaders) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim);
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});

  for (int i = 0; i < 6; ++i) leader.insert("row");
  cp.pump();
  leader.db.execute("UPDATE t SET v = 'updated' WHERE id > 2");  // a multi-record group
  leader.db.execute("DELETE FROM t WHERE id = 4");
  cp.pump();
  leader.db.execute("DELETE FROM t WHERE id < 3");
  leader.insert("tail");
  cp.pump();

  // Shipped frames are appended as written: the replica's log is the
  // leader's, byte for byte.
  leader.db.wal_flush();
  const std::string leader_wal = leader.db.wal_image();
  ASSERT_FALSE(leader_wal.empty());
  EXPECT_EQ(cp.follower(0).db().wal_image(), leader_wal);
  EXPECT_EQ(cp.follower(0).db().dump_state(), leader.db.dump_state());
}

TEST_F(ReplicationTest, LeadShipsTheUnflushedGroupCommitTail) {
  netsim::Simulator sim;
  BareLeader leader;
  leader.db.set_wal_group_commit(8);
  for (int i = 0; i < 3; ++i) leader.insert("buffered");  // not yet on disk
  ControlPlane cp(sim, ControlPlaneConfig{.mode = CommitMode::kQuorum});
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  leader.insert("after lead");

  // The ship log holds every committed statement, so the first barrier
  // ships a gapless stream: no refusal, no snapshot bootstrap.
  EXPECT_NO_THROW(cp.commit_barrier());
  const auto status = cp.status();
  EXPECT_EQ(status.quorum_failures, 0u);
  EXPECT_EQ(status.bootstraps, 0u);
  EXPECT_EQ(cp.follower(0).last_lsn(), leader.db.last_lsn());
  EXPECT_EQ(cp.follower(0).db().dump_state(), leader.db.dump_state());
}

TEST_F(ReplicationTest, DuplicateDeliveryIsIdempotent) {
  netsim::Simulator sim;
  BareLeader leader;
  leader.insert("once");
  leader.db.wal_flush();
  const auto groups = sqldb::wal_groups_after(leader.db.wal_image(), 0);
  ASSERT_FALSE(groups.empty());

  Follower follower(sim, nullptr, FollowerConfig{.name = "replica-a"});
  Shipment shipment;
  shipment.epoch = 1;
  for (const auto& group : groups) shipment.groups.push_back(group.bytes);
  const Ack first = follower.apply_shipment(shipment);
  ASSERT_TRUE(first.accepted) << first.error;
  const Ack second = follower.apply_shipment(shipment);  // redelivery
  EXPECT_TRUE(second.accepted) << second.error;
  EXPECT_EQ(second.last_lsn, first.last_lsn);
  EXPECT_EQ(follower.db().dump_state(), leader.db.dump_state());
}

TEST_F(ReplicationTest, FollowerFencesLocalWritesWithLeaderHint) {
  netsim::Simulator sim;
  Follower follower(sim, nullptr, FollowerConfig{.name = "replica-a"});
  try {
    follower.db().execute("CREATE TABLE t (id INT)");
    FAIL() << "a follower must fence local DML";
  } catch (const StateError& error) {
    EXPECT_NE(std::string(error.what()).find("read-only replica"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("leader"), std::string::npos);
  }
  // Reads are the follower's job: SELECT still works once state arrives.
  EXPECT_NO_THROW(follower.db().table_names());
}

// --- epoch fencing -----------------------------------------------------------

TEST_F(ReplicationTest, EpochsAdoptForwardAndFenceBackward) {
  netsim::Simulator sim;
  Follower follower(sim, nullptr, FollowerConfig{.name = "replica-a"});
  EXPECT_TRUE(follower.apply_shipment(Shipment{5, {}}).accepted);
  EXPECT_EQ(follower.epoch(), 5u);
  const Ack fenced = follower.apply_shipment(Shipment{4, {}});
  EXPECT_FALSE(fenced.accepted);
  EXPECT_NE(fenced.error.find("fenced"), std::string::npos);
  EXPECT_EQ(follower.fenced(), 1u);
  EXPECT_EQ(follower.epoch(), 5u);  // a stale leader cannot regress the epoch
}

TEST_F(ReplicationTest, ResurrectedStaleLeaderCannotCommitAnywhere) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim);
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  cp.add_follower(FollowerConfig{.name = "replica-b"});
  leader.insert("committed");
  cp.pump();

  cp.kill_leader();
  EXPECT_FALSE(cp.has_leader());
  const std::string promoted = cp.promote();
  EXPECT_EQ(cp.epoch(), 2u);
  EXPECT_EQ(promoted, "replica-a");  // equal LSNs: deterministic name tiebreak

  // The old leader rises from the dead and re-ships at its old epoch —
  // with real data, not just a heartbeat.
  leader.insert("zombie write");
  leader.db.wal_flush();
  const auto groups = sqldb::wal_groups_after(leader.db.wal_image(), 0);
  Shipment stale;
  stale.epoch = 1;
  stale.groups.push_back(groups.back().bytes);
  const std::uint64_t lsn_before = cp.follower(1).last_lsn();
  const auto acks = cp.broadcast(stale);
  ASSERT_EQ(acks.size(), 1u);  // the promoted leader is no longer a follower
  EXPECT_FALSE(acks[0].accepted);
  EXPECT_NE(acks[0].error.find("fenced"), std::string::npos);
  EXPECT_EQ(cp.follower(1).last_lsn(), lsn_before);  // nothing moved
}

// --- commit modes ------------------------------------------------------------

TEST_F(ReplicationTest, QuorumBarrierRefusesWithoutMajority) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim, ControlPlaneConfig{.mode = CommitMode::kQuorum});
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  cp.add_follower(FollowerConfig{.name = "replica-b"});
  leader.insert("first");
  cp.commit_barrier();  // both reachable: majority trivially holds

  cp.link(0).sever();
  cp.link(1).sever();
  leader.insert("unackable");
  EXPECT_THROW(cp.commit_barrier(), UnavailableError);
  EXPECT_EQ(cp.status().quorum_failures, 1u);

  // One follower back is a majority (leader + 1 of 2 followers = 2 of 3).
  cp.link(0).restore();
  sim.run_until(sim.now() + 120.0);  // past the reconnect backoff
  EXPECT_NO_THROW(cp.commit_barrier());
  EXPECT_EQ(cp.follower(0).last_lsn(), leader.db.last_lsn());
}

TEST_F(ReplicationTest, QuorumAckLosesNoAcknowledgedCommit) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim, ControlPlaneConfig{.mode = CommitMode::kQuorum});
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  cp.add_follower(FollowerConfig{.name = "replica-b"});
  for (int i = 0; i < 8; ++i) {
    leader.insert("acked");
    cp.commit_barrier();
  }
  const std::uint64_t acked_lsn = leader.db.last_lsn();
  leader.insert("never acked");  // in the leader's WAL, never barriered

  cp.kill_leader();
  // The elected follower's replayed position is exactly the acked LSN...
  EXPECT_EQ(cp.follower(0).last_lsn(), acked_lsn);
  cp.promote();
  // ...and after promotion (which commits its own frontend bootstrap at the
  // new epoch) every acknowledged commit survives; only the unacked tail is
  // gone.
  Database& promoted = cp.follower(0).db();
  EXPECT_EQ(promoted.execute("SELECT id FROM t WHERE v = 'acked'").row_count(), 8u);
  EXPECT_EQ(promoted.execute("SELECT id FROM t WHERE v = 'never acked'").row_count(), 0u);
}

TEST_F(ReplicationTest, AsyncModeLossWindowIsTheUnshippedTail) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim, ControlPlaneConfig{.mode = CommitMode::kAsync});
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  for (int i = 0; i < 5; ++i) {
    leader.insert("shipped");
    cp.commit_barrier();  // async: returns immediately, ships nothing
  }
  cp.pump();  // the background shipper catches up here...
  const std::uint64_t shipped_lsn = leader.db.last_lsn();
  for (int i = 0; i < 3; ++i) {
    leader.insert("windowed");
    cp.commit_barrier();
  }
  cp.kill_leader();
  // ...and the loss window is exactly the commits after the last pump: three
  // statements, one LSN each.
  EXPECT_EQ(cp.follower(0).last_lsn(), shipped_lsn);
  EXPECT_EQ(leader.db.last_lsn() - cp.follower(0).last_lsn(), 3u);
  cp.promote();
  Database& promoted = cp.follower(0).db();
  EXPECT_EQ(promoted.execute("SELECT id FROM t WHERE v = 'shipped'").row_count(), 5u);
  EXPECT_EQ(promoted.execute("SELECT id FROM t WHERE v = 'windowed'").row_count(), 0u);
}

// --- reconnect backoff -------------------------------------------------------

TEST_F(ReplicationTest, SeveredLinkBacksOffThenCatchesUp) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim);
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  leader.insert("synced");
  cp.pump();
  ASSERT_EQ(cp.follower(0).last_lsn(), leader.db.last_lsn());

  cp.link(0).sever();
  leader.insert("while dark");
  cp.pump();  // delivery refused: attempt 1, retry in exactly base seconds
  EXPECT_FALSE(cp.status().followers[0].connected);
  EXPECT_EQ(cp.link(0).stats().refusals, 1u);
  cp.pump();  // before retry_at: skipped, no extra refusal
  EXPECT_EQ(cp.link(0).stats().refusals, 1u);

  sim.run_until(5.0);  // the BackoffPolicy base for attempt 1
  cp.pump();           // attempt 2 fails; delay doubles (plus jitter)
  EXPECT_EQ(cp.link(0).stats().refusals, 2u);

  cp.link(0).restore();
  sim.run_until(30.0);  // past any jittered second-attempt delay
  cp.pump();
  const auto status = cp.status();
  EXPECT_TRUE(status.followers[0].connected);
  EXPECT_EQ(status.followers[0].reconnects, 1u);
  EXPECT_EQ(cp.follower(0).db().dump_state(), leader.db.dump_state());
}

TEST_F(ReplicationTest, FaultInjectorCutsAndRestoresLinksOnSchedule) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim);
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  cp.start_pump_timer(1.0);

  netsim::FaultPlan plan;
  plan.link_cuts.push_back({.at = 2.0, .link = 0, .restore_after = 90.0});
  netsim::FaultInjector faults(sim, plan);
  faults.wire_links(cp.links());
  faults.arm();

  // Commits land while the link is down; the pump timer keeps retrying on
  // its backoff and drains everything once the cut heals.
  for (int i = 0; i < 6; ++i)
    sim.schedule(1.5 + i, [&leader, i] { leader.insert("burst"); });
  sim.run_until(200.0);
  cp.stop_pump_timer();

  EXPECT_EQ(faults.stats().link_cuts, 1u);
  EXPECT_EQ(faults.stats().link_restores, 1u);
  EXPECT_GT(cp.link(0).stats().refusals, 0u);
  const auto status = cp.status();
  EXPECT_TRUE(status.followers[0].connected);
  EXPECT_GE(status.followers[0].reconnects, 1u);
  EXPECT_EQ(cp.follower(0).db().dump_state(), leader.db.dump_state());
}

// --- ship-log overflow -------------------------------------------------------

TEST_F(ReplicationTest, LogOverflowForcesSnapshotBootstrap) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim, ControlPlaneConfig{.max_log_groups = 4});
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  leader.insert("early");
  cp.pump();
  ASSERT_EQ(cp.follower(0).last_lsn(), leader.db.last_lsn());

  cp.link(0).sever();
  for (int i = 0; i < 20; ++i) leader.insert("flood");  // evicts far past the cursor
  cp.link(0).restore();
  sim.run_until(sim.now() + 120.0);
  cp.pump();

  const auto status = cp.status();
  EXPECT_GT(status.log_evictions, 0u);
  EXPECT_GE(status.bootstraps, 1u);
  EXPECT_EQ(cp.follower(0).bootstraps(), 1u);
  EXPECT_EQ(cp.follower(0).db().dump_state(), leader.db.dump_state());

  // The bootstrap left a durable replica: its own recovery reproduces it.
  vfs::FileSystem shadow;
  shadow.copy_tree(cp.follower(0).disk(), kDir, kDir);
  Database replayed;
  replayed.open_durable(shadow, kDir);
  EXPECT_EQ(replayed.dump_state(), leader.db.dump_state());
}

// --- the chaos drill ---------------------------------------------------------

cluster::ClusterConfig durable_config(vfs::FileSystem& state) {
  cluster::ClusterConfig config;
  config.synth.filler_packages = 20;
  config.frontend.state_fs = &state;
  return config;
}

TEST_F(ReplicationTest, LeaderKillSweepNeverLosesAckedRegistrations) {
  // Kill the leader at every registered crash point of the registration
  // path — including the ship loop itself — then promote and prove the
  // acked batch survived, byte-identically, and the old leader is fenced.
  const std::vector<std::pair<std::string, int>> points = {
      {"insert_ethers.batch", 3}, {"wal.flush.before", 1}, {"wal.flush.torn", 1},
      {"wal.flush.after", 1},     {"replication.ship", 1},
  };
  for (const auto& [point, countdown] : points) {
    SCOPED_TRACE(point);
    auto& crash = CrashPoints::instance();
    crash.disarm_all();

    vfs::FileSystem state;
    cluster::Cluster cluster(durable_config(state));
    auto& frontend = cluster.frontend();
    ControlPlane cp(cluster.sim(), ControlPlaneConfig{.mode = CommitMode::kQuorum});
    cp.lead(frontend.db(), "frontend-0");
    cp.add_follower(FollowerConfig{.name = "replica-a"});
    cp.add_follower(FollowerConfig{.name = "replica-b", .ip = Ipv4{10, 1, 1, 3}});
    cp.pump();  // followers absorb the bootstrapped schema + frontend row
    frontend.set_commit_barrier([&cp] { cp.commit_barrier(); });

    // Chunk A: registered AND acknowledged (the barrier returned).
    std::vector<Mac> acked_macs;
    for (int i = 0; i < 4; ++i) acked_macs.push_back(Mac{0x00508BA00000ULL + i});
    ASSERT_EQ(cluster.insert_ethers().register_batch(acked_macs), 4);

    // Chunk B: the frontend dies somewhere inside the burst.
    std::vector<Mac> doomed_macs;
    for (int i = 0; i < 4; ++i) doomed_macs.push_back(Mac{0x00508BB00000ULL + i});
    crash.arm(point, countdown);
    EXPECT_THROW(cluster.insert_ethers().register_batch(doomed_macs), CrashError);
    crash.disarm_all();

    cp.kill_leader();
    const std::string promoted_name = cp.promote();
    EXPECT_EQ(cp.epoch(), 2u);
    Follower& promoted = cp.follower(promoted_name == "replica-a" ? 0 : 1);
    Follower& remaining = cp.follower(promoted_name == "replica-a" ? 1 : 0);
    EXPECT_TRUE(promoted.leader());

    // Every acknowledged registration is on the promoted leader.
    for (const Mac& mac : acked_macs)
      EXPECT_EQ(promoted.db()
                    .execute("SELECT id FROM nodes WHERE mac = '" + mac.to_string() + "'")
                    .row_count(),
                1u)
          << mac.to_string();

    // Shadow replay: recovering the promoted follower's disk from scratch
    // reproduces its state byte-for-byte — what it acked is truly durable.
    promoted.db().wal_flush();
    vfs::FileSystem shadow;
    shadow.copy_tree(promoted.disk(), kDir, kDir);
    Database replayed;
    replayed.open_durable(shadow, kDir);
    EXPECT_EQ(replayed.dump_state(), promoted.db().dump_state());

    // The resurrected stale leader is fenced everywhere, with no state
    // change anywhere.
    frontend.db().wal_flush();
    const auto groups = sqldb::wal_groups_after(frontend.db().wal_image(), 0);
    ASSERT_FALSE(groups.empty());
    Shipment stale;
    stale.epoch = 1;
    stale.groups.push_back(groups.back().bytes);
    const std::uint64_t before = remaining.last_lsn();
    for (const Ack& ack : cp.broadcast(stale)) {
      EXPECT_FALSE(ack.accepted);
      EXPECT_NE(ack.error.find("fenced"), std::string::npos);
    }
    EXPECT_EQ(remaining.last_lsn(), before);

    // Life goes on: the promoted leader commits under quorum and the
    // remaining follower replays it.
    kickstart::insert_node_row(promoted.db(), "00:50:8b:ff:00:01", "compute-9-9", 2, 9, 9,
                               "10.255.9.9");
    cp.commit_barrier();
    EXPECT_EQ(remaining.db()
                  .execute("SELECT id FROM nodes WHERE name = 'compute-9-9'")
                  .row_count(),
              1u);
  }
}

// --- failover install continuity ---------------------------------------------

TEST_F(ReplicationTest, PromotedFollowerServesKickstartAndInstallsFinish) {
  vfs::FileSystem state;
  cluster::Cluster cluster(durable_config(state));
  auto& frontend = cluster.frontend();
  ControlPlane cp(cluster.sim(), ControlPlaneConfig{.mode = CommitMode::kQuorum});
  cp.lead(frontend.db(), "frontend-0");
  FollowerConfig config;
  config.name = "frontend-1";
  config.syslog = &cluster.syslog();
  cp.add_follower(config, &cluster.distro());  // a full serving replica
  cp.pump();
  frontend.set_commit_barrier([&cp] { cp.commit_barrier(); });

  for (int i = 0; i < 3; ++i) cluster.add_node();
  cluster.integrate_all();
  for (cluster::Node* node : cluster.nodes()) ASSERT_TRUE(node->is_running());
  const auto fingerprint = cluster.nodes()[0]->software_fingerprint();

  // Reinstall everything; the frontend dies while the nodes are still
  // booting into the installer.
  for (cluster::Node* node : cluster.nodes()) cluster.shoot_node(node->hostname());
  cluster.sim().run_until(cluster.sim().now() + 30.0);
  cp.kill_leader();
  frontend.set_commit_barrier({});
  frontend.kickstart_server().set_availability_probe([] { return false; });

  const std::string promoted = cp.promote();
  EXPECT_EQ(promoted, "frontend-1");
  Follower& follower = cp.follower(0);
  // The follower's replicated database answers the CGI during the failover.
  for (cluster::Node* node : cluster.nodes()) {
    const std::string profile = follower.kickstart_server().handle_request(node->ip());
    EXPECT_NE(profile.find(node->hostname()), std::string::npos);
  }
  // Re-point the installing nodes at the promoted frontend; their next
  // DHCP/kickstart attempt lands there — no power cycle needed.
  for (cluster::Node* node : cluster.nodes()) node->repoint(follower.environment());

  cluster.run_until_stable();
  for (cluster::Node* node : cluster.nodes()) {
    EXPECT_TRUE(node->is_running()) << node->hostname();
    EXPECT_EQ(node->install_count(), 2);
    // Same distribution, same package set: the promoted frontend installs
    // exactly what the dead one would have.
    EXPECT_EQ(node->software_fingerprint(), fingerprint);
  }
}

// --- scheduler failover ------------------------------------------------------

TEST_F(ReplicationTest, PromotedFollowerResumesSchedulerWithoutLosingOrDoublingJobs) {
  // The batch queue lives in frontend tables, so it rides the same WAL
  // shipping as everything else: kill the leader mid-workload, promote, and
  // a scheduler over the promoted database resumes the exact committed
  // queue — the running job keeps its original start (never started twice),
  // every queued job eventually runs, and the ledger stays exactly-once.
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim, ControlPlaneConfig{.mode = CommitMode::kQuorum});
  cp.lead(leader.db, "frontend-0");
  cp.add_follower(FollowerConfig{.name = "frontend-1"});
  cp.pump();

  auto hostname = [](std::size_t i) { return strings::cat("n0", i); };
  auto sched = std::make_unique<batch::Scheduler>(leader.db, sim);
  for (std::size_t i = 0; i < 4; ++i) sched->register_node(hostname(i));
  sched->resume();

  batch::JobSpec wide;
  wide.name = "resident";
  wide.nodes = 4;
  wide.walltime_seconds = 120.0;
  const batch::JobId resident = sched->submit(wide);
  std::vector<batch::JobId> queued;
  for (int i = 0; i < 4; ++i) {
    batch::JobSpec spec;
    spec.name = strings::cat("q", i);
    spec.nodes = 2;
    spec.walltime_seconds = 30.0;
    queued.push_back(sched->submit(spec));
  }
  sim.run_until(50.0);
  ASSERT_EQ(sched->job(resident)->state, batch::JobState::kRunning);
  const double original_start = sched->job(resident)->started;
  cp.pump();  // the committed queue is on the follower

  // The frontend process dies mid-run: its pending completion events die
  // with it, and the follower takes over.
  cp.kill_leader();
  sched.reset();
  const std::string promoted = cp.promote();
  EXPECT_EQ(promoted, "frontend-1");
  Database& pdb = cp.follower(0).db();
  EXPECT_EQ(pdb.execute("SELECT id FROM sched_jobs").row_count(), 5u);

  batch::Scheduler sched2(pdb, sim);
  EXPECT_EQ(sched2.live_count(), 5u);
  for (std::size_t i = 0; i < 4; ++i) sched2.register_node(hostname(i));
  sched2.resume();
  // Resumed, not restarted: same run, same original start timestamp.
  EXPECT_EQ(sched2.job(resident)->state, batch::JobState::kRunning);
  EXPECT_DOUBLE_EQ(sched2.job(resident)->started, original_start);
  EXPECT_EQ(sched2.stats().started, 0u);

  sched2.drain();
  const batch::AccountingTotals totals = batch::Accounting::totals(pdb);
  EXPECT_EQ(totals.completed, 5u);
  EXPECT_EQ(totals.cancelled, 0u);
  EXPECT_EQ(totals.duplicate_ids, 0u);
  const auto record = batch::Accounting::lookup(pdb, resident);
  ASSERT_TRUE(record.has_value());
  EXPECT_DOUBLE_EQ(record->started, original_start);
  EXPECT_DOUBLE_EQ(record->ended, 120.0);  // the original deadline held
  for (batch::JobId id : queued) EXPECT_TRUE(batch::Accounting::has(pdb, id));
}

// --- concurrency (TSan) ------------------------------------------------------

TEST_F(ReplicationTest, ConcurrentReadsAndShippingStayCoherent) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim);
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  cp.pump();

  std::vector<std::thread> threads;
  // Writers commit against the leader (the WAL sink runs under its
  // exclusive lock, feeding the ship log from both threads)...
  for (int w = 0; w < 2; ++w)
    threads.emplace_back([&leader, w] {
      for (int i = 0; i < 50; ++i) leader.insert(strings::cat("w", w, "-", i));
    });
  // ...readers hammer the follower's SELECT path...
  std::atomic<bool> done{false};
  for (int r = 0; r < 2; ++r)
    threads.emplace_back([&cp, &done] {
      while (!done.load()) {
        if (cp.follower(0).db().has_table("t"))
          (void)cp.follower(0).db().execute("SELECT id FROM t").row_count();
      }
    });
  // ...while the main thread pumps shipments into it.
  for (int i = 0; i < 200; ++i) cp.pump();
  threads[0].join();
  threads[1].join();
  done.store(true);
  threads[2].join();
  threads[3].join();

  cp.pump();
  EXPECT_EQ(cp.follower(0).last_lsn(), leader.db.last_lsn());
  EXPECT_EQ(cp.follower(0).db().dump_state(), leader.db.dump_state());
}

// --- operator reports --------------------------------------------------------

TEST_F(ReplicationTest, StatusReportsRenderForOperators) {
  netsim::Simulator sim;
  BareLeader leader;
  ControlPlane cp(sim);
  cp.lead(leader.db, "leader");
  cp.add_follower(FollowerConfig{.name = "replica-a"});
  leader.insert("x");
  cp.pump();

  const std::string report = tools::ClusterTools::replication_report(cp.status());
  EXPECT_NE(report.find("leader=leader"), std::string::npos);
  EXPECT_NE(report.find("epoch=1"), std::string::npos);
  EXPECT_NE(report.find("mode=quorum-ack"), std::string::npos);
  EXPECT_NE(report.find("replica-a"), std::string::npos);

  vfs::FileSystem shadow;
  shadow.copy_tree(cp.follower(0).disk(), kDir, kDir);
  Database replayed;
  const sqldb::RecoveryReport recovery = replayed.open_durable(shadow, kDir);
  const std::string recovery_text = tools::ClusterTools::recovery_report(recovery);
  EXPECT_NE(recovery_text.find("wal:"), std::string::npos);
  EXPECT_NE(recovery_text.find("position: LSN"), std::string::npos);
}

// --- live = replay = replica differential -----------------------------------
//
// One seeded stream of DML and DDL runs on a durable leader whose WAL sink
// feeds a follower through replicate_apply. Every kCheckEvery statements,
// the leader, a fresh open_durable() of a copy of the leader's disk, and the
// follower must dump byte-identical state: tables, indexes, AUTO_INCREMENT
// cursors, rows and journal revisions. The stream mixes PRIMARY KEY, keyless
// and AUTO_INCREMENT tables, key-reassigning UPDATEs, DELETEs by index probe
// and by scan, CREATE INDEX, CREATE/DROP of one table name, checkpoints, and
// statements that fail before or after applying part of their work.

class LiveReplayReplica : public ::testing::TestWithParam<std::tuple<unsigned, bool>> {};

/// A random statement; `rng() % n` keeps the stream the same on every
/// standard library (mt19937's output is fixed by the standard).
std::string random_statement(std::mt19937& rng) {
  const auto pick = [&rng](unsigned n) { return static_cast<int>(rng() % n); };
  const auto num = [&](unsigned n) { return std::to_string(pick(n)); };
  const auto text = [&] { return "'s" + num(6) + "'"; };
  switch (pick(22)) {
    case 0:
    case 1:
      return "INSERT INTO pk VALUES (" + num(40) + ", " + num(8) + ", " + text() + ")";
    case 2:
      return "INSERT INTO pk VALUES (" + num(40) + ", " + num(8) + ", " + text() + "), (" +
             num(40) + ", " + num(8) + ", " + text() + ")";
    case 3:
      // A 'word' in the INT column stays text: later arithmetic on it fails.
      return "INSERT INTO nopk VALUES (" + (pick(8) == 0 ? std::string("'word'") : num(20)) +
             ", " + text() + "), (" + num(20) + ", NULL)";
    case 4: return "INSERT INTO ai (n, s) VALUES (" + num(10) + ", " + text() + ")";
    case 5: return "INSERT INTO ai (id, n, s) VALUES (" + num(60) + ", " + num(10) + ", 'x')";
    case 6: return "INSERT INTO tmp VALUES (" + num(10) + ", " + text() + ")";
    case 7: return "UPDATE pk SET id = id + 40 WHERE k = " + num(8);       // key reassigned
    case 8: return "UPDATE pk SET id = " + num(40) + " WHERE id = " + num(40);
    case 9: return "UPDATE pk SET v = " + text() + ", k = k + 1 WHERE id < " + num(40);
    case 10: return "UPDATE ai SET n = n + 1 WHERE n > " + num(10);
    case 11: return "UPDATE nopk SET b = " + text() + " WHERE a > " + num(20);
    case 12: return "DELETE FROM pk WHERE k = " + num(8);                  // index probe
    case 13: return "DELETE FROM nopk WHERE a < " + num(10);               // scan
    case 14: return "DELETE FROM ai WHERE id = " + num(60) + " OR n = " + num(10);
    case 15: return pick(2) == 0 ? "CREATE INDEX pk_k ON pk (k)" : "CREATE INDEX ai_n ON ai (n)";
    case 16: return "DROP TABLE IF EXISTS tmp";
    case 17: return "CREATE TABLE IF NOT EXISTS tmp (x INT PRIMARY KEY, y TEXT)";
    // Failing statements. The first two apply part of their work first.
    case 18: return "INSERT INTO pk VALUES (" + num(40) + ", 1, 'ok'), (" + num(40) + ", 2)";
    case 19: return "UPDATE nopk SET b = 'p' WHERE a * 1 >= 0";  // fails at a 'word' row
    case 20: return pick(2) == 0 ? "UPDATE pk SET nosuch = 1" : "INSERT INTO ai (nosuch) VALUES (1)";
    default: return pick(2) == 0 ? "CREATE TABLE pk (id INT)" : "DROP TABLE missing";
  }
}

TEST_P(LiveReplayReplica, DumpsAgreeAcrossLeaderRecoveryAndFollower) {
  const auto [seed, planner] = GetParam();
  constexpr int kStatements = 1200;
  constexpr int kCheckEvery = 50;
  std::mt19937 rng(seed);

  vfs::FileSystem leader_disk;
  Database leader;
  leader.open_durable(leader_disk, kDir);
  vfs::FileSystem follower_disk;
  Database follower;
  follower.open_durable(follower_disk, kDir);
  std::vector<std::string> shipped;
  leader.set_wal_sink([&shipped](sqldb::WalGroup group) { shipped.push_back(group.bytes); });
  leader.set_planner_enabled(planner);
  follower.set_planner_enabled(planner);

  int failed = 0;
  int partial = 0;  // failed after applying (and logging) part of their work
  const auto run = [&](const std::string& sql) {
    const std::uint64_t before = leader.last_lsn();
    try {
      leader.execute(sql);
    } catch (const Error&) {
      ++failed;
      if (leader.last_lsn() != before) ++partial;
    }
    for (const std::string& group : shipped) follower.replicate_apply(group);
    shipped.clear();
  };
  run("CREATE TABLE pk (id INT PRIMARY KEY, k INT, v TEXT)");
  run("CREATE TABLE nopk (a INT, b TEXT)");
  run("CREATE TABLE ai (id INT PRIMARY KEY AUTO_INCREMENT, n INT, s TEXT)");
  for (int i = 1; i <= kStatements; ++i) {
    run(random_statement(rng));
    if (i % 300 == 0) leader.snapshot();
    if (i % kCheckEvery != 0) continue;
    vfs::FileSystem copy;
    copy.copy_tree(leader_disk, kDir, kDir);
    Database recovered;
    recovered.open_durable(copy, kDir);
    const std::string expected = leader.dump_state();
    ASSERT_EQ(recovered.dump_state(), expected) << "recovery diverged after statement " << i;
    ASSERT_EQ(follower.dump_state(), expected) << "follower diverged after statement " << i;
    ASSERT_EQ(follower.last_lsn(), leader.last_lsn());
  }
  // The stream really exercised the partial-failure path.
  EXPECT_GT(failed, 0);
  EXPECT_GT(partial, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveReplayReplica,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Bool()));

// --- follower DHCP bindings under operator edits -----------------------------

/// The registration churn of test_cluster's differential test, run on a
/// leader: a serving follower fed by shipments — and, midway, by a snapshot
/// bootstrap — must keep DHCP bindings equal to a full push of its table.
class FollowerBindingsUnderOperatorEdits : public ::testing::TestWithParam<unsigned> {};

TEST_P(FollowerBindingsUnderOperatorEdits, MatchAFullPushThroughShipmentsAndBootstrap) {
  vfs::FileSystem state;
  cluster::Cluster cluster(durable_config(state));
  cluster::Frontend& frontend = cluster.frontend();
  ControlPlane cp(cluster.sim(), ControlPlaneConfig{.max_log_groups = 8});
  cp.lead(frontend.db(), "frontend-0");
  FollowerConfig config;
  config.name = "frontend-1";
  config.syslog = &cluster.syslog();
  cp.add_follower(config, &cluster.distro());
  cp.pump();
  Follower& follower = cp.follower(0);
  churn::RegistrationChurn churn(frontend, cluster.insert_ethers(), GetParam());

  const auto steps = [&](int count, bool shipped) {
    for (int i = 0; i < count; ++i) {
      const std::string what = churn.step();
      frontend.flush_services();
      if (!shipped) continue;
      cp.pump();
      ASSERT_EQ(follower.last_lsn(), frontend.db().last_lsn()) << what;
      ASSERT_EQ(churn::describe(follower.environment().dhcp->bindings()),
                churn::describe(churn::reference_bindings(follower.db(), config.ip)))
          << "step " << i << ": " << what;
    }
  };
  steps(120, true);
  const std::uint64_t bootstraps = follower.bootstraps();
  cp.link(0).sever();
  steps(40, false);  // evicts far past the follower's cursor
  cp.link(0).restore();
  cluster.sim().run_until(cluster.sim().now() + 120.0);
  cp.pump();
  ASSERT_EQ(follower.bootstraps(), bootstraps + 1);
  ASSERT_EQ(follower.db().dump_state(), frontend.db().dump_state());
  EXPECT_EQ(churn::describe(follower.environment().dhcp->bindings()),
            churn::describe(churn::reference_bindings(follower.db(), config.ip)));
  steps(120, true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FollowerBindingsUnderOperatorEdits, ::testing::Values(1u, 2u));

}  // namespace
}  // namespace rocks
