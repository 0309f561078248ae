// Integration-level tests of the cluster facade: insert-ethers node
// integration, the installer state machine, reinstallation semantics, eKV,
// and the update workflow.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "registration_churn.hpp"
#include "services/generators.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::cluster {
namespace {

class ClusterTest : public ::testing::Test {
 protected:
  static ClusterConfig small_config() {
    ClusterConfig config;
    config.synth.filler_packages = 50;  // keep tests fast; benches use full size
    return config;
  }
};

TEST_F(ClusterTest, IntegrationNamesNodesSequentially) {
  Cluster cluster(small_config());
  for (int i = 0; i < 4; ++i) cluster.add_node();
  cluster.integrate_all();

  for (int i = 0; i < 4; ++i) {
    Node* node = cluster.node(strings::cat("compute-0-", i));
    ASSERT_NE(node, nullptr) << "compute-0-" << i;
    EXPECT_TRUE(node->is_running());
    EXPECT_EQ(node->install_count(), 1);
  }
  EXPECT_EQ(cluster.insert_ethers().nodes_inserted(), 4);

  // The database has frontend + 4 compute rows.
  const auto rows = cluster.frontend().db().execute("SELECT name FROM nodes ORDER BY id");
  EXPECT_EQ(rows.row_count(), 5u);
  EXPECT_EQ(rows.rows[0][0].as_text(), "frontend-0");
  EXPECT_EQ(rows.rows[1][0].as_text(), "compute-0-0");
}

TEST_F(ClusterTest, IpAddressesAllocatedDownward) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.add_node();
  cluster.integrate_all();
  EXPECT_EQ(cluster.node("compute-0-0")->ip().to_string(), "10.255.255.254");
  EXPECT_EQ(cluster.node("compute-0-1")->ip().to_string(), "10.255.255.253");
}

TEST_F(ClusterTest, GeneratedConfigsCoverNewNodes) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  auto& fe = cluster.frontend();
  EXPECT_NE(fe.fs().read_file("/etc/hosts").find("compute-0-0"), std::string::npos);
  EXPECT_NE(fe.fs().read_file("/etc/dhcpd.conf").find("compute-0-0"), std::string::npos);
  EXPECT_NE(fe.fs().read_file("/var/spool/pbs/server_priv/nodes").find("compute-0-0 np=2"),
            std::string::npos);
}

TEST_F(ClusterTest, SingleNodeReinstallMatchesTableICalibration) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  node->shoot();
  cluster.run_until_stable();
  // 60 boot + 10 dhcp/ks + 40 format + 223 download + 75 post + 120 driver
  // rebuild + 90 final boot = 618 s = 10.3 minutes (Table I, 1 node).
  EXPECT_NEAR(node->last_install_duration(), 618.0, 5.0);
  EXPECT_EQ(node->install_count(), 2);
}

TEST_F(ClusterTest, NodesAreConsistentAfterInstall) {
  Cluster cluster(small_config());
  for (int i = 0; i < 3; ++i) cluster.add_node();
  cluster.integrate_all();
  EXPECT_TRUE(cluster.consistent());
  // Drift one node; consistency is lost; a reinstall restores it.
  cluster.node("compute-0-1")->install_rogue_package([] {
    rpm::Package pkg;
    pkg.name = "hand-built-tool";
    pkg.evr = rpm::Evr::parse("0.1-1");
    pkg.files = {"/usr/local/bin/tool"};
    return pkg;
  }());
  EXPECT_FALSE(cluster.consistent());
  cluster.shoot_node("compute-0-1");
  cluster.run_until_stable();
  EXPECT_TRUE(cluster.consistent());
}

TEST_F(ClusterTest, PostScriptsMaterializedAndLocalized) {
  Cluster cluster(small_config());
  for (int i = 0; i < 2; ++i) cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-1");
  // The base module's post landed, localized with this node's identity.
  ASSERT_TRUE(node->fs().is_directory("/etc/rc.d/rocks-post.d"));
  bool saw_hostname = false;
  bool saw_frontend_ip = false;
  node->fs().walk("/etc/rc.d/rocks-post.d", [&](const std::string& path, const vfs::Stat& st) {
    if (st.type != vfs::NodeType::kFile) return;
    const std::string& body = node->fs().read_file(path);
    if (body.find("compute-0-1") != std::string::npos) saw_hostname = true;
    if (body.find("10.1.1.1") != std::string::npos) saw_frontend_ip = true;
  });
  EXPECT_TRUE(saw_hostname);
  EXPECT_TRUE(saw_frontend_ip);
  // Localization makes these files intentionally node-specific.
  EXPECT_NE(node->fs().file_hash("/etc/rc.d/rocks-post.d/01-base"),
            cluster.node("compute-0-0")->fs().file_hash("/etc/rc.d/rocks-post.d/01-base"));
}

TEST_F(ClusterTest, NonRootPartitionSurvivesReinstall) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  node->fs().write_file("/state/partition1/experiment.dat", "precious results");
  const std::string etc_marker = "/etc/rogue.conf";
  node->corrupt_file(etc_marker, "drift");
  cluster.shoot_node("compute-0-0");
  cluster.run_until_stable();
  EXPECT_EQ(node->fs().read_file("/state/partition1/experiment.dat"), "precious results");
  EXPECT_FALSE(node->fs().exists(etc_marker)) << "root partition must be rebuilt";
}

TEST_F(ClusterTest, HardPowerCycleForcesReinstall) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  cluster.pdu().power_cycle("compute-0-0");
  EXPECT_FALSE(node->is_running());
  cluster.run_until_stable();
  EXPECT_EQ(node->install_count(), 2);
}

TEST_F(ClusterTest, PowerOffMidInstallThenRecover) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  node->shoot();
  // Yank power in the middle of the download phase.
  cluster.sim().run_until(cluster.sim().now() + 200.0);
  EXPECT_EQ(node->state(), NodeState::kInstalling);
  node->power_off();
  EXPECT_EQ(node->state(), NodeState::kOff);
  EXPECT_EQ(cluster.frontend().http().active_downloads(), 0u) << "download must be aborted";
  node->power_on();
  cluster.run_until_stable();
  EXPECT_TRUE(node->is_running());
  EXPECT_EQ(node->install_count(), 2);
}

TEST_F(ClusterTest, ShootRequiresRunningNode) {
  Cluster cluster(small_config());
  Node& node = cluster.add_node();
  EXPECT_THROW(node.shoot(), StateError);
  EXPECT_THROW(cluster.shoot_node("ghost"), LookupError);
}

TEST_F(ClusterTest, EkvShowsInstallProgress) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  const auto& progress = node->ekv().progress();
  EXPECT_GT(progress.total_packages, 50u);
  EXPECT_EQ(progress.completed_packages, progress.total_packages);
  const std::string screen = node->ekv().screen();
  EXPECT_NE(screen.find("eKV on"), std::string::npos);
  EXPECT_NE(screen.find("Package Installation"), std::string::npos);
  EXPECT_NE(screen.find("reinstall #1 complete"), std::string::npos);
}

TEST_F(ClusterTest, EkvAcceptsInteractiveInput) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  std::vector<std::string> seen;
  node->ekv().attach([&](const EkvLine& line) { seen.push_back(line.text); });
  node->ekv().send_input(cluster.sim().now(), "F12");
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0], "<< F12");
  EXPECT_EQ(node->ekv().inputs_received(), 1u);
  EXPECT_NE(node->ekv().screen().find("<< F12"), std::string::npos);
}

// A shoot-node viewer interacts "through the same xterm window" (§6.3), so
// watchers come and go while lines are being delivered.
TEST(EkvConsole, WatcherDetachingItselfMidLineLeavesOthersServed) {
  EkvConsole console("compute-0-0");
  std::size_t first_id = 0;
  int first_calls = 0;
  std::vector<std::string> second_seen;
  first_id = console.attach([&](const EkvLine&) {
    ++first_calls;
    console.detach(first_id);
  });
  console.attach([&](const EkvLine& line) { second_seen.push_back(line.text); });
  console.write_line(1.0, "Installing glibc");
  EXPECT_EQ(first_calls, 1);
  ASSERT_EQ(second_seen.size(), 1u) << "the second watcher must still get the line";
  console.write_line(2.0, "Installing bash");
  EXPECT_EQ(first_calls, 1) << "a detached watcher sees no later line";
  EXPECT_EQ(second_seen, (std::vector<std::string>{"Installing glibc", "Installing bash"}));
}

TEST(EkvConsole, WatcherAttachingMoreMidLineStartsThemOnTheNextLine) {
  EkvConsole console("compute-0-0");
  int spawned_calls = 0;
  bool spawned = false;
  console.attach([&](const EkvLine&) {
    if (spawned) return;
    spawned = true;
    for (int i = 0; i < 8; ++i) console.attach([&](const EkvLine&) { ++spawned_calls; });
  });
  std::vector<std::string> other_seen;
  console.attach([&](const EkvLine& line) { other_seen.push_back(line.text); });
  console.write_line(1.0, "Installing glibc");
  EXPECT_EQ(spawned_calls, 0);
  EXPECT_EQ(other_seen, std::vector<std::string>{"Installing glibc"});
  console.write_line(2.0, "Installing bash");
  EXPECT_EQ(spawned_calls, 8);
  EXPECT_EQ(other_seen.size(), 2u);
  EXPECT_NE(console.screen().find("[2.0s] Installing bash"), std::string::npos);
}

TEST(EkvConsole, ScreenShowsAtMostTheRetainedLines) {
  EkvConsole console("compute-0-0");
  const std::size_t written = EkvConsole::kLineCap + 5;
  for (std::size_t i = 0; i < written; ++i)
    console.write_line(static_cast<double>(i), strings::cat("line ", i));
  const std::string screen = console.screen(written);
  std::size_t shown = 0;
  for (std::size_t at = screen.find("] line "); at != std::string::npos;
       at = screen.find("] line ", at + 1))
    ++shown;
  EXPECT_EQ(shown, EkvConsole::kLineCap);
  EXPECT_EQ(screen.find("] line 4\n"), std::string::npos) << "the oldest lines are dropped";
  EXPECT_NE(screen.find("] line 5\n"), std::string::npos);
  EXPECT_NE(screen.find(strings::cat("] line ", written - 1, "\n")), std::string::npos);
}

TEST_F(ClusterTest, ShootNodeCapturesEkvScreen) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  cluster.shoot_node("compute-0-0", /*watch_ekv=*/true);
  cluster.run_until_stable();
  ASSERT_EQ(cluster.ekv_captures().size(), 1u);
  EXPECT_NE(cluster.ekv_captures()[0].find("reinstall #2 complete"), std::string::npos);
}

TEST_F(ClusterTest, UpdateCycleRefreshesNodes) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");

  // Build an errata repo containing a newer openssl.
  const rpm::Package* base_ssl = cluster.distro().repo.newest("openssl");
  ASSERT_NE(base_ssl, nullptr);
  rpm::Package update = *base_ssl;
  update.evr.release += ".6";
  update.origin = rpm::Origin::kUpdate;
  update.security_fix = true;
  rpm::Repository errata("errata");
  errata.add(update);

  const std::string old_version = node->rpmdb().find("openssl")->evr.to_string();
  cluster.frontend().apply_updates(errata);
  cluster.shoot_node("compute-0-0");
  cluster.run_until_stable();
  EXPECT_EQ(node->rpmdb().find("openssl")->evr.to_string(), update.evr.to_string());
  EXPECT_NE(node->rpmdb().find("openssl")->evr.to_string(), old_version);
}

TEST_F(ClusterTest, SecondRackGetsOwnNames) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  cluster.insert_ethers().set_rack(1);
  cluster.add_node();
  cluster.integrate_all();
  EXPECT_NE(cluster.node("compute-1-0"), nullptr);
  EXPECT_EQ(cluster.node("compute-1-0")->ip().to_string(), "10.255.255.253");
}

TEST_F(ClusterTest, HeterogeneousAppliancesFromOneGraph) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();  // compute-0-0
  cluster.insert_ethers().set_membership(7, "nfs");
  cluster.add_node();
  cluster.integrate_all();  // nfs-0-0

  Node* nfs = cluster.node("nfs-0-0");
  ASSERT_NE(nfs, nullptr);
  EXPECT_TRUE(nfs->is_running());
  // The NFS appliance installs fewer packages than a compute node (no MPI,
  // no compilers) and carries the NFS server bits.
  Node* compute = cluster.node("compute-0-0");
  EXPECT_LT(nfs->rpmdb().package_count(), compute->rpmdb().package_count());
  EXPECT_TRUE(nfs->rpmdb().installed("nfs-utils"));
  EXPECT_FALSE(nfs->rpmdb().installed("mpich"));
  // And without a Myrinet driver rebuild it reinstalls faster.
  EXPECT_LT(nfs->last_install_duration(), compute->last_install_duration());
}

TEST_F(ClusterTest, BulkRegistrationRestartsEachServiceOnce) {
  // The change bus coalesces a burst: registering 100 nodes through
  // register_batch commits 100 rows, then flushes once — each config
  // service restarts exactly once, not 100 times (DESIGN.md §10).
  Cluster cluster(small_config());
  auto& fe = cluster.frontend();
  const auto hosts_before = fe.services().restarts("hosts");
  const auto dhcpd_before = fe.services().restarts("dhcpd");
  const auto pbs_before = fe.services().restarts("pbs");

  std::vector<Mac> macs;
  for (int i = 0; i < 100; ++i) macs.push_back(Mac(0x00508B000000ULL + i));
  EXPECT_EQ(cluster.insert_ethers().register_batch(macs), 100);

  EXPECT_EQ(fe.services().restarts("hosts"), hosts_before + 1);
  EXPECT_EQ(fe.services().restarts("dhcpd"), dhcpd_before + 1);
  EXPECT_EQ(fe.services().restarts("pbs"), pbs_before + 1);
  // And the one flush covered the whole burst.
  const std::string hosts = fe.fs().read_file("/etc/hosts");
  EXPECT_NE(hosts.find("compute-0-0"), std::string::npos);
  EXPECT_NE(hosts.find("compute-0-99"), std::string::npos);
  EXPECT_NE(fe.fs().read_file("/var/spool/pbs/server_priv/nodes").find("compute-0-99 np=2"),
            std::string::npos);

  // Re-registering the same MACs inserts nothing and restarts nothing.
  EXPECT_EQ(cluster.insert_ethers().register_batch(macs), 0);
  EXPECT_EQ(fe.services().restarts("hosts"), hosts_before + 1);
  EXPECT_EQ(fe.services().restarts("dhcpd"), dhcpd_before + 1);
}

TEST_F(ClusterTest, UserAccountsSyncOverNis) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  auto& fe = cluster.frontend();
  const auto before = fe.services().restarts("nis");

  fe.add_user("bruno", 501, "/bin/tcsh");
  // The NIS map was regenerated and the service restarted exactly once.
  EXPECT_EQ(fe.services().restarts("nis"), before + 1);
  const std::string map = fe.nis_passwd_map();
  EXPECT_NE(map.find("bruno:x:501:501::/export/home/bruno:/bin/tcsh"), std::string::npos);
  // The home directory exists on the NFS-exported filesystem.
  EXPECT_TRUE(fe.fs().is_directory("/export/home/bruno"));
  // Adding a user does not churn unrelated services.
  const auto pbs_before = fe.services().restarts("pbs");
  fe.add_user("mjk", 502);
  EXPECT_EQ(fe.services().restarts("pbs"), pbs_before);
}

TEST_F(ClusterTest, MultiArchClusterFromOneGraph) {
  // Section 6.1: "one XML graph file supports the dynamic kickstart file
  // generation for three processor types (IA-32, Athlon and IA-64)".
  ClusterConfig config = small_config();
  config.synth.arches = {"i386", "ia64"};
  Cluster cluster(std::move(config));
  cluster.add_node("i386");
  cluster.integrate_all();
  cluster.insert_ethers().set_arch("ia64");
  cluster.add_node("ia64");
  cluster.integrate_all();

  Node* ia32 = cluster.node("compute-0-0");
  Node* ia64 = cluster.node("compute-0-1");
  ASSERT_NE(ia64, nullptr);
  EXPECT_TRUE(ia64->is_running());

  // Same modules, per-arch binaries, per-arch bootloader.
  EXPECT_TRUE(ia32->rpmdb().installed("grub"));
  EXPECT_FALSE(ia32->rpmdb().installed("elilo"));
  EXPECT_TRUE(ia64->rpmdb().installed("elilo"));
  EXPECT_FALSE(ia64->rpmdb().installed("grub"));
  EXPECT_EQ(ia32->rpmdb().find("glibc")->arch, "i386");
  EXPECT_EQ(ia64->rpmdb().find("glibc")->arch, "ia64");
  // noarch packages are shared verbatim.
  EXPECT_EQ(ia64->rpmdb().find("rocks-ekv")->arch, "noarch");
  // Both got the full compute stack.
  EXPECT_TRUE(ia64->rpmdb().installed("mpich"));
  EXPECT_TRUE(ia64->rpmdb().installed("gm-driver"));
}

TEST_F(ClusterTest, ReinstallAllReturnsMakespan) {
  Cluster cluster(small_config());
  for (int i = 0; i < 2; ++i) cluster.add_node();
  cluster.integrate_all();
  const double makespan = cluster.reinstall_all();
  // Two nodes at full speed: same as one (no contention at 7.5 MB/s).
  EXPECT_NEAR(makespan, 618.0, 5.0);
  EXPECT_TRUE(cluster.consistent());
}

// --- failure injection: power cut at arbitrary points of the install ------

class PowerCutSweep : public ::testing::TestWithParam<double> {};

TEST_P(PowerCutSweep, NodeRecoversFromPowerCutAtAnyPhase) {
  ClusterConfig config;
  config.synth.filler_packages = 50;
  Cluster cluster(std::move(config));
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");

  node->shoot();
  // Cut power `GetParam()` seconds into the reinstall: during installer
  // boot (20), dhcp/kickstart (65), disk format (100), download (200/400),
  // post-config (520), final boot (590).
  cluster.sim().run_until(cluster.sim().now() + GetParam());
  node->power_off();
  EXPECT_EQ(node->state(), NodeState::kOff);
  EXPECT_EQ(cluster.frontend().http().active_downloads(), 0u);

  // Power restored: the node reinstalls from scratch and converges.
  node->power_on();
  cluster.run_until_stable();
  EXPECT_TRUE(node->is_running());
  EXPECT_EQ(node->install_count(), 2);
  EXPECT_TRUE(cluster.consistent());
}

INSTANTIATE_TEST_SUITE_P(CutPoints, PowerCutSweep,
                         ::testing::Values(20.0, 65.0, 100.0, 200.0, 400.0, 520.0, 590.0));

TEST_F(ClusterTest, RepeatedHardCyclesConverge) {
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  // Flaky power: three rapid-fire hard cycles mid-install.
  node->shoot();
  for (int i = 0; i < 3; ++i) {
    cluster.sim().run_until(cluster.sim().now() + 150.0);
    node->hard_power_cycle();
  }
  cluster.run_until_stable();
  EXPECT_TRUE(node->is_running());
  // Only the final attempt completed.
  EXPECT_EQ(node->install_count(), 2);
}

TEST_F(ClusterTest, HardPowerCycleMidDownloadFreesServerCapacity) {
  // A power event racing an in-flight download: the HTTP flow must be
  // aborted server-side immediately (no ghost flow holding fair-share
  // bandwidth), and the fresh install must converge.
  Cluster cluster(small_config());
  for (int i = 0; i < 2; ++i) cluster.add_node();
  cluster.integrate_all();
  Node* victim = cluster.node("compute-0-0");
  Node* bystander = cluster.node("compute-0-1");

  for (auto* node : cluster.nodes()) node->shoot();
  cluster.sim().run_until(cluster.sim().now() + 200.0);
  ASSERT_EQ(victim->state(), NodeState::kInstalling);
  ASSERT_EQ(cluster.frontend().http().active_downloads(), 2u);
  victim->hard_power_cycle();
  // The old flow is gone the instant power drops; only the bystander's
  // remains (the victim re-enters install and re-requests later).
  EXPECT_EQ(cluster.frontend().http().active_downloads(), 1u);
  cluster.run_until_stable();
  EXPECT_TRUE(victim->is_running());
  EXPECT_TRUE(bystander->is_running());
  EXPECT_EQ(victim->install_count(), 2);
  EXPECT_TRUE(cluster.consistent());
}

TEST_F(ClusterTest, RapidPowerEventsLeaveNoStaleCallbacks) {
  // Stale epoch callbacks from interrupted installs must all no-op:
  // on_running fires exactly once, for the attempt that actually finished.
  Cluster cluster(small_config());
  cluster.add_node();
  cluster.integrate_all();
  Node* node = cluster.node("compute-0-0");
  int running_events = 0;
  node->on_running([&] { ++running_events; });

  node->shoot();
  for (const double cut : {30.0, 80.0, 150.0, 250.0}) {
    cluster.sim().run_until(cluster.sim().now() + cut);
    node->power_off();
    EXPECT_EQ(cluster.frontend().http().active_downloads(), 0u);
    node->power_on();
  }
  cluster.run_until_stable();
  EXPECT_TRUE(node->is_running());
  EXPECT_EQ(running_events, 1);
  EXPECT_EQ(node->install_count(), 2);  // only the last attempt completed
}

TEST_F(ClusterTest, OneDeadNodeDoesNotBlockClusterReinstall) {
  Cluster cluster(small_config());
  for (int i = 0; i < 3; ++i) cluster.add_node();
  cluster.integrate_all();
  cluster.node("compute-0-1")->inject_hardware_fault();
  // reinstall_all shoots only running nodes; the dead one is skipped.
  const double makespan = cluster.reinstall_all();
  EXPECT_GT(makespan, 0.0);
  EXPECT_EQ(cluster.node("compute-0-0")->install_count(), 2);
  EXPECT_EQ(cluster.node("compute-0-2")->install_count(), 2);
  EXPECT_EQ(cluster.node("compute-0-1")->install_count(), 1);
  EXPECT_FALSE(cluster.node("compute-0-1")->is_running());
}

TEST_F(ClusterTest, ServerCapacityUpgradeMidPulse) {
  // The GigE upgrade story, live: halfway through a contended 16-node
  // pulse the server NIC is swapped for something 4x faster.
  ClusterConfig config = small_config();
  config.frontend.http_capacity = 7.0 * 1024 * 1024;
  Cluster cluster(std::move(config));
  for (int i = 0; i < 16; ++i) cluster.add_node();
  cluster.integrate_all();

  const double start = cluster.sim().now();
  for (auto* node : cluster.nodes()) node->shoot();
  cluster.sim().run_until(start + 300.0);
  cluster.frontend().http().server(0).set_capacity(28.0 * 1024 * 1024);
  cluster.run_until_stable();
  const double makespan = cluster.sim().now() - start;
  // Faster than the all-slow case (~15.1 min at 7 MB/s) and slower than
  // the uncontended single-node time.
  EXPECT_LT(makespan, 900.0);
  EXPECT_GT(makespan, 618.0 - 1.0);
  EXPECT_TRUE(cluster.consistent());
}

// --- registration under operator edits ---------------------------------------

TEST_F(ClusterTest, KeyUpdatesAreCoercedAndAdvanceTheIdCursor) {
  // An UPDATE coerces like an INSERT: a numeric TEXT id becomes an INT, and
  // a key set above the AUTO_INCREMENT cursor moves the cursor past it, so
  // the next registration cannot be handed the same id. Every journal
  // consumer re-fetches the moved row under its new key: the reports stay
  // equal to a full render and the DHCP bindings to a full push.
  Cluster cluster(small_config());
  for (int i = 0; i < 3; ++i) cluster.add_node();
  cluster.integrate_all();
  Frontend& frontend = cluster.frontend();
  const auto expect_full_render = [&](const std::string& when) {
    EXPECT_EQ(frontend.fs().read_file("/etc/hosts"), services::generate_hosts(frontend.db()))
        << when;
    EXPECT_EQ(frontend.fs().read_file("/etc/dhcpd.conf"),
              services::generate_dhcpd_conf(frontend.db(), frontend.config().ip))
        << when;
    EXPECT_EQ(churn::describe(frontend.dhcp().bindings()),
              churn::describe(churn::reference_bindings(frontend.db(), frontend.config().ip)))
        << when;
  };
  frontend.db().execute("UPDATE nodes SET id = '27', name = 'spare-0-1' WHERE id = 3");
  const auto moved = frontend.db().execute("SELECT id FROM nodes WHERE name = 'spare-0-1'");
  ASSERT_EQ(moved.row_count(), 1u);
  EXPECT_EQ(moved.rows[0][0].type(), sqldb::Type::kInt);
  EXPECT_EQ(moved.rows[0][0].as_int(), 27);
  EXPECT_TRUE(frontend.flush_services().failed.empty());
  expect_full_render("after the key update");

  // A key that is not a number is refused, as INSERT refuses it, and
  // changes nothing.
  EXPECT_THROW(frontend.db().execute("UPDATE nodes SET id = 'spare' WHERE id = 27"), Error);
  EXPECT_EQ(frontend.db().execute("SELECT id FROM nodes WHERE id = 27").row_count(), 1u);

  cluster.add_node();
  cluster.integrate_all();
  const auto next = frontend.db().execute("SELECT id FROM nodes WHERE name = 'compute-0-3'");
  ASSERT_EQ(next.row_count(), 1u);
  EXPECT_EQ(next.rows[0][0].as_int(), 28);
  EXPECT_EQ(frontend.db().execute("SELECT id FROM nodes WHERE id = 27").row_count(), 1u);
  expect_full_render("after the next registration");
}

TEST_F(ClusterTest, DistributionRebuildInstallsFromANewImage) {
  Cluster cluster(small_config());
  for (int i = 0; i < 2; ++i) cluster.add_node();
  cluster.integrate_all();
  const rpm::InstallImageCache& images = cluster.frontend().install_images();
  EXPECT_EQ(images.size(), 1u);  // every compute node installed one image
  const std::uint64_t builds = images.builds();
  const std::uint64_t revision = cluster.frontend().distribution().revision();

  const rpm::Package* base_ssl = cluster.distro().repo.newest("openssl");
  ASSERT_NE(base_ssl, nullptr);
  rpm::Package update = *base_ssl;
  update.evr.release += ".6";
  update.origin = rpm::Origin::kUpdate;
  rpm::Repository errata("errata");
  errata.add(update);
  cluster.frontend().apply_updates(errata);
  EXPECT_NE(cluster.frontend().distribution().revision(), revision);

  // The next install uses the new packages; a node not reinstalled keeps
  // what it has.
  cluster.shoot_node("compute-0-0");
  cluster.run_until_stable();
  EXPECT_EQ(cluster.node("compute-0-0")->rpmdb().find("openssl")->evr, update.evr);
  EXPECT_EQ(cluster.node("compute-0-1")->rpmdb().find("openssl")->evr, base_ssl->evr);
  EXPECT_EQ(images.builds(), builds + 1);
  EXPECT_EQ(images.size(), 1u);  // the old revision's image is gone
  cluster.shoot_node("compute-0-1");
  cluster.run_until_stable();
  EXPECT_EQ(images.builds(), builds + 1);
  EXPECT_EQ(cluster.node("compute-0-1")->software_fingerprint(),
            cluster.node("compute-0-0")->software_fingerprint());
  EXPECT_TRUE(cluster.consistent());
}

/// Seeded registrations interleaved with SQL edits of the nodes table. Each
/// registration must take the rank and IP the full-scan queries give, and
/// after every flush_services() the DHCP bindings must equal a full push.
/// The second parameter is the journal's changelog bound: at 4 most flushes
/// read a truncated journal and rebuild, at 1024 they apply deltas.
class RegistrationUnderOperatorEdits
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>> {};

TEST_P(RegistrationUnderOperatorEdits, AllocatorAndBindingsMatchFullScans) {
  const auto [seed, capacity] = GetParam();
  ClusterConfig config;
  config.synth.filler_packages = 20;
  Cluster cluster(std::move(config));
  Frontend& frontend = cluster.frontend();
  frontend.db().journal().set_capacity(capacity);
  churn::RegistrationChurn churn(frontend, cluster.insert_ethers(), seed);
  int registered = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string what = churn.step();
    frontend.flush_services();
    ASSERT_EQ(churn::describe(frontend.dhcp().bindings()),
              churn::describe(churn::reference_bindings(frontend.db(), frontend.config().ip)))
        << "step " << i << ": " << what;
    registered = cluster.insert_ethers().nodes_inserted();
  }
  // The run really integrated nodes between edits, and hit refusals.
  EXPECT_GT(registered, 60);
  EXPECT_GT(churn.refused(), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistrationUnderOperatorEdits,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(std::size_t{1024}, std::size_t{4})));

}  // namespace
}  // namespace rocks::cluster
