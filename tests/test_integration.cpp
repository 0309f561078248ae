// Cross-module integration tests: the full paper workflows end to end, and
// property-style parameterized sweeps over cluster size and calibration.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/cfengine.hpp"
#include "cluster/cluster.hpp"
#include "rpm/solver.hpp"
#include "support/strings.hpp"
#include "tools/cluster_tools.hpp"

namespace rocks {
namespace {

cluster::ClusterConfig quick_config() {
  cluster::ClusterConfig config;
  config.synth.filler_packages = 50;
  return config;
}

TEST(Integration, InstalledFilesMatchKickstartResolution) {
  // What the node actually has after install == what the kickstart profile
  // resolves to against the distribution. The whole pipeline agrees.
  cluster::Cluster cluster(quick_config());
  cluster.add_node();
  cluster.integrate_all();
  cluster::Node* node = cluster.node("compute-0-0");

  const auto profile =
      cluster.frontend().kickstart_server().handle_request_file(node->ip());
  const rpm::Resolution resolution =
      rpm::resolve(cluster.frontend().distribution(), profile.packages(), node->arch());
  ASSERT_TRUE(resolution.complete());

  const auto manifest = node->rpmdb().manifest();
  EXPECT_EQ(manifest.size(), resolution.install_order.size());
  std::set<std::string> expected;
  for (const rpm::Package* pkg : resolution.install_order) expected.insert(pkg->nevra());
  for (const auto& entry : manifest) EXPECT_TRUE(expected.contains(entry)) << entry;

  // And the files are really on disk: every installed package's first file.
  for (const rpm::Package* pkg : resolution.install_order) {
    if (pkg->files.empty()) continue;
    EXPECT_TRUE(node->fs().is_file(pkg->files[0])) << pkg->nevra() << " " << pkg->files[0];
  }
}

TEST(Integration, DatabaseIsTheSingleSourceOfTruth) {
  cluster::Cluster cluster(quick_config());
  for (int i = 0; i < 3; ++i) cluster.add_node();
  cluster.integrate_all();
  auto& fe = cluster.frontend();

  // Every node row appears in every generated artifact.
  const auto rows = fe.db().execute("SELECT name, ip, mac FROM nodes ORDER BY id");
  const std::string hosts = fe.fs().read_file("/etc/hosts");
  const std::string dhcpd = fe.fs().read_file("/etc/dhcpd.conf");
  for (const auto& row : rows.rows) {
    EXPECT_NE(hosts.find(row[0].to_string()), std::string::npos) << row[0].to_string();
    EXPECT_NE(hosts.find(row[1].to_string()), std::string::npos);
    if (row[0].to_string() != "frontend-0") {
      EXPECT_NE(dhcpd.find(row[2].to_string()), std::string::npos);
    }
  }

  // Deleting a node from the database and regenerating removes it
  // everywhere — the database drives, files follow.
  fe.db().execute("DELETE FROM nodes WHERE name = 'compute-0-1'");
  fe.regenerate_services();
  EXPECT_EQ(fe.fs().read_file("/etc/hosts").find("compute-0-1"), std::string::npos);
  EXPECT_EQ(fe.fs().read_file("/etc/dhcpd.conf").find("compute-0-1"), std::string::npos);
  EXPECT_FALSE(fe.dhcp().knows(cluster.node("compute-0-1")->mac()));
}

TEST(Integration, GraphEditChangesWhatNodesInstall) {
  // The Section 6.2.3 customization loop: edit the XML infrastructure,
  // rebuild, reinstall.
  cluster::Cluster cluster(quick_config());
  cluster.add_node();
  cluster.integrate_all();
  cluster::Node* node = cluster.node("compute-0-0");
  EXPECT_TRUE(node->rpmdb().installed("gm-driver"));
  const double with_driver = node->last_install_duration();

  cluster.frontend().graph().remove_edge("compute", "myrinet");
  cluster.frontend().rebuild_distribution();
  cluster.shoot_node("compute-0-0");
  cluster.run_until_stable();
  // The driver source package is gone (nothing requests it); note "gm"
  // itself survives as a dependency of mpich-gm. No rebuild -> faster.
  EXPECT_FALSE(node->rpmdb().installed("gm-driver"));
  EXPECT_TRUE(node->rpmdb().installed("mpich-gm"));
  EXPECT_LT(node->last_install_duration(), with_driver);
}

TEST(Integration, CustomKernelWorkflow) {
  // Section 3.3: craft a kernel RPM, bind it into a new distribution with
  // rocks-dist, reinstall the desired nodes.
  cluster::Cluster cluster(quick_config());
  cluster.add_node();
  cluster.integrate_all();
  cluster::Node* node = cluster.node("compute-0-0");
  const std::string stock = node->rpmdb().find("kernel")->evr.to_string();

  rpm::Package custom = *cluster.distro().repo.newest("kernel");
  custom.evr.release += ".custom1";
  custom.origin = rpm::Origin::kLocal;
  cluster.frontend().rocksdist().add_local(custom);
  cluster.frontend().rebuild_distribution();
  cluster.shoot_node("compute-0-0");
  cluster.run_until_stable();

  EXPECT_EQ(node->rpmdb().find("kernel")->evr.to_string(), custom.evr.to_string());
  EXPECT_NE(node->rpmdb().find("kernel")->evr.to_string(), stock);
}

TEST(Integration, ReinstallBeatsParityCheckOnResidualDrift) {
  // The paper's core claim in miniature.
  cluster::Cluster cluster(quick_config());
  for (int i = 0; i < 2; ++i) cluster.add_node();
  cluster.integrate_all();
  cluster::Node* drifted = cluster.node("compute-0-1");
  drifted->corrupt_file("/usr/local/lib/secret-dep.so", "unmanaged");
  drifted->corrupt_file("/etc/hosts", "stale copy");

  baselines::CfengineAgent agent;
  agent.converge(*drifted, *cluster.node("compute-0-0"));
  EXPECT_TRUE(drifted->fs().exists("/usr/local/lib/secret-dep.so"));  // residual

  cluster.shoot_node("compute-0-1");
  cluster.run_until_stable();
  EXPECT_FALSE(drifted->fs().exists("/usr/local/lib/secret-dep.so"));
  EXPECT_EQ(drifted->software_fingerprint(),
            cluster.node("compute-0-0")->software_fingerprint());
}

// --- property sweeps -------------------------------------------------------

class PulseSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PulseSweep, ConcurrentReinstallsAllComplete) {
  const std::size_t n = GetParam();
  cluster::Cluster cluster(quick_config());
  for (std::size_t i = 0; i < n; ++i) cluster.add_node();
  cluster.integrate_all();
  const double makespan = cluster.reinstall_all();
  // Invariants: every node back, exactly 2 installs each, consistent, and
  // makespan bounded below by the single-node time and above by full
  // serialization.
  for (auto* node : cluster.nodes()) {
    EXPECT_TRUE(node->is_running());
    EXPECT_EQ(node->install_count(), 2);
  }
  EXPECT_TRUE(cluster.consistent());
  EXPECT_GE(makespan, 617.0);
  EXPECT_LE(makespan, 618.0 + static_cast<double>(n) * 225.0 / 7.5 + 1.0);
  // Server accounting: the HTTP servers sourced exactly what the nodes
  // downloaded (two installs each), nothing lost or double-counted.
  EXPECT_NEAR(
      cluster.frontend().http().total_bytes_served(),
      static_cast<double>(n) *
          static_cast<double>(cluster.node("compute-0-0")->bytes_downloaded_total()),
      static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, PulseSweep, ::testing::Values(1, 2, 5, 9, 16));

class MonotonicSweep : public ::testing::Test {};

TEST_F(MonotonicSweep, MakespanNonDecreasingInClusterSize) {
  double previous = 0.0;
  for (std::size_t n : {2u, 8u, 12u, 20u}) {
    cluster::Cluster cluster(quick_config());
    for (std::size_t i = 0; i < n; ++i) cluster.add_node();
    cluster.integrate_all();
    const double makespan = cluster.reinstall_all();
    EXPECT_GE(makespan, previous - 1.0) << n << " nodes";
    previous = makespan;
  }
}

TEST(IntegrationProperty, FingerprintInvariantUnderReinstall) {
  // Reinstalling any subset never changes the consistent fingerprint.
  cluster::Cluster cluster(quick_config());
  for (int i = 0; i < 4; ++i) cluster.add_node();
  cluster.integrate_all();
  const auto fingerprint = cluster.node("compute-0-0")->software_fingerprint();
  cluster.shoot_node("compute-0-2");
  cluster.shoot_node("compute-0-3");
  cluster.run_until_stable();
  for (auto* node : cluster.nodes())
    EXPECT_EQ(node->software_fingerprint(), fingerprint) << node->hostname();
}

TEST(IntegrationProperty, SequentialIntegrationBindsPositions) {
  // rack/rank reflect boot order — the paper's reason for serial booting.
  cluster::Cluster cluster(quick_config());
  for (int i = 0; i < 5; ++i) cluster.add_node();
  cluster.integrate_all();
  const auto rows = cluster.frontend().db().execute(
      "SELECT name, rank FROM nodes WHERE membership = 2 ORDER BY id");
  for (std::size_t i = 0; i < rows.row_count(); ++i) {
    EXPECT_EQ(rows.rows[i][1].as_int(), static_cast<std::int64_t>(i));
    EXPECT_EQ(rows.rows[i][0].as_text(), strings::cat("compute-0-", i));
  }
}

// --- install images: node installs equal package-by-package installs -----------

/// Everything observable about a tree: walk order, type, size, link target,
/// file_hash, then disk_usage("/").
std::string describe(const vfs::FileSystem& fs) {
  std::string out;
  fs.walk("/", [&](const std::string& path, const vfs::Stat& st) {
    out += path + " " + std::to_string(static_cast<int>(st.type)) + " " +
           std::to_string(st.size) + " " + st.link_target;
    if (st.type == vfs::NodeType::kFile) out += " " + std::to_string(fs.file_hash(path));
    out += "\n";
  });
  return out + "du " + std::to_string(fs.disk_usage("/")) + "\n";
}

/// Rebuilds `node`'s root partition the way the installer did before
/// install images: wipe, install the resolution package by package, write
/// the %post files. Returns the package database that install records.
rpm::RpmDatabase copy_reinstall(cluster::Node& node, cluster::Frontend& frontend) {
  const auto profile = frontend.kickstart_server().handle_request_file(node.ip());
  vfs::FileSystem& fs = node.fs();
  fs.wipe_root_partition();
  rpm::RpmDatabase db;
  for (const rpm::Package* pkg :
       rpm::resolve(frontend.distribution(), profile.packages(), node.arch()).install_order)
    db.install(*pkg, fs);
  fs.mkdir_p("/etc/rc.d/rocks-post.d");
  int post_index = 0;
  for (const auto& post : profile.posts()) {
    char prefix[16];
    std::snprintf(prefix, sizeof prefix, "%02d", post_index++);
    fs.write_file(strings::cat("/etc/rc.d/rocks-post.d/", prefix, "-", post.origin), post.body);
  }
  return db;
}

/// Compute nodes on i386 and ia64, an NFS server and a web server.
std::unique_ptr<cluster::Cluster> mixed_cluster() {
  cluster::ClusterConfig config;
  config.synth.filler_packages = 30;
  config.synth.arches = {"i386", "ia64"};
  auto cluster = std::make_unique<cluster::Cluster>(std::move(config));
  for (int i = 0; i < 3; ++i) cluster->add_node();
  cluster->integrate_all();
  cluster->insert_ethers().set_arch("ia64");
  cluster->add_node("ia64");
  cluster->integrate_all();
  cluster->insert_ethers().set_arch("i386");
  cluster->insert_ethers().set_membership(7, "nfs");
  cluster->add_node();
  cluster->integrate_all();
  cluster->insert_ethers().set_membership(8, "web");
  cluster->add_node();
  cluster->integrate_all();
  return cluster;
}

using DriftReport = std::tuple<std::size_t, std::size_t, std::size_t, double>;

DriftReport drift(const cluster::Node& node, const cluster::Node& reference) {
  const auto report = baselines::CfengineAgent().audit(node, reference);
  return {report.files_examined, report.drifted, report.unmanaged_extra, report.seconds};
}

TEST(InstallImages, NodeInstallsMatchPackageByPackageInstalls) {
  // Two clusters from one seed. `shared` installs the way the cluster does,
  // from one image per (appliance, arch); every root of `copied` is rebuilt
  // package by package. The same operator actions follow on both, and
  // after each the two must be indistinguishable.
  const auto shared = mixed_cluster();
  const auto copied = mixed_cluster();
  std::map<std::string, rpm::RpmDatabase> copied_db;
  const auto rebuild_copied = [&] {
    for (cluster::Node* node : copied->nodes())
      copied_db[node->hostname()] = copy_reinstall(*node, copied->frontend());
  };
  const std::vector<std::string> hosts = {"compute-0-0", "compute-0-1", "compute-0-2",
                                          "compute-0-3", "nfs-0-0",     "web-0-0"};
  const auto expect_twins = [&](const std::string& when) {
    const cluster::Node& reference = *shared->node("compute-0-0");
    const cluster::Node& copied_reference = *copied->node("compute-0-0");
    for (const std::string& host : hosts) {
      const cluster::Node* a = shared->node(host);
      const cluster::Node* b = copied->node(host);
      ASSERT_NE(a, nullptr) << host;
      ASSERT_NE(b, nullptr) << host;
      EXPECT_EQ(describe(a->fs()), describe(b->fs())) << host << " " << when;
      EXPECT_EQ(a->rpmdb().manifest(), copied_db[host].manifest()) << host << " " << when;
      EXPECT_EQ(a->software_fingerprint(), copied_db[host].fingerprint()) << host << " " << when;
      EXPECT_EQ(drift(*a, reference), drift(*b, copied_reference)) << host << " " << when;
    }
  };
  ASSERT_EQ(shared->node("compute-0-3")->arch(), "ia64");
  ASSERT_NE(shared->node("web-0-0"), nullptr);
  // One image per (appliance, arch).
  EXPECT_EQ(shared->frontend().install_images().size(), 4u);
  rebuild_copied();
  expect_twins("after integration");

  // The cached images, which no node write may reach.
  std::vector<std::string> images_before;
  for (const std::string& host : hosts) {
    const cluster::Node* node = shared->node(host);
    const auto profile = shared->frontend().kickstart_server().handle_request_file(node->ip());
    images_before.push_back(describe(
        shared->frontend().install_images().image(profile.packages(), node->arch())->tree));
  }

  // Operator actions: hand edits, unpackaged software, a disk clone.
  const std::string libc = shared->node("compute-0-1")->rpmdb().find("glibc")->files[0];
  rpm::Package rogue;
  rogue.name = "rogue-tool";
  rogue.evr = rpm::Evr::parse("0.1-1");
  rogue.files = {"/usr/local/bin/rogue-tool", "/etc/rogue-tool.conf"};
  rogue.size_bytes = 10000;
  for (cluster::Cluster* c : {shared.get(), copied.get()}) {
    c->node("compute-0-1")->corrupt_file(libc, "hand-edited");
    c->node("compute-0-1")->corrupt_file("/etc/new/by-hand.conf", "x");
    c->node("nfs-0-0")->clone_software_from(*c->node("compute-0-0"));
  }
  shared->node("compute-0-2")->install_rogue_package(rogue);
  copied_db["compute-0-2"].install(rogue, copied->node("compute-0-2")->fs());
  shared->node("compute-0-3")->install_rogue_package(rogue);
  copied_db["compute-0-3"].install(rogue, copied->node("compute-0-3")->fs());
  copied_db["nfs-0-0"] = copied_db["compute-0-0"];
  expect_twins("after operator actions");
  EXPECT_NE(shared->node("compute-0-1")->fs().read_file(libc),
            shared->node("compute-0-0")->fs().read_file(libc));
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const cluster::Node* node = shared->node(hosts[i]);
    if (hosts[i] == "nfs-0-0") continue;  // now carries compute software
    const auto profile = shared->frontend().kickstart_server().handle_request_file(node->ip());
    EXPECT_EQ(describe(shared->frontend()
                           .install_images()
                           .image(profile.packages(), node->arch())
                           ->tree),
              images_before[i])
        << hosts[i];
  }

  // A second reinstall drops every change.
  const std::uint64_t builds = shared->frontend().install_images().builds();
  shared->reinstall_all();
  copied->reinstall_all();
  for (cluster::Cluster* c : {shared.get(), copied.get()})
    for (cluster::Node* node : c->nodes()) ASSERT_TRUE(node->is_running()) << node->hostname();
  rebuild_copied();
  expect_twins("after a second reinstall");
  EXPECT_EQ(shared->frontend().install_images().builds(), builds);  // nothing rebuilt
}

}  // namespace
}  // namespace rocks
