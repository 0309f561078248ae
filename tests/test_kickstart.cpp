// Unit tests for the kickstart engine: node files, the graph, traversal,
// profile rendering/parsing, the generator, and the CGI server against the
// paper's own tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>

#include "kickstart/defaults.hpp"
#include "kickstart/frontend_form.hpp"
#include "kickstart/generator.hpp"
#include "kickstart/graph.hpp"
#include "kickstart/nodefile.hpp"
#include "kickstart/profile.hpp"
#include "kickstart/server.hpp"
#include "rpm/synth.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

namespace rocks::kickstart {
namespace {

TEST(NodeFileTest, ParsesFigure2) {
  const NodeFile file = NodeFile::parse("dhcp-server", figure2_dhcp_server_xml());
  EXPECT_EQ(file.name(), "dhcp-server");
  EXPECT_EQ(file.description(), "Setup the DHCP server for the cluster");
  ASSERT_EQ(file.packages().size(), 1u);
  EXPECT_EQ(file.packages()[0].name, "dhcp");
  ASSERT_EQ(file.posts().size(), 1u);
  EXPECT_NE(file.posts()[0].body.find("DHCPD_INTERFACES"), std::string::npos);
}

TEST(NodeFileTest, RoundTripsThroughXml) {
  const NodeFile original = NodeFile::parse("dhcp-server", figure2_dhcp_server_xml());
  const NodeFile reparsed = NodeFile::parse("dhcp-server", original.to_xml());
  EXPECT_EQ(reparsed.description(), original.description());
  ASSERT_EQ(reparsed.packages().size(), original.packages().size());
  EXPECT_EQ(reparsed.packages()[0].name, original.packages()[0].name);
  ASSERT_EQ(reparsed.posts().size(), original.posts().size());
  EXPECT_EQ(strings::trim(reparsed.posts()[0].body), strings::trim(original.posts()[0].body));
}

TEST(NodeFileTest, ArchSpecificEntries) {
  NodeFile file("boot");
  file.add_package("grub", "i386");
  file.add_package("elilo", "ia64");
  file.add_package("kernel");
  EXPECT_EQ(file.packages_for("i386").size(), 2u);
  EXPECT_EQ(file.packages_for("ia64").size(), 2u);
  EXPECT_EQ(file.packages_for("ia64")[0]->name, "elilo");
}

TEST(NodeFileTest, RejectsBadDocuments) {
  EXPECT_THROW(NodeFile::parse("x", "<WRONG/>"), ParseError);
  EXPECT_THROW(NodeFile::parse("x", "<KICKSTART><PACKAGE></PACKAGE></KICKSTART>"), ParseError);
  EXPECT_THROW(NodeFile::parse("x", "<KICKSTART><UNKNOWN/></KICKSTART>"), ParseError);
}

TEST(NodeFileSetTest, LookupSemantics) {
  NodeFileSet set;
  set.add(NodeFile("mpi"));
  EXPECT_TRUE(set.contains("mpi"));
  EXPECT_FALSE(set.contains("nope"));
  EXPECT_THROW((void)set.get("nope"), LookupError);
  EXPECT_EQ(set.names(), (std::vector<std::string>{"mpi"}));
}

TEST(GraphTest, ParseAndAppliances) {
  const Graph g = Graph::parse(R"(<?XML VERSION="1.0"?>
    <GRAPH>
      <DESCRIPTION>test</DESCRIPTION>
      <EDGE FROM="compute" TO="mpi"/>
      <EDGE FROM="frontend" TO="mpi"/>
      <EDGE FROM="mpi" TO="c-development"/>
    </GRAPH>)");
  EXPECT_EQ(g.edges().size(), 3u);
  EXPECT_EQ(g.appliances(), (std::vector<std::string>{"compute", "frontend"}));
}

TEST(GraphTest, TraversalMatchesPaperFigure4Walk) {
  // "if the machine was configured to be a compute appliance, the traversal
  // of the graph would be the compute, mpi, and c-development node files".
  Graph g;
  g.add_edge("compute", "mpi");
  g.add_edge("mpi", "c-development");
  g.add_edge("frontend", "mpi");
  g.add_edge("frontend", "x11");
  EXPECT_EQ(g.traverse("compute"),
            (std::vector<std::string>{"compute", "mpi", "c-development"}));
  EXPECT_EQ(g.traverse("frontend"),
            (std::vector<std::string>{"frontend", "mpi", "c-development", "x11"}));
}

TEST(GraphTest, SharedModuleVisitedOnce) {
  Graph g;
  g.add_edge("compute", "a");
  g.add_edge("compute", "b");
  g.add_edge("a", "common");
  g.add_edge("b", "common");
  const auto order = g.traverse("compute");
  EXPECT_EQ(order, (std::vector<std::string>{"compute", "a", "common", "b"}));
}

TEST(GraphTest, ArchConditionalEdges) {
  Graph g;
  g.add_edge("compute", "myrinet", "i386");
  g.add_edge("compute", "base");
  EXPECT_EQ(g.traverse("compute", "i386").size(), 3u);
  EXPECT_EQ(g.traverse("compute", "ia64").size(), 2u);  // myrinet edge filtered
  EXPECT_EQ(g.traverse("compute").size(), 3u);          // no arch: everything
}

TEST(GraphTest, CycleToleratedInTraversalReportedByLint) {
  Graph g;
  g.add_edge("a", "b");
  g.add_edge("b", "a");
  EXPECT_TRUE(g.has_cycle());
  EXPECT_EQ(g.traverse("a"), (std::vector<std::string>{"a", "b"}));
  Graph acyclic;
  acyclic.add_edge("a", "b");
  EXPECT_FALSE(acyclic.has_cycle());
}

TEST(GraphTest, UndefinedModulesLint) {
  Graph g;
  g.add_edge("compute", "ghost");
  NodeFileSet files;
  files.add(NodeFile("compute"));
  EXPECT_EQ(g.undefined_modules(files), (std::vector<std::string>{"ghost"}));
}

TEST(GraphTest, DotExportContainsShapes) {
  Graph g;
  g.add_edge("compute", "mpi");
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph rocks"), std::string::npos);
  EXPECT_NE(dot.find("\"compute\" [shape=box"), std::string::npos);
  EXPECT_NE(dot.find("\"compute\" -> \"mpi\""), std::string::npos);
}

TEST(GraphTest, XmlRoundTrip) {
  Graph g;
  g.set_description("d");
  g.add_edge("compute", "mpi", "ia64");
  const Graph r = Graph::parse(g.to_xml());
  ASSERT_EQ(r.edges().size(), 1u);
  EXPECT_EQ(r.edges()[0].from, "compute");
  EXPECT_EQ(r.edges()[0].arch, "ia64");
  EXPECT_EQ(r.description(), "d");
}

TEST(ProfileTest, RenderHasRedHatStructure) {
  KickstartFile ks;
  ks.add_command("install", "");
  ks.add_command("url", "--url http://10.1.1.1/install");
  ks.add_package("dhcp");
  ks.add_package("glibc");
  ks.add_post("dhcp-server", "echo configured");
  const std::string text = ks.render();
  EXPECT_NE(text.find("install\n"), std::string::npos);
  EXPECT_NE(text.find("%packages\ndhcp\nglibc\n"), std::string::npos);
  EXPECT_NE(text.find("%post\n# from node file: dhcp-server\necho configured"),
            std::string::npos);
}

TEST(ProfileTest, ParseRoundTrip) {
  KickstartFile ks;
  ks.add_command("url", "--url http://x/");
  ks.add_command("reboot", "");
  ks.add_package("a");
  ks.add_package("b");
  ks.add_post("m1", "line1\nline2");
  ks.add_post("m2", "other");
  const KickstartFile r = KickstartFile::parse(ks.render());
  EXPECT_EQ(r.command_arguments("url"), "--url http://x/");
  EXPECT_TRUE(r.has_command("reboot"));
  EXPECT_EQ(r.packages(), (std::vector<std::string>{"a", "b"}));
  ASSERT_EQ(r.posts().size(), 2u);
  EXPECT_EQ(r.posts()[0].origin, "m1");
  EXPECT_EQ(strings::trim(r.posts()[0].body), "line1\nline2");
}

TEST(ProfileTest, ParseRejectsUnknownSection) {
  EXPECT_THROW(KickstartFile::parse("%pre\nstuff"), ParseError);
}

class GeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    distro_ = rpm::make_redhat_release();
    config_ = make_default_configuration(distro_);
  }

  NodeConfig node_config(const std::string& appliance) {
    NodeConfig nc;
    nc.hostname = "compute-0-0";
    nc.appliance = appliance;
    nc.ip = Ipv4(10, 255, 255, 254);
    nc.frontend_ip = Ipv4(10, 1, 1, 1);
    nc.distribution_url = "http://10.1.1.1/install/rocks-dist";
    return nc;
  }

  rpm::SynthDistro distro_;
  DefaultConfiguration config_;
};

TEST_F(GeneratorTest, ComputeProfileIsComplete) {
  const Generator gen(config_.files, config_.graph, &distro_.repo);
  const KickstartFile ks = gen.generate(node_config("compute"));
  // Header answers every install question.
  EXPECT_TRUE(ks.has_command("install"));
  EXPECT_NE(ks.command_arguments("url").find("http://10.1.1.1"), std::string::npos);
  EXPECT_TRUE(ks.has_command("reboot"));
  // Package set covers base + mpi + development + myrinet.
  const auto& pkgs = ks.packages();
  for (const char* expected : {"glibc", "mpich", "gcc", "gm-driver", "pbs-mom", "rocks-ekv"})
    EXPECT_NE(std::find(pkgs.begin(), pkgs.end(), expected), pkgs.end()) << expected;
  // No duplicates even though modules overlap.
  std::set<std::string> unique(pkgs.begin(), pkgs.end());
  EXPECT_EQ(unique.size(), pkgs.size());
}

TEST_F(GeneratorTest, LocalizationSubstitutesNodeValues) {
  const Generator gen(config_.files, config_.graph, &distro_.repo);
  const KickstartFile ks = gen.generate(node_config("compute"));
  bool found_frontend = false;
  for (const auto& post : ks.posts()) {
    EXPECT_EQ(post.body.find("@FRONTEND@"), std::string::npos) << "unsubstituted marker";
    if (post.body.find("10.1.1.1") != std::string::npos) found_frontend = true;
  }
  EXPECT_TRUE(found_frontend);
}

TEST_F(GeneratorTest, FrontendSupersetOfCompute) {
  const Generator gen(config_.files, config_.graph, &distro_.repo);
  const auto compute = gen.generate(node_config("compute")).packages();
  const auto frontend = gen.generate(node_config("frontend")).packages();
  EXPECT_GT(frontend.size(), compute.size());
  const std::set<std::string> fe(frontend.begin(), frontend.end());
  for (const char* service : {"dhcp", "mysql-server", "apache", "rocks-dist"})
    EXPECT_TRUE(fe.contains(service)) << service;
}

TEST_F(GeneratorTest, OptionalPackagesPrunedAgainstDistro) {
  NodeFileSet files;
  NodeFile mod("m");
  mod.add_package("glibc");
  mod.add_package("not-in-distro", "", /*optional=*/true);
  mod.add_package("required-missing");  // not optional: kept
  files.add(mod);
  Graph g;
  g.add_edge("m", "m");  // self edge so m is a node; traversal is just m
  const Generator gen(files, g, &distro_.repo);
  auto nc = node_config("m");
  const auto pkgs = gen.generate(nc).packages();
  EXPECT_EQ(pkgs, (std::vector<std::string>{"glibc", "required-missing"}));
}

TEST_F(GeneratorTest, UnknownModuleThrows) {
  Graph g;
  g.add_edge("compute", "ghost-module");
  const Generator gen(config_.files, g, &distro_.repo);
  auto nc = node_config("compute");
  EXPECT_THROW(gen.generate(nc), LookupError);
}

TEST_F(GeneratorTest, PartitionSchemePreservesState) {
  const Generator gen(config_.files, config_.graph, &distro_.repo);
  const KickstartFile ks = gen.generate(node_config("compute"));
  bool found_state_partition = false;
  for (const auto& cmd : ks.commands())
    if (cmd.name == "part" && cmd.arguments.find("/state/partition1") != std::string::npos &&
        cmd.arguments.find("--noformat") != std::string::npos)
      found_state_partition = true;
  EXPECT_TRUE(found_state_partition);
}

// --- appliance profile cache ------------------------------------------------

TEST_F(GeneratorTest, ProfileCacheHitsKeepOutputIdentical) {
  const Generator cached(config_.files, config_.graph, &distro_.repo);
  const std::string first = cached.generate_text(node_config("compute"));
  const std::string second = cached.generate_text(node_config("compute"));
  EXPECT_EQ(cached.profile_cache_misses(), 1u);
  EXPECT_EQ(cached.profile_cache_hits(), 1u);
  EXPECT_EQ(first, second);
  // A fresh generator (cold cache) produces the same bytes.
  const Generator cold(config_.files, config_.graph, &distro_.repo);
  EXPECT_EQ(cold.generate_text(node_config("compute")), first);
}

TEST_F(GeneratorTest, ProfileCacheLocalizesPerNodeOnHits) {
  const Generator gen(config_.files, config_.graph, &distro_.repo);
  NodeConfig a = node_config("compute");
  NodeConfig b = node_config("compute");
  b.hostname = "compute-0-7";
  b.ip = Ipv4(10, 255, 255, 247);
  const std::string text_a = gen.generate_text(a);
  const std::string text_b = gen.generate_text(b);
  EXPECT_EQ(gen.profile_cache_hits(), 1u);  // b rode a's cached profile
  EXPECT_NE(text_a, text_b);
  EXPECT_NE(text_b.find("compute-0-7"), std::string::npos);
  EXPECT_EQ(text_b.find("@HOSTNAME@"), std::string::npos);
  // Same skeleton: identical package manifests.
  EXPECT_EQ(gen.generate(a).packages(), gen.generate(b).packages());
}

TEST_F(GeneratorTest, GraphEditInvalidatesProfileCache) {
  const Generator gen(config_.files, config_.graph, &distro_.repo);
  const auto before = gen.generate(node_config("compute")).packages();
  EXPECT_NE(std::find(before.begin(), before.end(), "gm-driver"), before.end());
  ASSERT_EQ(config_.graph.remove_edge("compute", "myrinet"), 1u);
  const auto after = gen.generate(node_config("compute")).packages();
  EXPECT_EQ(std::find(after.begin(), after.end(), "gm-driver"), after.end());
  EXPECT_EQ(gen.profile_cache_misses(), 2u);  // second build, not a stale hit
}

TEST_F(GeneratorTest, NodeFileEditInvalidatesProfileCache) {
  const Generator gen(config_.files, config_.graph, &distro_.repo);
  const auto before = gen.generate(node_config("compute")).packages();
  EXPECT_EQ(std::find(before.begin(), before.end(), "strace"), before.end());
  config_.files.get_mutable("base").add_package("strace");
  const auto after = gen.generate(node_config("compute")).packages();
  EXPECT_NE(std::find(after.begin(), after.end(), "strace"), after.end());
}

TEST_F(GeneratorTest, DistroEditInvalidatesProfileCache) {
  NodeFileSet files;
  NodeFile mod("m");
  mod.add_package("glibc");
  mod.add_package("late-arrival", "", /*optional=*/true);
  files.add(mod);
  Graph g;
  g.add_edge("m", "m");
  rpm::Repository repo;
  {
    rpm::Package pkg;
    pkg.name = "glibc";
    pkg.evr = rpm::Evr::parse("2.2.4-13");
    pkg.arch = "i386";
    repo.add(pkg);
  }
  const Generator gen(files, g, &repo);
  auto nc = node_config("m");
  EXPECT_EQ(gen.generate(nc).packages(), (std::vector<std::string>{"glibc"}));
  EXPECT_EQ(gen.profile_cache_misses(), 1u);
  // No bus and no call: the generator polls the repository's revision, so
  // the next request sees the added package.
  const std::uint64_t revision = repo.revision();
  rpm::Package pkg;
  pkg.name = "late-arrival";
  pkg.evr = rpm::Evr::parse("1.0-1");
  pkg.arch = "i386";
  repo.add(pkg);
  EXPECT_NE(repo.revision(), revision);
  EXPECT_EQ(gen.generate(nc).packages(),
            (std::vector<std::string>{"glibc", "late-arrival"}));
  EXPECT_EQ(gen.profile_cache_misses(), 2u);
  // An unchanged repository keeps serving the cached profile.
  EXPECT_EQ(gen.generate(nc).packages(),
            (std::vector<std::string>{"glibc", "late-arrival"}));
  EXPECT_EQ(gen.profile_cache_misses(), 2u);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    distro_ = rpm::make_redhat_release();
    config_ = make_default_configuration(distro_);
    ensure_cluster_schema(db_);
    insert_node_row(db_, "00:30:c1:d8:ac:80", "frontend-0", 1, 0, 0, "10.1.1.1");
    insert_node_row(db_, "00:50:8b:e0:3a:a7", "compute-0-0", 2, 0, 0, "10.255.255.254");
    insert_node_row(db_, "00:01:e7:1a:be:00", "network-0-0", 4, 0, 0, "10.255.255.253");
    server_ = std::make_unique<KickstartServer>(db_, config_.files, config_.graph,
                                                Ipv4(10, 1, 1, 1),
                                                "http://10.1.1.1/install/rocks-dist",
                                                &distro_.repo);
  }

  rpm::SynthDistro distro_;
  DefaultConfiguration config_;
  sqldb::Database db_;
  std::unique_ptr<KickstartServer> server_;
};

TEST_F(ServerTest, ResolvesComputeNodeByIp) {
  const NodeConfig nc = server_->resolve(Ipv4(10, 255, 255, 254));
  EXPECT_EQ(nc.hostname, "compute-0-0");
  EXPECT_EQ(nc.appliance, "compute");
  EXPECT_EQ(nc.arch, "i386");
}

TEST_F(ServerTest, ServesDifferentProfilesPerAppliance) {
  const std::string compute = server_->handle_request(Ipv4(10, 255, 255, 254));
  const std::string frontend = server_->handle_request(Ipv4(10, 1, 1, 1));
  EXPECT_NE(compute, frontend);
  EXPECT_NE(compute.find("pbs-mom"), std::string::npos);
  EXPECT_NE(frontend.find("mysql-server"), std::string::npos);
  EXPECT_EQ(server_->requests_served(), 2u);
}

TEST_F(ServerTest, UnknownIpRejected) {
  EXPECT_THROW(server_->handle_request(Ipv4(10, 9, 9, 9)), LookupError);
}

TEST_F(ServerTest, NonKickstartableApplianceRejected) {
  // network-0-0 is an Ethernet switch (membership 4 -> appliance with no
  // graph root).
  EXPECT_THROW(server_->handle_request(Ipv4(10, 255, 255, 253)), LookupError);
}

TEST_F(ServerTest, SchemaSeedsPaperTableIII) {
  const auto rows = db_.execute("SELECT name, compute FROM memberships WHERE id <= 6 ORDER BY id");
  ASSERT_EQ(rows.row_count(), 6u);
  EXPECT_EQ(rows.rows[0][0].as_text(), "Frontend");
  EXPECT_EQ(rows.rows[1][0].as_text(), "Compute");
  EXPECT_EQ(rows.rows[1][1].as_text(), "yes");
  EXPECT_EQ(rows.rows[5][0].as_text(), "Power Units");
}

TEST_F(ServerTest, InsertNodeRowReadsQuotedTextBackVerbatim) {
  // A site comment carrying quotes is a bound value: it cannot break the
  // INSERT.
  const std::string comment = "o'brien's rack, ''spare'' PSU";
  insert_node_row(db_, "00:50:8b:e0:3a:a8", "compute-0-1", 2, 0, 1, "10.255.255.252", "i386",
                  comment);
  const auto rows = db_.execute("SELECT comment FROM nodes WHERE name = 'compute-0-1'");
  ASSERT_EQ(rows.row_count(), 1u);
  EXPECT_EQ(rows.rows[0][0].as_text(), comment);
}

TEST_F(ServerTest, DefaultGraphLintClean) {
  EXPECT_TRUE(config_.graph.undefined_modules(config_.files).empty());
  EXPECT_FALSE(config_.graph.has_cycle());
}

TEST_F(ServerTest, ServerStaysCorrectAfterGraphEdit) {
  const std::string before = server_->handle_request(Ipv4(10, 255, 255, 254));
  EXPECT_NE(before.find("gm-driver"), std::string::npos);
  ASSERT_EQ(config_.graph.remove_edge("compute", "myrinet"), 1u);
  const std::string after = server_->handle_request(Ipv4(10, 255, 255, 254));
  EXPECT_EQ(after.find("gm-driver"), std::string::npos)
      << "profile cache served a stale appliance skeleton";
  // Repeat requests hit the rebuilt cache entry.
  EXPECT_EQ(server_->handle_request(Ipv4(10, 255, 255, 254)), after);
  EXPECT_GE(server_->generator().profile_cache_hits(), 1u);
}

TEST_F(ServerTest, HandleManyMatchesSerialRequests) {
  const std::vector<Ipv4> ips = {Ipv4(10, 255, 255, 254), Ipv4(10, 1, 1, 1),
                                 Ipv4(10, 255, 255, 254)};
  std::vector<std::string> expected;
  for (const Ipv4 ip : ips) expected.push_back(server_->handle_request(ip));

  support::ThreadPool pool(4);
  const auto report = server_->handle_many(pool, ips);
  EXPECT_EQ(report.served, ips.size());
  EXPECT_EQ(report.failed, 0u);
  for (std::size_t i = 0; i < ips.size(); ++i) {
    EXPECT_EQ(report.results[i], expected[i]) << "request " << i;
    EXPECT_TRUE(report.errors[i].empty());
  }
  EXPECT_EQ(server_->requests_served(), 2 * ips.size());
}

TEST_F(ServerTest, HandleManyIsolatesPerRequestFailures) {
  support::ThreadPool pool(2);
  const auto report =
      server_->handle_many(pool, {Ipv4(10, 255, 255, 254), Ipv4(10, 9, 9, 9)});
  EXPECT_EQ(report.served, 1u);
  EXPECT_EQ(report.failed, 1u);
  EXPECT_TRUE(report.errors[0].empty());
  EXPECT_NE(report.errors[1].find("unknown address"), std::string::npos);
  EXPECT_TRUE(report.results[1].empty());
}

TEST_F(ServerTest, GraphRemoveEdge) {
  Graph& g = config_.graph;
  const std::size_t before = g.edges().size();
  EXPECT_EQ(g.remove_edge("compute", "myrinet"), 1u);
  EXPECT_EQ(g.edges().size(), before - 1);
  EXPECT_EQ(g.remove_edge("compute", "myrinet"), 0u);
  const auto walk = g.traverse("compute");
  EXPECT_EQ(std::find(walk.begin(), walk.end(), "myrinet"), walk.end());
}

class FrontendFormTest : public ::testing::Test {
 protected:
  void SetUp() override {
    distro_ = rpm::make_redhat_release();
    config_ = make_default_configuration(distro_);
  }
  rpm::SynthDistro distro_;
  DefaultConfiguration config_;
};

TEST_F(FrontendFormTest, BuildsDualHomedFrontendProfile) {
  FormAnswers answers;
  answers.cluster_name = "Meteor";
  answers.frontend_hostname = "meteor";
  const KickstartFile ks =
      build_frontend_kickstart(answers, config_.files, config_.graph, &distro_.repo);

  // Two static network commands: eth0 private, eth1 public.
  int networks = 0;
  bool eth0_private = false, eth1_public = false;
  for (const auto& cmd : ks.commands()) {
    if (cmd.name != "network") continue;
    ++networks;
    if (cmd.arguments.find("eth0") != std::string::npos &&
        cmd.arguments.find("10.1.1.1") != std::string::npos)
      eth0_private = true;
    if (cmd.arguments.find("eth1") != std::string::npos &&
        cmd.arguments.find("198.202.75.1") != std::string::npos)
      eth1_public = true;
  }
  EXPECT_EQ(networks, 2);
  EXPECT_TRUE(eth0_private);
  EXPECT_TRUE(eth1_public);

  // Frontend package set and the form's own post section.
  const std::set<std::string> pkgs(ks.packages().begin(), ks.packages().end());
  EXPECT_TRUE(pkgs.contains("mysql-server"));
  EXPECT_TRUE(pkgs.contains("dhcp"));
  ASSERT_FALSE(ks.posts().empty());
  EXPECT_EQ(ks.posts()[0].origin, "frontend-form");
  EXPECT_NE(ks.posts()[0].body.find("Meteor"), std::string::npos);
}

TEST_F(FrontendFormTest, ValidationRejectsBrokenForms) {
  FormAnswers bad;
  bad.frontend_hostname = "  ";
  EXPECT_THROW(build_frontend_kickstart(bad, config_.files, config_.graph), ParseError);
  FormAnswers same_ip;
  same_ip.public_ip = same_ip.private_ip;
  EXPECT_THROW(build_frontend_kickstart(same_ip, config_.files, config_.graph), ParseError);
  FormAnswers no_pw;
  no_pw.root_password_crypted = "";
  EXPECT_THROW(build_frontend_kickstart(no_pw, config_.files, config_.graph), ParseError);
  FormAnswers ok;
  EXPECT_NO_THROW(ok.validate());
}

}  // namespace
}  // namespace rocks::kickstart
