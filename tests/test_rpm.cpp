// Unit tests for the RPM substrate: rpmvercmp ordering, EVR parsing,
// repositories, the dependency solver, the installed-package database, and
// the synthetic Red Hat release generator.
#include <gtest/gtest.h>

#include "rpm/package.hpp"
#include "rpm/repository.hpp"
#include "rpm/rpmdb.hpp"
#include "rpm/solver.hpp"
#include "rpm/synth.hpp"
#include "rpm/version.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "vfs/filesystem.hpp"

namespace rocks::rpm {
namespace {

struct VerCase {
  const char* a;
  const char* b;
  int expected;
};

// Names each case by its contents; the default byte dump shows the pointers,
// which change from build to build.
void PrintTo(const VerCase& c, std::ostream* os) {
  *os << "'" << c.a << "' vs '" << c.b << "' = " << c.expected;
}

class RpmVerCmp : public ::testing::TestWithParam<VerCase> {};

TEST_P(RpmVerCmp, MatchesRedHatSemantics) {
  const auto& c = GetParam();
  EXPECT_EQ(rpmvercmp(c.a, c.b), c.expected) << c.a << " vs " << c.b;
  EXPECT_EQ(rpmvercmp(c.b, c.a), -c.expected) << "antisymmetry";
}

// Cases lifted from rpm's own test vectors.
INSTANTIATE_TEST_SUITE_P(
    Vectors, RpmVerCmp,
    ::testing::Values(VerCase{"1.0", "1.0", 0}, VerCase{"1.0", "2.0", -1},
                      VerCase{"2.0.1", "2.0", 1}, VerCase{"2.0", "2.0.1", -1},
                      VerCase{"5.5p1", "5.5p2", -1}, VerCase{"5.5p10", "5.5p1", 1},
                      VerCase{"10xyz", "10.1xyz", -1}, VerCase{"xyz10", "xyz10.1", -1},
                      VerCase{"xyz.4", "8", -1},   // numeric beats alpha
                      VerCase{"1.0010", "1.9", 1},  // longer stripped number wins
                      VerCase{"1.05", "1.5", 0},    // leading zeros stripped
                      VerCase{"2.4", "2.4.1", -1},
                      VerCase{"fc4", "fc.4", 0},    // separators ignored
                      VerCase{"1b.fc17", "1.fc17", -1},
                      VerCase{"1.fc17", "1g.fc17", -1},
                      VerCase{"1.0~rc1", "1.0", -1},  // tilde sorts first
                      VerCase{"1.0~rc1", "1.0~rc2", -1},
                      VerCase{"1.0~rc1~git123", "1.0~rc1", -1},
                      VerCase{"a", "a", 0}, VerCase{"a+", "a+", 0},
                      VerCase{"20101121", "20101122", -1}));

// Property test: rpmvercmp must be a consistent ordering — reflexive,
// antisymmetric, and transitive — over arbitrary version strings, or
// rocks-dist's "keep the newest" resolution would be seed-dependent.
class RpmVerCmpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RpmVerCmpProperty, TotalOrderProperties) {
  rocks::Rng rng(GetParam());
  const auto random_version = [&rng] {
    static constexpr char kAlphabet[] = "0123456789abcXY.~-_";
    std::string out;
    const int len = 1 + static_cast<int>(rng.next_below(10));
    for (int i = 0; i < len; ++i)
      out += kAlphabet[rng.next_below(sizeof kAlphabet - 1)];
    return out;
  };
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = random_version();
    const std::string b = random_version();
    const std::string c = random_version();
    EXPECT_EQ(rpmvercmp(a, a), 0) << a;
    EXPECT_EQ(rpmvercmp(a, b), -rpmvercmp(b, a)) << a << " / " << b;
    // Transitivity: a<=b and b<=c implies a<=c.
    if (rpmvercmp(a, b) <= 0 && rpmvercmp(b, c) <= 0) {
      EXPECT_LE(rpmvercmp(a, c), 0) << a << " / " << b << " / " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpmVerCmpProperty, ::testing::Values(1, 2, 3, 4, 5));

TEST(Evr, ParseForms) {
  const Evr full = Evr::parse("1:2.4.9-31");
  EXPECT_EQ(full.epoch, 1);
  EXPECT_EQ(full.version, "2.4.9");
  EXPECT_EQ(full.release, "31");
  const Evr vr = Evr::parse("2.4.9-31");
  EXPECT_EQ(vr.epoch, 0);
  EXPECT_EQ(vr.release, "31");
  const Evr v = Evr::parse("2.4.9");
  EXPECT_TRUE(v.release.empty());
  EXPECT_THROW(Evr::parse(":-"), ParseError);
  EXPECT_THROW(Evr::parse("x:1.0"), ParseError);
}

TEST(Evr, EpochDominates) {
  EXPECT_LT(Evr::parse("9.9-9"), Evr::parse("1:0.1-1"));
  EXPECT_EQ(Evr::parse("1.0-1").compare(Evr::parse("1.0-1")), 0);
  EXPECT_LT(Evr::parse("1.0-1"), Evr::parse("1.0-2"));
}

TEST(Evr, RoundTripToString) {
  EXPECT_EQ(Evr::parse("1:2.0-3").to_string(), "1:2.0-3");
  EXPECT_EQ(Evr::parse("2.0-3").to_string(), "2.0-3");
  EXPECT_EQ(Evr::parse("2.0").to_string(), "2.0");
}

TEST(PackageModel, LabelsAndUpgrade) {
  Package a;
  a.name = "dhcp";
  a.evr = Evr::parse("2.0-5");
  a.arch = "i386";
  EXPECT_EQ(a.nvr(), "dhcp-2.0-5");
  EXPECT_EQ(a.nevra(), "dhcp-2.0-5.i386");
  EXPECT_EQ(a.filename(), "dhcp-2.0-5.i386.rpm");
  Package b = a;
  b.evr = Evr::parse("2.0-6");
  EXPECT_TRUE(b.upgrades(a));
  EXPECT_FALSE(a.upgrades(b));
  b.arch = "ia64";
  EXPECT_FALSE(b.upgrades(a));  // different arch
}

TEST(PackageModel, ParseNvrWithDashedNames) {
  const NvrParts parts = parse_nvr("kernel-headers-2.4.9-31");
  EXPECT_EQ(parts.name, "kernel-headers");
  EXPECT_EQ(parts.evr.version, "2.4.9");
  EXPECT_EQ(parts.evr.release, "31");
  EXPECT_THROW(parse_nvr("nodashes"), ParseError);
}

Package mk(const std::string& name, const std::string& evr,
           std::vector<std::string> reqs = {}, const std::string& arch = "i386") {
  Package pkg;
  pkg.name = name;
  pkg.evr = Evr::parse(evr);
  pkg.arch = arch;
  pkg.size_bytes = 1000;
  pkg.requires_names = std::move(reqs);
  pkg.files = {"/usr/bin/" + name};
  return pkg;
}

TEST(RepositoryTest, NewestAcrossVersions) {
  Repository repo("r");
  repo.add(mk("glibc", "2.2.4-13"));
  repo.add(mk("glibc", "2.2.4-19.3"));
  repo.add(mk("glibc", "2.2.4-19"));
  ASSERT_NE(repo.newest("glibc"), nullptr);
  EXPECT_EQ(repo.newest("glibc")->evr.to_string(), "2.2.4-19.3");
  EXPECT_EQ(repo.versions("glibc").size(), 3u);
  EXPECT_EQ(repo.versions("glibc").front()->evr.to_string(), "2.2.4-13");
  EXPECT_EQ(repo.newest("nothere"), nullptr);
}

TEST(RepositoryTest, ArchFiltering) {
  Repository repo("r");
  repo.add(mk("kernel", "2.4.9-31", {}, "i386"));
  repo.add(mk("kernel", "2.4.9-31", {}, "ia64"));
  repo.add(mk("crontabs", "1.10-1", {}, "noarch"));
  EXPECT_EQ(repo.newest("kernel", "ia64")->arch, "ia64");
  EXPECT_EQ(repo.newest("crontabs", "ia64")->arch, "noarch");  // noarch matches all
  EXPECT_EQ(repo.newest("kernel", "alpha"), nullptr);
}

TEST(RepositoryTest, ProviderThroughProvides) {
  Repository repo("r");
  Package mta = mk("sendmail", "8.11-1");
  mta.provides.push_back("smtpdaemon");
  repo.add(std::move(mta));
  ASSERT_NE(repo.provider("smtpdaemon"), nullptr);
  EXPECT_EQ(repo.provider("smtpdaemon")->name, "sendmail");
  EXPECT_EQ(repo.provider("nosuch"), nullptr);
}

TEST(RepositoryTest, ResolveNewestOnePerNameArch) {
  Repository repo("r");
  repo.add(mk("a", "1-1"));
  repo.add(mk("a", "1-2"));
  repo.add(mk("a", "1-2", {}, "ia64"));
  repo.add(mk("b", "5-1"));
  const auto resolved = repo.resolve_newest();
  ASSERT_EQ(resolved.size(), 3u);  // a.i386, a.ia64, b.i386
  EXPECT_EQ(resolved[0]->evr.to_string(), "1-2");
}

TEST(SolverTest, TransitiveClosureInDependencyOrder) {
  Repository repo("r");
  repo.add(mk("glibc", "2.2-1"));
  repo.add(mk("bash", "2.05-8", {"glibc"}));
  repo.add(mk("openssl", "0.9.6-3", {"glibc"}));
  repo.add(mk("openssh", "2.9-1", {"openssl", "glibc"}));
  const Resolution r = resolve(repo, {"openssh", "bash"});
  ASSERT_TRUE(r.complete());
  ASSERT_EQ(r.install_order.size(), 4u);
  auto pos = [&](const std::string& name) {
    for (std::size_t i = 0; i < r.install_order.size(); ++i)
      if (r.install_order[i]->name == name) return i;
    return std::size_t(999);
  };
  EXPECT_LT(pos("glibc"), pos("bash"));
  EXPECT_LT(pos("glibc"), pos("openssl"));
  EXPECT_LT(pos("openssl"), pos("openssh"));
  EXPECT_EQ(r.total_bytes(), 4000u);
}

TEST(SolverTest, ReportsMissingRequirements) {
  Repository repo("r");
  repo.add(mk("mpich", "1.2-1", {"gcc"}));
  const Resolution r = resolve(repo, {"mpich", "ghost"});
  EXPECT_FALSE(r.complete());
  EXPECT_EQ(r.missing, (std::vector<std::string>{"gcc", "ghost"}));
  EXPECT_EQ(r.install_order.size(), 1u);  // mpich still scheduled
}

TEST(SolverTest, BreaksCyclesDeterministically) {
  Repository repo("r");
  repo.add(mk("glibc", "2.2-1", {"bash"}));
  repo.add(mk("bash", "2.05-8", {"glibc"}));
  const Resolution r = resolve(repo, {"bash"});
  ASSERT_TRUE(r.complete());
  ASSERT_EQ(r.install_order.size(), 2u);
  // Both orders are valid for a cycle; determinism is what matters.
  const Resolution r2 = resolve(repo, {"bash"});
  EXPECT_EQ(r.install_order[0]->name, r2.install_order[0]->name);
}

TEST(SolverTest, SatisfiesViaProvides) {
  Repository repo("r");
  Package mta = mk("sendmail", "8.11-1");
  mta.provides.push_back("smtpdaemon");
  repo.add(std::move(mta));
  repo.add(mk("mutt", "1.2-1", {"smtpdaemon"}));
  const Resolution r = resolve(repo, {"mutt"});
  ASSERT_TRUE(r.complete());
  EXPECT_EQ(r.install_order.size(), 2u);
}

TEST(RpmDbTest, InstallMaterializesFiles) {
  vfs::FileSystem fs;
  RpmDatabase db;
  Package pkg = mk("dhcp", "2.0-5");
  pkg.size_bytes = 9000;
  pkg.files = {"/usr/sbin/dhcpd", "/etc/dhcpd.conf.sample"};
  db.install(pkg, fs);
  EXPECT_TRUE(db.installed("dhcp"));
  EXPECT_TRUE(fs.is_file("/usr/sbin/dhcpd"));
  EXPECT_EQ(fs.logical_size("/usr/sbin/dhcpd") + fs.logical_size("/etc/dhcpd.conf.sample"),
            9000u + fs.read_file("/usr/sbin/dhcpd").size() +
                fs.read_file("/etc/dhcpd.conf.sample").size());
}

TEST(RpmDbTest, UpgradeReplacesOldFiles) {
  vfs::FileSystem fs;
  RpmDatabase db;
  Package v1 = mk("tool", "1.0-1");
  v1.files = {"/usr/bin/tool", "/usr/lib/tool-1.0.so"};
  db.install(v1, fs);
  Package v2 = mk("tool", "2.0-1");
  v2.files = {"/usr/bin/tool"};
  db.install(v2, fs);
  EXPECT_EQ(db.find("tool")->evr.to_string(), "2.0-1");
  EXPECT_FALSE(fs.exists("/usr/lib/tool-1.0.so"));  // old file gone
  EXPECT_EQ(db.package_count(), 1u);
}

TEST(RpmDbTest, EraseRemovesFiles) {
  vfs::FileSystem fs;
  RpmDatabase db;
  db.install(mk("x", "1-1"), fs);
  EXPECT_TRUE(db.erase("x", fs));
  EXPECT_FALSE(fs.exists("/usr/bin/x"));
  EXPECT_FALSE(db.erase("x", fs));
}

TEST(RpmDbTest, FingerprintTracksManifest) {
  vfs::FileSystem fs1, fs2;
  RpmDatabase a, b;
  a.install(mk("p1", "1-1"), fs1);
  a.install(mk("p2", "1-1"), fs1);
  b.install(mk("p2", "1-1"), fs2);
  b.install(mk("p1", "1-1"), fs2);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());  // order independent
  b.install(mk("p1", "1-2"), fs2);
  EXPECT_NE(a.fingerprint(), b.fingerprint());  // version visible
}

TEST(RpmDbTest, StaleAgainstRepo) {
  vfs::FileSystem fs;
  RpmDatabase db;
  db.install(mk("openssl", "0.9.6-3"), fs);
  db.install(mk("bash", "2.05-8"), fs);
  Repository repo("updates");
  repo.add(mk("openssl", "0.9.6b-8"));
  repo.add(mk("bash", "2.05-8"));
  const auto stale = db.stale_against(repo);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0]->name, "openssl");
}

TEST(SynthTest, ComputeClosureCalibratedTo225MB) {
  const SynthDistro distro = make_redhat_release();
  const Resolution r = resolve(distro.repo, distro.compute_set());
  EXPECT_TRUE(r.complete()) << "missing: " << (r.missing.empty() ? "" : r.missing[0]);
  const double mb = static_cast<double>(r.total_bytes()) / (1024.0 * 1024.0);
  EXPECT_NEAR(mb, 225.0, 7.0);  // paper: "approximately 225 MB"
}

TEST(SynthTest, RealisticScale) {
  const SynthDistro distro = make_redhat_release();
  EXPECT_GT(distro.repo.package_count(), 600u);
  // Mirror carries a real distribution's bulk (hundreds of MB at least).
  EXPECT_GT(distro.repo.total_bytes(), 400ull * 1024 * 1024);
}

TEST(SynthTest, DeterministicForSameSeed) {
  const SynthDistro a = make_redhat_release();
  const SynthDistro b = make_redhat_release();
  EXPECT_EQ(a.repo.package_count(), b.repo.package_count());
  EXPECT_EQ(a.repo.total_bytes(), b.repo.total_bytes());
}

TEST(SynthTest, FrontendSupersetOfCompute) {
  const SynthDistro distro = make_redhat_release();
  const Resolution fe = resolve(distro.repo, distro.frontend_set());
  const Resolution cn = resolve(distro.repo, distro.compute_set());
  EXPECT_TRUE(fe.complete());
  EXPECT_GT(fe.install_order.size(), cn.install_order.size());
}

TEST(SynthTest, UpdateStreamMatchesPaperRates) {
  const SynthDistro distro = make_redhat_release();
  const auto stream = make_update_stream(distro);
  EXPECT_EQ(stream.size(), 124u);
  int security = 0;
  for (const auto& u : stream) {
    EXPECT_GE(u.day, 0);
    EXPECT_LE(u.day, 360);
    EXPECT_EQ(u.package.origin, Origin::kUpdate);
    EXPECT_TRUE(distro.repo.contains(u.package.name));
    if (u.package.security_fix) ++security;
  }
  EXPECT_EQ(security, 74);
  // Sorted by day.
  for (std::size_t i = 1; i < stream.size(); ++i) EXPECT_LE(stream[i - 1].day, stream[i].day);
}

TEST(SynthTest, UpdatesAreStrictUpgrades) {
  const SynthDistro distro = make_redhat_release();
  const auto stream = make_update_stream(distro);
  for (const auto& u : stream) {
    const Package* base = distro.repo.newest(u.package.name, u.package.arch);
    ASSERT_NE(base, nullptr);
    EXPECT_TRUE(base->evr < u.package.evr)
        << u.package.nevra() << " does not upgrade " << base->nevra();
  }
}

TEST(SynthTest, MyrinetDriverIsSourcePackage) {
  const SynthDistro distro = make_redhat_release();
  const Package* gm = distro.repo.newest("gm-driver");
  ASSERT_NE(gm, nullptr);
  EXPECT_TRUE(gm->is_source);
  EXPECT_GT(gm->build_seconds, 0.0);
}

}  // namespace
}  // namespace rocks::rpm
