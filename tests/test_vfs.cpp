// Unit tests for the virtual filesystem: paths, CRUD, symlinks, partitions,
// and the accounting rocks-dist relies on.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "vfs/filesystem.hpp"
#include "vfs/path.hpp"

namespace rocks::vfs {
namespace {

struct NormCase {
  const char* input;
  const char* expected;
};

// Names each case by its contents; the default byte dump shows the pointers,
// which change from build to build.
void PrintTo(const NormCase& c, std::ostream* os) {
  *os << "'" << c.input << "' -> '" << c.expected << "'";
}

class NormalizeTest : public ::testing::TestWithParam<NormCase> {};

TEST_P(NormalizeTest, Normalizes) {
  EXPECT_EQ(normalize(GetParam().input), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(Paths, NormalizeTest,
                         ::testing::Values(NormCase{"/", "/"}, NormCase{"", "/"},
                                           NormCase{"/a/b", "/a/b"},
                                           NormCase{"/a//b/", "/a/b"},
                                           NormCase{"/a/./b", "/a/b"},
                                           NormCase{"/a/b/..", "/a"},
                                           NormCase{"/../..", "/"},
                                           NormCase{"relative/x", "/relative/x"},
                                           NormCase{"/a/b/../../c", "/c"}));

TEST(Path, JoinAndDirname) {
  EXPECT_EQ(join("/a", "b/c"), "/a/b/c");
  EXPECT_EQ(join("/a", "/abs"), "/abs");
  EXPECT_EQ(dirname("/a/b"), "/a");
  EXPECT_EQ(dirname("/a"), "/");
  EXPECT_EQ(dirname("/"), "/");
  EXPECT_EQ(basename("/a/b"), "b");
  EXPECT_EQ(basename("/"), "");
}

TEST(Path, IsWithin) {
  EXPECT_TRUE(is_within("/a/b", "/a"));
  EXPECT_TRUE(is_within("/a", "/a"));
  EXPECT_FALSE(is_within("/ab", "/a"));
  EXPECT_TRUE(is_within("/anything", "/"));
}

class FsTest : public ::testing::Test {
 protected:
  FileSystem fs;
};

TEST_F(FsTest, MkdirAndList) {
  fs.mkdir("/etc");
  fs.mkdir_p("/usr/share/doc");
  EXPECT_TRUE(fs.is_directory("/usr/share"));
  fs.write_file("/etc/hosts", "127.0.0.1 localhost\n");
  EXPECT_EQ(fs.list("/etc"), (std::vector<std::string>{"hosts"}));
  EXPECT_THROW(fs.list("/etc/hosts"), IoError);
  EXPECT_THROW(fs.list("/nope"), IoError);
}

TEST_F(FsTest, MkdirRequiresParent) {
  EXPECT_THROW(fs.mkdir("/a/b"), IoError);
  fs.mkdir("/a");
  fs.mkdir("/a/b");
  EXPECT_THROW(fs.mkdir("/a/b"), IoError);  // already exists
  EXPECT_NO_THROW(fs.mkdir_p("/a/b"));      // mkdir_p tolerates it
}

TEST_F(FsTest, WriteAndReadFile) {
  fs.mkdir("/etc");
  fs.write_file("/etc/motd", "hello");
  EXPECT_EQ(fs.read_file("/etc/motd"), "hello");
  fs.write_file("/etc/motd", "replaced");
  EXPECT_EQ(fs.read_file("/etc/motd"), "replaced");
  fs.append_file("/etc/motd", "!");
  EXPECT_EQ(fs.read_file("/etc/motd"), "replaced!");
  EXPECT_THROW((void)fs.read_file("/etc/nothing"), IoError);
  EXPECT_THROW((void)fs.read_file("/etc"), IoError);
}

TEST_F(FsTest, SymlinkResolution) {
  fs.mkdir_p("/mirror/redhat");
  fs.write_file("/mirror/redhat/pkg.rpm", "bytes");
  fs.mkdir_p("/dist");
  fs.symlink("/mirror/redhat/pkg.rpm", "/dist/pkg.rpm");
  EXPECT_TRUE(fs.is_symlink("/dist/pkg.rpm"));
  EXPECT_TRUE(fs.is_file("/dist/pkg.rpm"));  // follows the link
  EXPECT_EQ(fs.read_file("/dist/pkg.rpm"), "bytes");
  EXPECT_EQ(fs.readlink("/dist/pkg.rpm"), "/mirror/redhat/pkg.rpm");
  EXPECT_EQ(fs.resolve("/dist/pkg.rpm"), "/mirror/redhat/pkg.rpm");
}

TEST_F(FsTest, RelativeSymlinkResolvesAgainstItsDirectory) {
  fs.mkdir_p("/a/real");
  fs.write_file("/a/real/f", "x");
  fs.symlink("real/f", "/a/link");
  EXPECT_EQ(fs.read_file("/a/link"), "x");
}

TEST_F(FsTest, SymlinkThroughDirectoryComponent) {
  fs.mkdir_p("/data/v1");
  fs.write_file("/data/v1/file", "v1");
  fs.symlink("/data/v1", "/current");
  EXPECT_EQ(fs.read_file("/current/file"), "v1");
}

TEST_F(FsTest, SymlinkLoopDetected) {
  fs.symlink("/b", "/a");
  fs.symlink("/a", "/b");
  EXPECT_FALSE(fs.resolve("/a").has_value());
  EXPECT_FALSE(fs.exists("/a"));
}

TEST_F(FsTest, DanglingSymlink) {
  fs.symlink("/nowhere", "/dangling");
  EXPECT_TRUE(fs.is_symlink("/dangling"));
  EXPECT_FALSE(fs.exists("/dangling"));  // follow fails
  EXPECT_THROW((void)fs.read_file("/dangling"), IoError);
}

TEST_F(FsTest, RemoveRecursive) {
  fs.mkdir_p("/tree/a/b");
  fs.write_file("/tree/a/b/f", "x");
  EXPECT_TRUE(fs.remove("/tree"));
  EXPECT_FALSE(fs.exists("/tree"));
  EXPECT_FALSE(fs.remove("/tree"));
  EXPECT_THROW(fs.remove("/"), IoError);
}

TEST_F(FsTest, WalkVisitsEverythingInOrder) {
  fs.mkdir_p("/r/a");
  fs.write_file("/r/a/f1", "1");
  fs.write_file("/r/b", "2");
  std::vector<std::string> seen;
  fs.walk("/r", [&](const std::string& path, const Stat&) { seen.push_back(path); });
  EXPECT_EQ(seen, (std::vector<std::string>{"/r", "/r/a", "/r/a/f1", "/r/b"}));
}

TEST_F(FsTest, DiskUsageBlockRounded) {
  fs.mkdir("/d");
  fs.write_file("/d/small", "x");                        // 1 block
  fs.write_file("/d/big", "", 2 * kBlockSize + 1);       // 3 blocks
  fs.symlink("/d/small", "/d/link");                     // 1 block
  // dir + small + big + link = 1 + 1 + 3 + 1 blocks
  EXPECT_EQ(fs.disk_usage("/d"), 6 * kBlockSize);
  EXPECT_EQ(fs.logical_size("/d"), 1 + 2 * kBlockSize + 1);
}

TEST_F(FsTest, CountByType) {
  fs.mkdir_p("/x/y");
  fs.write_file("/x/f", "");
  fs.symlink("/x/f", "/x/l");
  EXPECT_EQ(fs.count("/x", NodeType::kFile), 1u);
  EXPECT_EQ(fs.count("/x", NodeType::kSymlink), 1u);
  EXPECT_EQ(fs.count("/x", NodeType::kDirectory), 2u);  // /x and /x/y
}

TEST_F(FsTest, FileHashDetectsContentAndPayloadChanges) {
  fs.mkdir("/e");
  fs.write_file("/e/f", "same", 10);
  const auto h1 = fs.file_hash("/e/f");
  fs.write_file("/e/f", "same", 11);
  const auto h2 = fs.file_hash("/e/f");
  fs.write_file("/e/f", "diff", 10);
  const auto h3 = fs.file_hash("/e/f");
  EXPECT_NE(h1, h2);
  EXPECT_NE(h1, h3);
  fs.write_file("/e/f", "same", 10);
  EXPECT_EQ(fs.file_hash("/e/f"), h1);
}

TEST_F(FsTest, PartitionSurvivesWipe) {
  fs.add_partition("/state");
  fs.mkdir_p("/etc");
  fs.write_file("/etc/hosts", "stale");
  fs.write_file("/state/experiment.dat", "precious");
  fs.wipe_root_partition();
  EXPECT_FALSE(fs.exists("/etc/hosts"));
  EXPECT_TRUE(fs.exists("/state/experiment.dat"));
  EXPECT_EQ(fs.read_file("/state/experiment.dat"), "precious");
}

TEST_F(FsTest, WipeWithoutPartitionsClearsEverything) {
  fs.mkdir_p("/a/b");
  fs.write_file("/a/b/f", "x");
  fs.wipe_root_partition();
  EXPECT_FALSE(fs.exists("/a"));
  EXPECT_TRUE(fs.is_directory("/"));
}

TEST_F(FsTest, CopyTreeDeepCopies) {
  FileSystem src;
  src.mkdir_p("/t/d");
  src.write_file("/t/f", "data", 100);
  src.symlink("/t/f", "/t/l");
  fs.mkdir_p("/dst");
  fs.copy_tree(src, "/t", "/dst/t");
  EXPECT_EQ(fs.read_file("/dst/t/f"), "data");
  EXPECT_TRUE(fs.is_directory("/dst/t/d"));
  EXPECT_EQ(fs.readlink("/dst/t/l"), "/t/f");
  src.write_file("/t/f", "mutated");
  EXPECT_EQ(fs.read_file("/dst/t/f"), "data");  // independent copy
}

TEST_F(FsTest, LinkTreeMirrorsWithSymlinks) {
  FileSystem mirror;
  mirror.mkdir_p("/m/RPMS");
  mirror.write_file("/m/RPMS/a.rpm", "", 5000);
  mirror.write_file("/m/RPMS/b.rpm", "", 6000);
  fs.mkdir_p("/dist");
  fs.link_tree(mirror, "/m", "/dist/7.2", "/m");
  EXPECT_TRUE(fs.is_symlink("/dist/7.2/RPMS/a.rpm"));
  EXPECT_EQ(fs.readlink("/dist/7.2/RPMS/a.rpm"), "/m/RPMS/a.rpm");
  EXPECT_TRUE(fs.is_directory("/dist/7.2/RPMS"));
  // A link tree is cheap: 2 dirs + 2 symlinks regardless of payload size.
  EXPECT_EQ(fs.disk_usage("/dist/7.2"), 4 * kBlockSize);
}

TEST_F(FsTest, ChainedSymlinks) {
  fs.mkdir_p("/real");
  fs.write_file("/real/f", "deep");
  fs.symlink("/real", "/hop1");
  fs.symlink("/hop1", "/hop2");
  fs.symlink("/hop2/f", "/hop3");
  EXPECT_EQ(fs.read_file("/hop3"), "deep");
  EXPECT_EQ(fs.resolve("/hop3"), "/real/f");
}

TEST_F(FsTest, WriteThroughSymlinkUpdatesTarget) {
  fs.mkdir_p("/data");
  fs.write_file("/data/conf", "v1");
  fs.symlink("/data/conf", "/etc-link");
  fs.append_file("/etc-link", "+v2");
  EXPECT_EQ(fs.read_file("/data/conf"), "v1+v2");
}

TEST_F(FsTest, CopyTreeReplacesExistingDestination) {
  FileSystem src;
  src.mkdir_p("/t");
  src.write_file("/t/f", "new");
  fs.mkdir_p("/dst/t");
  fs.write_file("/dst/t/old", "stale");
  fs.copy_tree(src, "/t", "/dst/t");
  EXPECT_FALSE(fs.exists("/dst/t/old"));
  EXPECT_EQ(fs.read_file("/dst/t/f"), "new");
}

TEST_F(FsTest, MultiplePartitionsAllSurvive) {
  fs.add_partition("/state");
  fs.add_partition("/scratch/local");
  fs.write_file("/state/a", "1");
  fs.write_file("/scratch/local/b", "2");
  fs.mkdir_p("/usr/bin");
  fs.write_file("/usr/bin/c", "3");
  fs.wipe_root_partition();
  EXPECT_EQ(fs.read_file("/state/a"), "1");
  EXPECT_EQ(fs.read_file("/scratch/local/b"), "2");
  EXPECT_FALSE(fs.exists("/usr/bin"));
}

TEST_F(FsTest, AddPartitionRejectsRoot) {
  EXPECT_THROW(fs.add_partition("/"), StateError);
}

TEST_F(FsTest, WriteFileRequiresParentAndRejectsDirTarget) {
  EXPECT_THROW(fs.write_file("/no/parent", "x"), IoError);
  fs.mkdir("/d");
  EXPECT_THROW(fs.write_file("/d", "x"), IoError);
  EXPECT_THROW(fs.symlink("/x", "/d"), IoError);  // path exists
}

TEST_F(FsTest, LstatDoesNotFollow) {
  fs.write_file("/target", "1234567", 100);
  fs.symlink("/target", "/link");
  const auto link_stat = fs.lstat("/link");
  ASSERT_TRUE(link_stat.has_value());
  EXPECT_EQ(link_stat->type, NodeType::kSymlink);
  EXPECT_EQ(link_stat->link_target, "/target");
  const auto file_stat = fs.lstat("/target");
  EXPECT_EQ(file_stat->type, NodeType::kFile);
  EXPECT_EQ(file_stat->size, 107u);
  EXPECT_FALSE(fs.lstat("/ghost").has_value());
}

// --- rename (the durability layer's atomic-publication primitive) -----------

TEST_F(FsTest, RenameMovesFileWithContent) {
  fs.mkdir_p("/a/b");
  fs.write_file("/a/b/file", "payload");
  fs.rename("/a/b/file", "/a/moved");
  EXPECT_FALSE(fs.exists("/a/b/file"));
  EXPECT_EQ(fs.read_file("/a/moved"), "payload");
}

TEST_F(FsTest, RenameReplacesExistingFileAtomically) {
  fs.mkdir_p("/etc");
  fs.write_file("/etc/hosts", "old contents");
  fs.write_file("/etc/hosts.tmp", "new contents");
  fs.rename("/etc/hosts.tmp", "/etc/hosts");
  EXPECT_EQ(fs.read_file("/etc/hosts"), "new contents");
  EXPECT_FALSE(fs.exists("/etc/hosts.tmp"));
}

TEST_F(FsTest, RenameMovesDirectorySubtree) {
  fs.mkdir_p("/src/sub");
  fs.write_file("/src/sub/f", "x");
  fs.mkdir("/dst");
  fs.rename("/src", "/dst/renamed");
  EXPECT_EQ(fs.read_file("/dst/renamed/sub/f"), "x");
  EXPECT_FALSE(fs.exists("/src"));
}

TEST_F(FsTest, RenamePreservesFileHashCache) {
  fs.write_file("/a", "bytes", 0, content_hash("bytes"));
  fs.rename("/a", "/b");
  EXPECT_EQ(fs.file_hash("/b"), content_hash("bytes"));
}

TEST_F(FsTest, RenameSamePathIsNoOp) {
  fs.write_file("/f", "v");
  fs.rename("/f", "/f");
  EXPECT_EQ(fs.read_file("/f"), "v");
}

TEST_F(FsTest, RenameErrors) {
  fs.mkdir_p("/dir/inner");
  fs.write_file("/file", "x");
  EXPECT_THROW(fs.rename("/ghost", "/x"), IoError);           // missing source
  EXPECT_THROW(fs.rename("/file", "/nope/x"), IoError);       // missing dest parent
  EXPECT_THROW(fs.rename("/file", "/dir"), IoError);          // dest is a directory
  EXPECT_THROW(fs.rename("/dir", "/dir/inner/x"), IoError);   // dir into itself
}

TEST_F(FsTest, RenameRejectsMoveIntoItselfThroughSymlink) {
  fs.mkdir_p("/a/x");
  fs.write_file("/a/x/f", "hi");
  fs.symlink("/a", "/l");
  // Lexically "/l/b" is not under "/a", but it resolves to "/a/b".
  EXPECT_THROW(fs.rename("/a", "/l/b"), IoError);
  EXPECT_THROW(fs.rename("/l/x", "/a/x/y"), IoError);  // source named via the link
  EXPECT_TRUE(fs.is_directory("/a"));
  EXPECT_EQ(fs.read_file("/l/x/f"), "hi");
  EXPECT_EQ(fs.count("/", NodeType::kFile), 1u);
  fs.mkdir("/other");
  fs.rename("/a", "/other/a");  // a real move still works
  EXPECT_EQ(fs.read_file("/other/a/x/f"), "hi");
}

TEST_F(FsTest, LinkTreeReplacesDanglingSymlink) {
  FileSystem mirror;
  mirror.mkdir_p("/m");
  mirror.write_file("/m/pkg.rpm", "", 10);
  fs.mkdir_p("/d");
  fs.symlink("/gone/pkg.rpm", "/d/pkg.rpm");
  EXPECT_NO_THROW(fs.link_tree(mirror, "/m", "/d", "/m"));
  EXPECT_EQ(fs.readlink("/d/pkg.rpm"), "/m/pkg.rpm");
}

// --- path resolution edge cases ---------------------------------------------

TEST_F(FsTest, DotDotAboveRootClampsAtRoot) {
  fs.mkdir_p("/etc");
  fs.write_file("/etc/f", "x");
  EXPECT_EQ(fs.read_file("/../../etc/f"), "x");
  EXPECT_EQ(fs.resolve("/.."), "/");
  fs.symlink("../../../etc", "/etc/up");  // climbs past "/" from /etc
  EXPECT_EQ(fs.resolve("/etc/up/f"), "/etc/f");
}

TEST_F(FsTest, DuplicateAndTrailingSlashesAreIgnored) {
  fs.mkdir_p("//a///b/");
  fs.write_file("/a/b//f", "x");
  EXPECT_EQ(fs.read_file("//a/./b///f"), "x");
  EXPECT_TRUE(fs.is_directory("/a/b/"));
  fs.symlink("/a/b/f", "/a/l");
  EXPECT_TRUE(fs.is_symlink("/a/l/"));  // the slash is dropped, not a "follow" request
  EXPECT_EQ(fs.resolve("relative/../a//l/"), "/a/b/f");
}

TEST_F(FsTest, RelativeTargetDotDotLeavesTheLinksRealDirectory) {
  fs.mkdir_p("/a/b");
  fs.mkdir_p("/a/c");
  fs.write_file("/a/c/f", "c");
  fs.symlink("../c", "/a/b/up");
  EXPECT_EQ(fs.read_file("/a/b/up/f"), "c");
  // Reached through a directory link, ".." still climbs from the real
  // directory /a/b, not from the lexical one.
  fs.symlink("/a/b", "/x");
  EXPECT_EQ(fs.resolve("/x/up/f"), "/a/c/f");
  // A target's own ".." cancels its previous component without resolving it.
  fs.symlink("/nowhere", "/a/dangling");
  fs.symlink("dangling/../c/f", "/a/cancel");
  EXPECT_EQ(fs.read_file("/a/cancel"), "c");
  // Lexical ".." in the argument applies before any link is followed.
  EXPECT_TRUE(fs.exists("/a/dangling/../c/f"));
  EXPECT_FALSE(fs.exists("/a/dangling"));
}

// Builds /l1 -> /l2 -> ... -> /l<n> -> /target; resolving /l1 follows n links.
void make_chain(FileSystem& fs, int n) {
  fs.write_file("/target", "end");
  for (int i = 1; i <= n; ++i) {
    const std::string next = i == n ? "/target" : "/l" + std::to_string(i + 1);
    fs.symlink(next, "/l" + std::to_string(i));
  }
}

TEST_F(FsTest, FortyHopChainResolves) {
  make_chain(fs, 40);
  EXPECT_EQ(fs.read_file("/l1"), "end");
  EXPECT_EQ(fs.resolve("/l1"), "/target");
}

TEST_F(FsTest, FortyOneHopChainFails) {
  make_chain(fs, 41);
  EXPECT_FALSE(fs.exists("/l1"));
  EXPECT_FALSE(fs.resolve("/l1").has_value());
  EXPECT_THROW((void)fs.read_file("/l1"), IoError);
  EXPECT_TRUE(fs.is_symlink("/l1"));  // lstat follows nothing
  EXPECT_EQ(fs.read_file("/l2"), "end");
}

TEST_F(FsTest, MkdirPFollowsLinksButCreatesOnlyWhatTheArgumentNames) {
  fs.mkdir_p("/real");
  fs.symlink("/real", "/link");
  fs.mkdir_p("/link/a/b");  // created under the link's target
  EXPECT_TRUE(fs.is_directory("/real/a/b"));
  fs.symlink("/missing/dir", "/dangling");
  EXPECT_THROW(fs.mkdir_p("/dangling/x"), IoError);
  EXPECT_FALSE(fs.exists("/missing"));  // a link target is never created
  fs.write_file("/real/f", "x");
  EXPECT_THROW(fs.mkdir_p("/link/f/sub"), IoError);  // not a directory
  EXPECT_THROW(fs.mkdir_p("/real/f"), IoError);
  EXPECT_NO_THROW(fs.mkdir_p("/link/a/b/"));  // already there
}

TEST_F(FsTest, WriteFileReplacesFinalSymlinkAppendFollowsIt) {
  fs.write_file("/data", "v1");
  fs.symlink("/data", "/via");
  fs.append_file("/via", "+2");
  EXPECT_EQ(fs.read_file("/data"), "v1+2");
  fs.write_file("/via", "own");
  EXPECT_FALSE(fs.is_symlink("/via"));
  EXPECT_EQ(fs.read_file("/via"), "own");
  EXPECT_EQ(fs.read_file("/data"), "v1+2");
}

TEST_F(FsTest, AppendCreatingAFileSpendsOneWriteFaultTick) {
  // Countdown 2: the first append (which creates the file) succeeds, the
  // second fails without touching the content, and the fault disarms.
  fs.arm_write_fault("wal", 2);
  fs.append_file("/wal", "a");
  EXPECT_THROW(fs.append_file("/wal", "b"), IoError);
  EXPECT_EQ(fs.read_file("/wal"), "a");
  fs.append_file("/wal", "c");
  EXPECT_EQ(fs.read_file("/wal"), "ac");
  // Countdown 1 on a missing file: the first append fails and creates nothing.
  fs.arm_write_fault("log", 1);
  EXPECT_THROW(fs.append_file("/log", "x"), IoError);
  EXPECT_FALSE(fs.exists("/log"));
  fs.append_file("/log", "y");
  EXPECT_EQ(fs.read_file("/log"), "y");
}

// --- differential test against a reference resolver ---------------------------
//
// Ref is a deliberately naive re-implementation of the resolution rules
// (normalize the whole path, walk it from the root, and on every followed
// symlink splice target + remaining components into a new string and start
// over). It keeps its own tree keyed by real path, so it shares no code with
// FileSystem. Random trees and random paths must get identical answers.

class Ref {
 public:
  struct Entry {
    NodeType type = NodeType::kDirectory;
    std::string content;  // file bytes or symlink target
  };

  Ref() { tree_["/"] = Entry{}; }

  static std::string normalize(const std::string& path) {
    std::vector<std::string> stack;
    std::string part;
    for (std::size_t i = 0; i <= path.size(); ++i) {
      if (i < path.size() && path[i] != '/') {
        part += path[i];
        continue;
      }
      if (part == "..") {
        if (!stack.empty()) stack.pop_back();
      } else if (!part.empty() && part != ".") {
        stack.push_back(part);
      }
      part.clear();
    }
    std::string out;
    for (const auto& p : stack) out += "/" + p;
    return out.empty() ? "/" : out;
  }

  static std::string join(const std::string& base, const std::string& tail) {
    if (!tail.empty() && tail[0] == '/') return normalize(tail);
    return normalize(base + "/" + tail);
  }

  static std::vector<std::string> components(const std::string& normal) {
    std::vector<std::string> out;
    std::string rest = normal.substr(1);
    while (!rest.empty()) {
      const std::size_t slash = rest.find('/');
      out.push_back(rest.substr(0, slash));
      rest = slash == std::string::npos ? "" : rest.substr(slash + 1);
    }
    return out;
  }

  static std::string parent_path(const std::string& normal) {
    const std::size_t slash = normal.rfind('/');
    return slash == 0 ? "/" : normal.substr(0, slash);
  }

  /// The real path `path` names, or nullopt when it does not resolve.
  [[nodiscard]] std::optional<std::string> find(const std::string& path, bool follow_final) const {
    std::string current = normalize(path);
    int hops = 0;
  restart:
    std::string resolved = "/";
    const auto parts = components(current);
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (tree_.at(resolved).type != NodeType::kDirectory) return std::nullopt;
      const std::string next = join(resolved, parts[i]);
      const auto it = tree_.find(next);
      if (it == tree_.end()) return std::nullopt;
      if (it->second.type == NodeType::kSymlink && (i + 1 < parts.size() || follow_final)) {
        if (++hops > 40) return std::nullopt;
        std::string rebased = join(resolved, it->second.content);
        for (std::size_t j = i + 1; j < parts.size(); ++j) rebased = join(rebased, parts[j]);
        current = rebased;
        goto restart;
      }
      resolved = next;
    }
    return resolved;
  }

  [[nodiscard]] const Entry* entry(const std::optional<std::string>& real) const {
    return real ? &tree_.at(*real) : nullptr;
  }

  /// The real path a new entry named `path` would take; nullopt when its
  /// parent does not resolve to a directory or `path` is "/".
  [[nodiscard]] std::optional<std::string> slot(const std::string& path) const {
    const std::string normal = normalize(path);
    if (normal == "/") return std::nullopt;
    const auto parent = find(parent_path(normal), true);
    if (!parent || tree_.at(*parent).type != NodeType::kDirectory) return std::nullopt;
    return join(*parent, normal.substr(normal.rfind('/') + 1));
  }

  /// mkdir_p as a loop of single mkdirs over every prefix; false = throws.
  bool mkdir_p(const std::string& path) {
    std::string built = "/";
    for (const auto& part : components(normalize(path))) {
      built = join(built, part);
      const Entry* existing = entry(find(built, true));
      if (existing != nullptr) {
        if (existing->type != NodeType::kDirectory) return false;
        continue;
      }
      const auto real = slot(built);
      if (!real || tree_.contains(*real)) return false;
      tree_[*real] = Entry{};
    }
    return true;
  }

  bool write_file(const std::string& path, const std::string& content) {
    const auto real = slot(path);
    if (!real) return false;
    const auto it = tree_.find(*real);
    if (it != tree_.end() && it->second.type == NodeType::kDirectory) return false;
    tree_[*real] = Entry{NodeType::kFile, content};
    return true;
  }

  bool symlink(const std::string& target, const std::string& path) {
    const auto real = slot(path);
    if (!real || tree_.contains(*real)) return false;
    tree_[*real] = Entry{NodeType::kSymlink, target};
    return true;
  }

  bool remove(const std::string& path) {
    const auto real = slot(path);
    if (!real || !tree_.contains(*real)) return false;
    const std::string below = *real + "/";
    for (auto it = tree_.begin(); it != tree_.end();) {
      it = (it->first == *real || it->first.starts_with(below)) ? tree_.erase(it) : std::next(it);
    }
    return true;
  }

 private:
  std::map<std::string, Entry> tree_;
};

std::string random_path(std::mt19937& rng) {
  // Mostly names, so paths reach deep into the tree; ".", ".." and ""
  // (which makes "//") often enough to matter.
  static const char* const kParts[] = {"a", "b", "c", "a", "b", "c", ".", "..", ""};
  std::string out = rng() % 4 == 0 ? "" : "/";
  const int n = 1 + static_cast<int>(rng() % 4);
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += '/';
    out += kParts[rng() % 9];
  }
  if (rng() % 8 == 0) out += '/';
  return out;
}

// Requires `op` on the FileSystem to throw IoError exactly when the
// reference refused the same operation; returns whether it succeeded.
template <typename FsOp>
bool expect_same_outcome(FsOp&& op, bool ref_ok, const std::string& what) {
  bool fs_ok = true;
  try {
    op();
  } catch (const IoError&) {
    fs_ok = false;
  }
  EXPECT_EQ(fs_ok, ref_ok) << what;
  return ref_ok;
}

class ResolverDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ResolverDifferential, MatchesReferenceResolver) {
  std::mt19937 rng(GetParam());
  FileSystem fs;
  Ref ref;
  // Real paths that named something once, and those that named a symlink.
  std::vector<std::string> made = {"/"};
  std::vector<std::string> links;
  const auto remember = [&](const std::string& path) {
    const auto real = ref.find(path, false);
    if (!real) return;
    made.push_back(*real);
    if (ref.entry(real)->type == NodeType::kSymlink) links.push_back(*real);
  };
  for (int op = 0; op < 3000; ++op) {
    // Most paths extend one made earlier, so walks go deep; half of those
    // start at a symlink.
    std::string path = random_path(rng);
    if (!links.empty() && rng() % 3 == 0) {
      path = links[rng() % links.size()] + (rng() % 3 == 0 ? "" : path);
    } else if (rng() % 2 == 0) {
      path = made[rng() % made.size()] + (rng() % 3 == 0 ? "" : path);
    }
    const std::string what = "op " + std::to_string(op) + " on '" + path + "'";
    switch (rng() % 16) {
      case 0:
      case 1:
      case 2:
        if (expect_same_outcome([&] { fs.mkdir_p(path); }, ref.mkdir_p(path), "mkdir_p " + what))
          remember(path);
        break;
      case 3: {
        const std::string content = "v" + std::to_string(op);
        if (expect_same_outcome([&] { fs.write_file(path, content); },
                                ref.write_file(path, content), "write_file " + what))
          remember(path);
        break;
      }
      case 4:
      case 5:
      case 6: {
        // Targets mix absolute and relative paths that resolve, dangle, or
        // loop back to the link itself.
        std::string target = random_path(rng);
        if (rng() % 5 == 0) target = path;
        else if (rng() % 2 == 0) target = made[rng() % made.size()] + (rng() % 2 ? "" : target);
        if (expect_same_outcome([&] { fs.symlink(target, path); }, ref.symlink(target, path),
                                "symlink '" + target + "' " + what))
          remember(path);
        break;
      }
      case 7:
        if (rng() % 4 == 0 && Ref::normalize(path) != "/") {
          const bool ref_removed = ref.remove(path);
          EXPECT_EQ(fs.remove(path), ref_removed) << "remove " + what;
        }
        break;
      default: {
        const auto real = ref.find(path, true);
        const Ref::Entry* followed = ref.entry(real);
        const Ref::Entry* own = ref.entry(ref.find(path, false));
        EXPECT_EQ(fs.exists(path), followed != nullptr) << what;
        EXPECT_EQ(fs.resolve(path), real) << what;
        EXPECT_EQ(fs.is_file(path), followed && followed->type == NodeType::kFile) << what;
        EXPECT_EQ(fs.is_directory(path), followed && followed->type == NodeType::kDirectory)
            << what;
        EXPECT_EQ(fs.is_symlink(path), own && own->type == NodeType::kSymlink) << what;
        const auto st = fs.lstat(path);
        ASSERT_EQ(st.has_value(), own != nullptr) << what;
        if (own != nullptr) {
          EXPECT_EQ(st->type, own->type) << what;
          EXPECT_EQ(st->link_target, own->type == NodeType::kSymlink ? own->content : "")
              << what;
          EXPECT_EQ(st->size, own->type == NodeType::kFile ? own->content.size() : 0u) << what;
        }
        if (followed && followed->type == NodeType::kFile) {
          EXPECT_EQ(fs.read_file(path), followed->content) << what;
        } else {
          EXPECT_THROW((void)fs.read_file(path), IoError) << what;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResolverDifferential, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --- copy-on-write sharing (DESIGN.md §17.3) ---------------------------------

/// Everything observable about a tree, one line per node in walk order:
/// type, size, link target, file_hash; then disk_usage("/").
std::string describe(const FileSystem& fs) {
  std::string out;
  fs.walk("/", [&](const std::string& path, const Stat& st) {
    out += path + " " + std::to_string(static_cast<int>(st.type)) + " " +
           std::to_string(st.size) + " " + st.link_target;
    if (st.type == NodeType::kFile) out += " " + std::to_string(fs.file_hash(path));
    out += "\n";
  });
  return out + "du " + std::to_string(fs.disk_usage("/")) + "\n";
}

/// What copy_tree promises, done by hand with no sharing: `src` (followed)
/// recreated node by node at `dst`, replacing what `dst` held.
void deep_copy(const FileSystem& from, const std::string& src, FileSystem& to,
               const std::string& dst) {
  struct Item {
    std::string rel;
    Stat st;
    std::string content;
  };
  const std::optional<std::string> real = from.resolve(src);
  if (!real) throw IoError("deep_copy: no such path: " + src);
  std::vector<Item> items;  // collected first: `from` may be `to`
  from.walk(*real, [&](const std::string& path, const Stat& st) {
    const std::string rel = *real == "/" ? (path == "/" ? "" : path) : path.substr(real->size());
    items.push_back({rel, st, st.type == NodeType::kFile ? from.read_file(path) : ""});
  });
  const std::string target = normalize(dst);
  to.mkdir_p(dirname(target));
  to.remove(target);
  for (const Item& item : items) {
    const std::string path = target + item.rel;
    switch (item.st.type) {
      case NodeType::kDirectory: to.mkdir(path); break;
      case NodeType::kFile:
        to.write_file(path, item.content, item.st.size - item.content.size());
        break;
      case NodeType::kSymlink: to.symlink(item.st.link_target, path); break;
    }
  }
}

/// A tree with nested directories, payload files, and absolute, relative
/// and directory symlinks — the shapes an installed root holds.
void build_tree(FileSystem& fs) {
  fs.mkdir_p("/a/b/c");
  fs.mkdir_p("/c/b");
  fs.write_file("/a/f", "a-f", 100);
  fs.write_file("/a/b/f", "ab-f");
  fs.write_file("/a/b/c/f", "abc-f", 5000);
  fs.write_file("/c/b/f", "cb-f");
  fs.symlink("/a/b", "/b");
  fs.symlink("../a", "/c/up");
  fs.symlink("f", "/a/b/rel");
  fs.symlink("/nowhere", "/a/dangling");
}

TEST(CopyOnWrite, CopyTreeSharesWritesStayPrivate) {
  FileSystem src;
  build_tree(src);
  FileSystem dst;
  dst.copy_tree(src, "/a", "/a");
  dst.copy_tree(src, "/c", "/c");
  dst.copy_tree(src, "/b", "/b");  // the link followed: /a/b's directory
  const std::string src_before = describe(src);
  const std::string dst_before = describe(dst);
  EXPECT_EQ(dst.read_file("/c/up/b/c/f"), "abc-f");

  // Writes through dst, several through symlinks into shared directories.
  dst.append_file("/c/up/b/rel", "+dst");  // /c/up -> /a, rel -> f
  dst.rename("/c/up/b/c/f", "/c/up/moved");
  dst.remove("/b/f");
  dst.write_file("/c/up/f", "replaced");
  dst.mkdir_p("/c/up/b/new/dir");
  dst.symlink("/a/f", "/c/b/link");
  EXPECT_EQ(dst.read_file("/a/b/f"), "ab-f+dst");
  EXPECT_EQ(dst.read_file("/a/moved"), "abc-f");
  EXPECT_FALSE(dst.exists("/a/b/c/f"));
  EXPECT_EQ(describe(src), src_before);

  // And the other way: the source's writes never reach the copy.
  FileSystem copy;
  copy.copy_tree(src, "/a", "/a");
  const std::string copy_before = describe(copy);
  src.append_file("/a/b/f", "+src");
  src.remove("/a/b/c");
  src.rename("/a/f", "/a/b/g");
  EXPECT_EQ(describe(copy), copy_before);
  EXPECT_NE(describe(dst), dst_before);
}

TEST(CopyOnWrite, SiblingsOfOneBaseStayIsolated) {
  FileSystem base;
  build_tree(base);
  const std::string base_before = describe(base);
  FileSystem one;
  FileSystem two;
  for (FileSystem* fs : {&one, &two}) {
    fs->add_partition("/state/partition1");
    fs->write_file("/state/partition1/keep", "kept");
    fs->write_file("/old", "gone after the wipe");
    fs->wipe_root_partition(&base);
    EXPECT_EQ(fs->read_file("/state/partition1/keep"), "kept");
    EXPECT_FALSE(fs->exists("/old"));
    EXPECT_EQ(fs->read_file("/b/c/f"), "abc-f");
  }
  const std::string two_before = describe(two);
  one.append_file("/b/rel", "+one");
  one.rename("/c/up/b/c", "/c/up/c-moved");
  one.remove("/c/b");
  one.write_file("/state/partition1/keep", "one's");
  EXPECT_EQ(one.read_file("/a/b/f"), "ab-f+one");
  EXPECT_EQ(one.read_file("/a/c-moved/f"), "abc-f");
  EXPECT_EQ(describe(two), two_before);
  EXPECT_EQ(describe(base), base_before);
  EXPECT_EQ(two.read_file("/state/partition1/keep"), "kept");

  // A second wipe onto the base drops every private change except the
  // partition's.
  one.wipe_root_partition(&base);
  EXPECT_EQ(one.read_file("/a/b/f"), "ab-f");
  EXPECT_EQ(one.read_file("/state/partition1/keep"), "one's");
}

TEST(CopyOnWrite, CopyIntoItsOwnSubtreeSnapshotsTheSource) {
  FileSystem fs;
  build_tree(fs);
  FileSystem expected;
  build_tree(expected);
  deep_copy(expected, "/a", expected, "/a/b/inner");
  fs.copy_tree(fs, "/a", "/a/b/inner");
  EXPECT_EQ(describe(fs), describe(expected));  // finite: no node contains itself
  fs.write_file("/a/b/inner/f", "inner only");
  EXPECT_EQ(fs.read_file("/a/f"), "a-f");
}

TEST(CopyOnWrite, PartitionReplacesWhatTheBaseHoldsAtItsMountPoint) {
  FileSystem base;
  base.mkdir_p("/state/partition1");
  base.write_file("/state/partition1/from-base", "b");
  FileSystem fs;
  fs.add_partition("/state/partition1");
  fs.write_file("/state/partition1/mine", "m");
  fs.wipe_root_partition(&base);
  EXPECT_EQ(fs.list("/state/partition1"), std::vector<std::string>{"mine"});
  EXPECT_TRUE(base.exists("/state/partition1/from-base"));
}

/// Seeded differential: trees that share nodes (copy_tree, wipe onto a
/// base, a copy into the source's own subtree) take random writes, and each
/// must stay equal to a twin built by deep copies that share nothing —
/// every write lands where it should and nowhere else.
class SharingDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(SharingDifferential, MatchesDeepCopies) {
  std::mt19937 rng(GetParam());
  constexpr std::size_t kTrees = 4;
  std::vector<FileSystem> trees(kTrees);
  std::vector<FileSystem> twins(kTrees);
  build_tree(trees[0]);
  build_tree(twins[0]);
  // 1: a node reinstalled from tree 0 as its base.
  trees[1].add_partition("/state");
  trees[1].write_file("/state/keep", "k");
  trees[1].wipe_root_partition(&trees[0]);
  twins[1].add_partition("/state");
  twins[1].write_file("/state/keep", "k");
  twins[1].wipe_root_partition();
  for (const std::string& entry : twins[0].list("/")) {
    const std::string path = "/" + entry;
    if (twins[0].is_symlink(path)) {
      twins[1].symlink(twins[0].readlink(path), path);  // a base's links stay links
    } else {
      deep_copy(twins[0], path, twins[1], path);
    }
  }
  // 2: parts of tree 0 copied elsewhere.
  trees[2].copy_tree(trees[0], "/a", "/x/a");
  trees[2].copy_tree(trees[0], "/c", "/c");
  deep_copy(twins[0], "/a", twins[2], "/x/a");
  deep_copy(twins[0], "/c", twins[2], "/c");
  // 3: a copy of tree 1 into its own subtree.
  trees[3].copy_tree(trees[1], "/a", "/a");
  trees[3].copy_tree(trees[3], "/a", "/a/b/again");
  deep_copy(twins[1], "/a", twins[3], "/a");
  deep_copy(twins[3], "/a", twins[3], "/a/b/again");
  for (std::size_t t = 0; t < kTrees; ++t) ASSERT_EQ(describe(trees[t]), describe(twins[t]));

  for (int op = 0; op < 400; ++op) {
    const std::size_t t = rng() % kTrees;
    FileSystem& fs = trees[t];
    FileSystem& twin = twins[t];
    std::string path = random_path(rng);
    std::string other = random_path(rng);
    if (rng() % 2 == 0) path = "/a" + path;  // into the shared directories
    if (rng() % 3 == 0) other = "/c/up" + other;  // through a relative link
    const std::string what =
        "op " + std::to_string(op) + " on tree " + std::to_string(t) + " '" + path + "'";
    const auto both = [&](const auto& apply) {
      bool twin_ok = true;
      try {
        apply(twin);
      } catch (const IoError&) {
        twin_ok = false;
      }
      expect_same_outcome([&] { apply(fs); }, twin_ok, what);
    };
    const std::string content = "v" + std::to_string(op);
    const std::uint64_t payload = rng() % 2 ? 0 : 4097;
    switch (rng() % 9) {
      case 0: both([&](FileSystem& f) { f.write_file(path, content, payload); }); break;
      case 1: both([&](FileSystem& f) { f.append_file(path, content); }); break;
      case 2: both([&](FileSystem& f) { f.remove(path); }); break;
      case 3: both([&](FileSystem& f) { f.rename(path, other); }); break;
      case 4: both([&](FileSystem& f) { f.mkdir_p(path); }); break;
      case 5: both([&](FileSystem& f) { f.symlink(other, path); }); break;
      case 6:
        if (normalize(other) == "/") break;  // "/" cannot be replaced
        {
          bool twin_ok = true;
          try {
            deep_copy(twin, path, twin, other);
          } catch (const IoError&) {
            twin_ok = false;
          }
          expect_same_outcome([&] { fs.copy_tree(fs, path, other); }, twin_ok,
                              "copy_tree to '" + other + "' " + what);
        }
        break;
      case 7: both([&](FileSystem& f) { f.wipe_root_partition(); }); break;
      default: {
        // A file hash read through one tree fills a cache the others share.
        const bool is_file = twin.is_file(path);
        EXPECT_EQ(fs.is_file(path), is_file) << what;
        if (is_file) {
          EXPECT_EQ(fs.file_hash(path), twin.file_hash(path)) << what;
        }
      }
    }
    for (std::size_t u = 0; u < kTrees; ++u)
      ASSERT_EQ(describe(trees[u]), describe(twins[u])) << what << ", then tree " << u;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharingDifferential, ::testing::Values(1u, 2u, 3u, 4u, 5u));

/// Threads each own one tree reinstalled from a common base and read and
/// write the same shared paths at once: reference counts and the shared
/// hash cache are the only state the trees have in common.
TEST(CopyOnWrite, ConcurrentTreesSharingOneBase) {
  FileSystem base;
  build_tree(base);
  for (int i = 0; i < 64; ++i) base.write_file("/a/b/c/pkg" + std::to_string(i), "p", 4096);
  const std::string base_before = describe(base);
  constexpr int kThreads = 4;
  std::vector<FileSystem> trees(kThreads);
  for (FileSystem& fs : trees) fs.wipe_root_partition(&base);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      FileSystem& fs = trees[t];
      for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 64; ++i) (void)fs.file_hash("/a/b/c/pkg" + std::to_string(i));
        fs.append_file("/b/f", std::to_string(t));
        fs.write_file("/a/b/c/pkg" + std::to_string(round % 64), "mine");
        fs.wipe_root_partition(&base);
      }
      fs.append_file("/b/f", "+" + std::to_string(t));
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(describe(base), base_before);
  for (int t = 0; t < kThreads; ++t)
    EXPECT_EQ(trees[t].read_file("/a/b/f"), "ab-f+" + std::to_string(t));
}

}  // namespace
}  // namespace rocks::vfs
