// Unit tests for the virtual filesystem: paths, CRUD, symlinks, partitions,
// and the accounting rocks-dist relies on.
#include <gtest/gtest.h>

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

}  // namespace
}  // namespace rocks::vfs
