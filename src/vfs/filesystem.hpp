// In-memory filesystem.
//
// Every machine in the simulation (the frontend, each compute node, each
// distribution host) owns one FileSystem. It supports the operations the
// Rocks toolchain exercises:
//   - rocks-dist builds distribution trees made mostly of symbolic links and
//     measures their on-disk footprint (paper: "on the order of 25MB", §6.2.3)
//   - the installer wipes the root partition but preserves all other
//     partitions across reinstalls (§6.3)
//   - the services generators write /etc configuration files whose content
//     hashes feed the consistency/drift model.
//
// Files may carry literal content, a synthetic payload size, or both: RPM
// payloads are hundreds of megabytes in aggregate and are represented by
// size only, while config files carry real bytes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rocks::vfs {

/// Disk block size used for usage accounting; every file, directory, and
/// symlink occupies at least one block, matching ext2's behaviour closely
/// enough for the paper's size claims.
inline constexpr std::uint64_t kBlockSize = 4096;

enum class NodeType { kFile, kDirectory, kSymlink };

/// 64-bit digest of a byte string (FNV-style, word-at-a-time) — the same
/// hash FileSystem::file_hash applies to file content. Exposed so callers
/// holding the bytes they just wrote (e.g. the service manager's change
/// detection) can hash without re-reading the file. Values are opaque:
/// compare them to other content_hash results, nothing else.
[[nodiscard]] std::uint64_t content_hash(std::string_view content);

struct Stat {
  NodeType type;
  std::uint64_t size;       // content bytes + synthetic payload bytes
  std::string link_target;  // only for symlinks
};

class FileSystem {
 public:
  FileSystem();

  // --- directories -------------------------------------------------------
  /// Creates one directory; parent must exist. Throws IoError otherwise.
  void mkdir(std::string_view path);
  /// Creates the directory and any missing ancestors (no-op if present).
  void mkdir_p(std::string_view path);
  /// Names of the entries directly inside `path`, sorted.
  [[nodiscard]] std::vector<std::string> list(std::string_view path) const;

  // --- files --------------------------------------------------------------
  /// Creates or replaces a regular file. `payload_size` adds synthetic bytes
  /// on top of content.size() for usage accounting. Parent must exist.
  /// Creates or replaces a file. `content_hash_hint`, when nonzero, must be
  /// content_hash(content) — callers that already hashed the bytes (the
  /// service manager's change detection) pass it so file_hash never re-reads
  /// what they just wrote; 0 means "compute lazily on first file_hash".
  void write_file(std::string_view path, std::string content, std::uint64_t payload_size = 0,
                  std::uint64_t content_hash_hint = 0);
  /// Appends to an existing file (creates it when absent).
  void append_file(std::string_view path, std::string_view content);
  /// Content of a regular file, following symlinks. Throws IoError if absent.
  [[nodiscard]] const std::string& read_file(std::string_view path) const;

  // --- symlinks -----------------------------------------------------------
  /// Creates a symlink at `path` pointing at `target` (target may dangle).
  void symlink(std::string_view target, std::string_view path);
  /// The stored target of a symlink (no resolution). Throws if not a symlink.
  [[nodiscard]] std::string readlink(std::string_view path) const;

  // --- queries -------------------------------------------------------------
  [[nodiscard]] bool exists(std::string_view path) const;
  [[nodiscard]] bool is_file(std::string_view path) const;
  [[nodiscard]] bool is_directory(std::string_view path) const;
  [[nodiscard]] bool is_symlink(std::string_view path) const;  // no follow
  /// Stat without following a final symlink; nullopt when absent.
  [[nodiscard]] std::optional<Stat> lstat(std::string_view path) const;

  /// Resolves symlinks in every component; returns the final real path, or
  /// nullopt when any component is missing or a symlink loop is detected.
  [[nodiscard]] std::optional<std::string> resolve(std::string_view path) const;

  // --- removal -------------------------------------------------------------
  /// Removes a file or symlink, or a directory recursively. Returns false
  /// when the path does not exist.
  bool remove(std::string_view path);

  // --- rename --------------------------------------------------------------
  /// Atomically moves `from` to `to`, replacing an existing file or symlink
  /// at the destination in one step — a reader of `to` observes either the
  /// old node or the new one, never an intermediate state. This is the
  /// POSIX rename(2) contract the durability layer builds on: snapshot
  /// publication and config-file writes go through a temp file plus
  /// rename so a crash mid-write never exposes partial content. Throws
  /// IoError when `from` is missing, `to` is an existing directory, the
  /// destination parent is missing, or a directory would move into itself
  /// (also when `to`'s parent reaches it through a symlink).
  void rename(std::string_view from, std::string_view to);

  // --- traversal & accounting ----------------------------------------------
  /// Depth-first visit of every node under `root` (inclusive), lexicographic
  /// within each directory. Symlinks are reported, not followed.
  void walk(std::string_view root,
            const std::function<void(const std::string& path, const Stat&)>& visit) const;

  /// Disk usage of the subtree in bytes, block-rounded per node (symlinks
  /// are not followed: a symlink costs one block, like an on-disk dirent
  /// plus inode). This is the number rocks-dist reports for a distribution.
  [[nodiscard]] std::uint64_t disk_usage(std::string_view root) const;

  /// Logical bytes (content + synthetic payload) of the subtree following
  /// nothing; used for transfer-size computations.
  [[nodiscard]] std::uint64_t logical_size(std::string_view root) const;

  /// Total number of nodes under `root` of the given type.
  [[nodiscard]] std::size_t count(std::string_view root, NodeType type) const;

  /// FNV-1a hash of a file's content (synthetic payload contributes its
  /// size). Basis of the drift detector and the cfengine-style baseline.
  [[nodiscard]] std::uint64_t file_hash(std::string_view path) const;

  // --- partitions ----------------------------------------------------------
  /// Declares `mount_point` a separate partition (e.g. "/state").
  void add_partition(std::string_view mount_point);
  [[nodiscard]] const std::vector<std::string>& partitions() const { return partitions_; }

  /// Reformats the root partition: removes everything except the contents of
  /// non-root partitions, which survive exactly (paper §6.3: "all non-root
  /// partitions are preserved over reinstalls"). Mount-point directories are
  /// recreated.
  void wipe_root_partition();

  // --- fault injection ------------------------------------------------------
  /// Arms a write fault: the `countdown`-th future write_file/append_file
  /// whose path contains `path_substring` throws IoError before touching
  /// any state, then the fault disarms itself (one failure per arm, like
  /// one ENOSPC/EIO). Models a disk that fails a write — the durability
  /// layer must surface the failure (with its LSN range) instead of
  /// silently dropping the bytes, and retries must find the buffered data
  /// intact.
  void arm_write_fault(std::string_view path_substring, std::uint64_t countdown = 1);
  void disarm_write_fault();

  // --- whole-tree copies -----------------------------------------------------
  /// Recursively copies `src` (in `from`) to `dst` in this filesystem.
  /// Symlinks are copied as symlinks with unchanged targets.
  void copy_tree(const FileSystem& from, std::string_view src, std::string_view dst);

  /// Mirrors `src` (in `from`) into `dst` as a tree of directories whose
  /// files become symlinks pointing into `link_prefix` — the structure
  /// rocks-dist builds for derived distributions (§6.2.3, Figure 6). An
  /// existing entry at a link's name, dangling symlinks included, is replaced.
  void link_tree(const FileSystem& from, std::string_view src, std::string_view dst,
                 std::string_view link_prefix);

 private:
  struct Node;
  // Transparent comparator: walks look components up by string_view.
  using Dir = std::map<std::string, std::unique_ptr<Node>, std::less<>>;

  struct Node {
    NodeType type = NodeType::kFile;
    std::string content;          // file content (real bytes)
    std::uint64_t payload = 0;    // synthetic extra bytes
    std::string link_target;      // symlink target
    Dir entries;                  // directory children
    // Memoized content_hash(content); 0 means "not cached" (a genuine hash
    // of 0 merely recomputes). Atomic so concurrent file_hash readers can
    // fill it; content mutators reset or refresh it.
    mutable std::atomic<std::uint64_t> hash_cache{0};
  };

  /// One resolution of one path argument: the only place symlinks are
  /// followed (DESIGN.md §17). Defined in filesystem.cpp.
  class Walk;

  void walk_node(const std::string& path, const Node& node,
                 const std::function<void(const std::string&, const Stat&)>& visit) const;
  static void copy_node(const Node& src, Node& dst);

  /// Throws IoError when an armed write fault matches `path` and its
  /// countdown expires; called at the top of every mutating file write.
  void check_write_fault(std::string_view path);

  std::unique_ptr<Node> root_;
  std::vector<std::string> partitions_;  // non-root mount points

  // Armed write fault (empty substring = disarmed).
  std::string write_fault_substring_;
  std::uint64_t write_fault_countdown_ = 0;
};

}  // namespace rocks::vfs
