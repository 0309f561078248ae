#include "vfs/filesystem.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "vfs/path.hpp"

namespace rocks::vfs {
namespace {

constexpr int kMaxSymlinkHops = 40;

std::uint64_t blocks_for(std::uint64_t bytes) {
  const std::uint64_t blocks = (bytes + kBlockSize - 1) / kBlockSize;
  return std::max<std::uint64_t>(blocks, 1) * kBlockSize;
}

}  // namespace

class FileSystem::Walk {
 public:
  enum Mode {
    kFollow,    // follow every symlink, the final one included
    kNoFollow,  // stop at a final symlink (lstat, readlink)
    kParent,    // resolve all but the final component, which is not looked up
    kCreate,    // kFollow, creating each missing directory the argument names
  };

  /// A real node on the resolved path and its name in its parent's entries.
  struct Frame {
    Node* node;
    std::string_view name;
  };

  /// Walks `path` from the root of `fs`. Const so queries can walk; only
  /// mkdir_p, which is not, passes kCreate.
  Walk(const FileSystem& fs, std::string_view path, Mode mode);
  Walk(const Walk&) = delete;
  Walk& operator=(const Walk&) = delete;

  /// The parent directory of a kParent walk. Throws IoError for "/" or when
  /// the parent does not resolve to a directory.
  [[nodiscard]] Node& parent() const;
  /// The real path spelled by `chain`.
  [[nodiscard]] std::string real_path() const;

  std::string_view norm;  // the normalized argument
  /// What the path names (kParent: the directory meant to hold `leaf`), or
  /// nullptr when a component is missing, a non-final component is not a
  /// directory, or more than kMaxSymlinkHops symlinks were followed.
  Node* node = nullptr;
  std::string_view leaf;     // kParent: the final component
  std::vector<Frame> chain;  // root first; every entry but the last is a directory

 private:
  /// Splices a symlink's target in front of the unconsumed components.
  std::string_view reroot(std::string_view target, std::string_view rest);
  /// The argument up to and including its last consumed component, given
  /// the length of its unconsumed tail (names mkdir_p's errors).
  [[nodiscard]] std::string_view consumed(std::size_t unconsumed) const;

  std::string norm_buf_;  // owns `norm` when the argument was not normal
  std::string link_buf_;  // owns the components left after the latest symlink
};

FileSystem::Walk::Walk(const FileSystem& fs, std::string_view path, Mode mode) {
  if (is_normal(path)) {
    norm = path;
  } else {
    norm_buf_ = normalize(path);
    norm = norm_buf_;
  }
  chain.reserve(16);
  chain.push_back({fs.root_.get(), {}});
  // `rest` always ends with the argument's own unconsumed components, which
  // are `unconsumed` bytes long; anything before them came from symlink
  // targets. Only the argument's components may be created.
  std::string_view rest = norm.substr(1);
  std::size_t unconsumed = rest.size();
  int hops = 0;
  while (!rest.empty()) {
    const bool from_argument = rest.size() == unconsumed;
    const std::size_t slash = rest.find('/');
    const std::string_view part = rest.substr(0, slash);
    rest = slash == std::string_view::npos ? std::string_view() : rest.substr(slash + 1);
    if (from_argument) unconsumed = rest.size();
    const bool last = rest.empty();
    Node* dir = chain.back().node;
    if (last && mode == kParent) {
      node = dir;
      leaf = part;
      return;
    }
    auto it = dir->entries.find(part);
    if (it == dir->entries.end()) {
      if (mode != kCreate) return;
      // A missing component of a symlink target means the link dangles, and
      // a link occupies the name mkdir would need.
      if (!from_argument)
        throw IoError(strings::cat("mkdir: path exists: ", consumed(unconsumed)));
      auto fresh = std::make_unique<Node>();
      fresh->type = NodeType::kDirectory;
      it = dir->entries.emplace(std::string(part), std::move(fresh)).first;
    }
    Node* next = it->second.get();
    if (next->type == NodeType::kSymlink && (!last || mode != kNoFollow)) {
      if (++hops > kMaxSymlinkHops) {
        if (mode == kCreate)
          throw IoError(strings::cat("mkdir: path exists: ", consumed(unconsumed)));
        return;
      }
      rest = reroot(next->link_target, rest);
      continue;
    }
    if (!last && next->type != NodeType::kDirectory) {
      if (mode != kCreate) return;
      if (rest.size() == unconsumed)
        throw IoError(strings::cat("mkdir_p: not a directory: ", consumed(unconsumed)));
      throw IoError(strings::cat("mkdir: path exists: ", consumed(unconsumed)));
    }
    chain.push_back({next, it->first});
  }
  node = chain.back().node;
  if (mode == kCreate && node->type != NodeType::kDirectory)
    throw IoError(strings::cat("mkdir_p: not a directory: ", norm));
}

std::string_view FileSystem::Walk::reroot(std::string_view target, std::string_view rest) {
  // Lexical, like normalize: a ".." that climbs out of the target leaves the
  // link's directory for its real parent, clamped at "/".
  if (!target.empty() && target.front() == '/') chain.resize(1);
  std::string spliced;
  for (std::size_t up = append_lexically(spliced, target); up > 0 && chain.size() > 1; --up)
    chain.pop_back();
  if (!rest.empty()) {
    spliced += '/';
    spliced += rest;
  }
  link_buf_ = std::move(spliced);  // `rest` may point into the old buffer
  return std::string_view(link_buf_).substr(link_buf_.empty() ? 0 : 1);
}

std::string_view FileSystem::Walk::consumed(std::size_t unconsumed) const {
  return unconsumed == 0 ? norm : norm.substr(0, norm.size() - unconsumed - 1);
}

FileSystem::Node& FileSystem::Walk::parent() const {
  if (norm == "/") throw IoError("operation on '/' is not permitted");
  if (node == nullptr) {
    const std::size_t slash = norm.rfind('/');
    throw IoError(strings::cat("parent directory missing: ",
                               slash == 0 ? std::string_view("/") : norm.substr(0, slash)));
  }
  return *node;
}

std::string FileSystem::Walk::real_path() const {
  if (chain.size() == 1) return "/";
  std::string out;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    out += '/';
    out += chain[i].name;
  }
  return out;
}

FileSystem::FileSystem() : root_(std::make_unique<Node>()) {
  root_->type = NodeType::kDirectory;
}

void FileSystem::mkdir(std::string_view path) {
  const Walk walk(*this, path, Walk::kParent);
  Node& parent = walk.parent();
  if (parent.entries.contains(walk.leaf))
    throw IoError(strings::cat("mkdir: path exists: ", walk.norm));
  auto node = std::make_unique<Node>();
  node->type = NodeType::kDirectory;
  parent.entries.emplace(std::string(walk.leaf), std::move(node));
}

void FileSystem::mkdir_p(std::string_view path) { const Walk walk(*this, path, Walk::kCreate); }

std::vector<std::string> FileSystem::list(std::string_view path) const {
  const Walk walk(*this, path, Walk::kFollow);
  if (walk.node == nullptr || walk.node->type != NodeType::kDirectory)
    throw IoError(strings::cat("list: not a directory: ", walk.norm));
  std::vector<std::string> names;
  names.reserve(walk.node->entries.size());
  for (const auto& [name, child] : walk.node->entries) names.push_back(name);
  return names;
}

void FileSystem::arm_write_fault(std::string_view path_substring, std::uint64_t countdown) {
  write_fault_substring_ = std::string(path_substring);
  write_fault_countdown_ = countdown == 0 ? 1 : countdown;
}

void FileSystem::disarm_write_fault() {
  write_fault_substring_.clear();
  write_fault_countdown_ = 0;
}

void FileSystem::check_write_fault(std::string_view path) {
  if (write_fault_substring_.empty()) return;
  if (path.find(write_fault_substring_) == std::string_view::npos) return;
  if (--write_fault_countdown_ > 0) return;
  disarm_write_fault();
  throw IoError(strings::cat("injected write fault: ", normalize(path)));
}

void FileSystem::write_file(std::string_view path, std::string content,
                            std::uint64_t payload_size, std::uint64_t content_hash_hint) {
  check_write_fault(path);
  const Walk walk(*this, path, Walk::kParent);
  Dir& entries = walk.parent().entries;
  auto it = entries.find(walk.leaf);
  if (it == entries.end()) {
    it = entries.emplace(std::string(walk.leaf), std::make_unique<Node>()).first;
  } else if (it->second->type == NodeType::kDirectory) {
    throw IoError(strings::cat("write_file: is a directory: ", walk.norm));
  }
  // A final symlink is replaced, not followed.
  Node& slot = *it->second;
  slot.type = NodeType::kFile;
  slot.content = std::move(content);
  slot.payload = payload_size;
  slot.link_target.clear();
  slot.entries.clear();
  // Trust the caller's digest when offered; otherwise the first file_hash
  // computes and memoizes it.
  slot.hash_cache.store(content_hash_hint, std::memory_order_relaxed);
}

void FileSystem::append_file(std::string_view path, std::string_view content) {
  const Walk walk(*this, path, Walk::kFollow);
  if (walk.node == nullptr) {
    write_file(path, std::string(content));  // checks the armed fault once
    return;
  }
  check_write_fault(path);
  if (walk.node->type != NodeType::kFile)
    throw IoError(strings::cat("append_file: not a file: ", walk.norm));
  walk.node->content += content;
  walk.node->hash_cache.store(0, std::memory_order_relaxed);
}

const std::string& FileSystem::read_file(std::string_view path) const {
  const Walk walk(*this, path, Walk::kFollow);
  if (walk.node == nullptr || walk.node->type != NodeType::kFile)
    throw IoError(strings::cat("read_file: no such file: ", walk.norm));
  return walk.node->content;
}

void FileSystem::symlink(std::string_view target, std::string_view path) {
  const Walk walk(*this, path, Walk::kParent);
  Node& parent = walk.parent();
  if (parent.entries.contains(walk.leaf))
    throw IoError(strings::cat("symlink: path exists: ", walk.norm));
  auto node = std::make_unique<Node>();
  node->type = NodeType::kSymlink;
  node->link_target = std::string(target);
  parent.entries.emplace(std::string(walk.leaf), std::move(node));
}

std::string FileSystem::readlink(std::string_view path) const {
  const Walk walk(*this, path, Walk::kNoFollow);
  if (walk.node == nullptr || walk.node->type != NodeType::kSymlink)
    throw IoError(strings::cat("readlink: not a symlink: ", walk.norm));
  return walk.node->link_target;
}

bool FileSystem::exists(std::string_view path) const {
  return Walk(*this, path, Walk::kFollow).node != nullptr;
}

bool FileSystem::is_file(std::string_view path) const {
  const Node* node = Walk(*this, path, Walk::kFollow).node;
  return node != nullptr && node->type == NodeType::kFile;
}

bool FileSystem::is_directory(std::string_view path) const {
  const Node* node = Walk(*this, path, Walk::kFollow).node;
  return node != nullptr && node->type == NodeType::kDirectory;
}

bool FileSystem::is_symlink(std::string_view path) const {
  const Node* node = Walk(*this, path, Walk::kNoFollow).node;
  return node != nullptr && node->type == NodeType::kSymlink;
}

std::optional<Stat> FileSystem::lstat(std::string_view path) const {
  const Node* node = Walk(*this, path, Walk::kNoFollow).node;
  if (node == nullptr) return std::nullopt;
  return Stat{node->type, node->content.size() + node->payload, node->link_target};
}

std::optional<std::string> FileSystem::resolve(std::string_view path) const {
  const Walk walk(*this, path, Walk::kFollow);
  if (walk.node == nullptr) return std::nullopt;
  return walk.real_path();
}

bool FileSystem::remove(std::string_view path) {
  const Walk walk(*this, path, Walk::kParent);
  if (walk.norm == "/") throw IoError("remove: cannot remove '/'");
  if (walk.node == nullptr) return false;
  const auto it = walk.node->entries.find(walk.leaf);
  if (it == walk.node->entries.end()) return false;
  walk.node->entries.erase(it);
  return true;
}

void FileSystem::rename(std::string_view from, std::string_view to) {
  const Walk src(*this, from, Walk::kParent);
  const Walk dst(*this, to, Walk::kParent);
  if (src.norm == dst.norm) return;
  // A directory cannot move under itself (the subtree would orphan): not
  // lexically, and not through a symlink on the destination's path.
  const auto into_itself = [&] {
    return IoError(strings::cat("rename: cannot move ", src.norm, " into itself at ", dst.norm));
  };
  if (is_within(dst.norm, src.norm)) throw into_itself();

  Dir& src_entries = src.parent().entries;
  const auto src_it = src_entries.find(src.leaf);
  if (src_it == src_entries.end())
    throw IoError(strings::cat("rename: no such path: ", src.norm));

  // Check the destination *before* detaching the source so a failure here
  // leaves the tree untouched.
  Dir& dst_entries = dst.parent().entries;
  const auto dst_it = dst_entries.find(dst.leaf);
  if (dst_it != dst_entries.end() && dst_it->second->type == NodeType::kDirectory)
    throw IoError(strings::cat("rename: destination is a directory: ", dst.norm));
  for (const Walk::Frame& frame : dst.chain)
    if (frame.node == src_it->second.get()) throw into_itself();

  // The swap itself is the atomic step: detach, then attach-or-replace.
  // (Both maps are ours; no observer can interleave within this call.)
  std::unique_ptr<Node> node = std::move(src_it->second);
  src_entries.erase(src_it);
  dst_entries.insert_or_assign(std::string(dst.leaf), std::move(node));
}

void FileSystem::walk_node(const std::string& path, const Node& node,
                           const std::function<void(const std::string&, const Stat&)>& visit)
    const {
  visit(path, Stat{node.type, node.content.size() + node.payload, node.link_target});
  if (node.type == NodeType::kDirectory) {
    for (const auto& [name, child] : node.entries) {
      walk_node(path == "/" ? "/" + name : path + "/" + name, *child, visit);
    }
  }
}

void FileSystem::walk(std::string_view root,
                      const std::function<void(const std::string&, const Stat&)>& visit) const {
  const Walk walk(*this, root, Walk::kFollow);
  if (walk.node == nullptr) throw IoError(strings::cat("walk: no such path: ", walk.norm));
  walk_node(std::string(walk.norm), *walk.node, visit);
}

std::uint64_t FileSystem::disk_usage(std::string_view root) const {
  std::uint64_t total = 0;
  walk(root, [&](const std::string&, const Stat& st) {
    switch (st.type) {
      case NodeType::kFile: total += blocks_for(st.size); break;
      case NodeType::kDirectory: total += kBlockSize; break;
      case NodeType::kSymlink: total += kBlockSize; break;
    }
  });
  return total;
}

std::uint64_t FileSystem::logical_size(std::string_view root) const {
  std::uint64_t total = 0;
  walk(root, [&](const std::string&, const Stat& st) {
    if (st.type == NodeType::kFile) total += st.size;
  });
  return total;
}

std::size_t FileSystem::count(std::string_view root, NodeType type) const {
  std::size_t total = 0;
  walk(root, [&](const std::string&, const Stat& st) {
    if (st.type == type) ++total;
  });
  return total;
}

std::uint64_t content_hash(std::string_view content) {
  // FNV-style mix over 8-byte words rather than single bytes: config files
  // are re-hashed on every service flush, and hash values are only ever
  // compared against other content_hash results, so widening the stride is
  // observable only as speed. The tail word folds in the residual length so
  // trailing NUL bytes still change the digest.
  std::uint64_t hash = 1469598103934665603ULL;
  const char* p = content.data();
  std::size_t n = content.size();
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    hash ^= word;
    hash *= 1099511628211ULL;
  }
  std::uint64_t tail = 0;
  std::memcpy(&tail, p, n);
  hash ^= tail ^ (static_cast<std::uint64_t>(n) << 56);
  hash *= 1099511628211ULL;
  return hash;
}

std::uint64_t FileSystem::file_hash(std::string_view path) const {
  const Walk walk(*this, path, Walk::kFollow);
  const Node* node = walk.node;
  if (node == nullptr || node->type != NodeType::kFile)
    throw IoError(strings::cat("file_hash: no such file: ", walk.norm));
  std::uint64_t hash = node->hash_cache.load(std::memory_order_relaxed);
  if (hash == 0) {  // 0 doubles as "not cached"; a genuine 0 just recomputes
    hash = content_hash(node->content);
    node->hash_cache.store(hash, std::memory_order_relaxed);
  }
  // Synthetic payload contributes its size so same-name packages with
  // different payloads hash differently.
  for (std::uint64_t v = node->payload; v != 0; v >>= 8) {
    hash ^= v & 0xFF;
    hash *= 1099511628211ULL;
  }
  return hash;
}

void FileSystem::add_partition(std::string_view mount_point) {
  const std::string norm = normalize(mount_point);
  require_state(norm != "/", "add_partition: '/' is the implicit root partition");
  if (std::find(partitions_.begin(), partitions_.end(), norm) == partitions_.end())
    partitions_.push_back(norm);
  mkdir_p(norm);
}

void FileSystem::wipe_root_partition() {
  // Detach preserved subtrees, clear the root, reattach.
  std::vector<std::pair<std::string, std::unique_ptr<Node>>> preserved;
  for (const auto& mount : partitions_) {
    const Walk walk(*this, mount, Walk::kParent);
    if (walk.node == nullptr) continue;
    const auto it = walk.node->entries.find(walk.leaf);
    if (it == walk.node->entries.end()) continue;
    preserved.emplace_back(mount, std::move(it->second));
    walk.node->entries.erase(it);
  }
  root_->entries.clear();
  for (auto& [mount, node] : preserved) {
    mkdir_p(dirname(mount));
    const Walk walk(*this, mount, Walk::kParent);
    walk.parent().entries.emplace(std::string(walk.leaf), std::move(node));
  }
}

void FileSystem::copy_node(const Node& src, Node& dst) {
  dst.type = src.type;
  dst.content = src.content;
  dst.payload = src.payload;
  dst.hash_cache.store(src.hash_cache.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
  dst.link_target = src.link_target;
  dst.entries.clear();
  for (const auto& [name, child] : src.entries) {
    auto copy = std::make_unique<Node>();
    copy_node(*child, *copy);
    dst.entries.emplace(name, std::move(copy));
  }
}

void FileSystem::copy_tree(const FileSystem& from, std::string_view src, std::string_view dst) {
  const Node* src_node = Walk(from, src, Walk::kFollow).node;
  if (src_node == nullptr) throw IoError(strings::cat("copy_tree: no such path: ", src));
  const std::string target = normalize(dst);
  mkdir_p(dirname(target));
  const Walk walk(*this, target, Walk::kParent);
  auto copy = std::make_unique<Node>();
  copy_node(*src_node, *copy);
  walk.parent().entries.insert_or_assign(std::string(walk.leaf), std::move(copy));
}

void FileSystem::link_tree(const FileSystem& from, std::string_view src, std::string_view dst,
                           std::string_view link_prefix) {
  const Node* src_node = Walk(from, src, Walk::kFollow).node;
  if (src_node == nullptr || src_node->type != NodeType::kDirectory)
    throw IoError(strings::cat("link_tree: no such directory: ", src));
  mkdir_p(dst);
  for (const auto& [name, child] : src_node->entries) {
    const std::string child_dst = join(dst, name);
    const std::string child_link = join(link_prefix, name);
    if (child->type == NodeType::kDirectory) {
      link_tree(from, join(src, name), child_dst, child_link);
    } else {
      remove(child_dst);  // no follow: a dangling link is replaced too
      symlink(child_link, child_dst);
    }
  }
}

}  // namespace rocks::vfs
