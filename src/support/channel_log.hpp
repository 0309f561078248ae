// A bounded log with subscribers: the one mechanism behind every stream
// that consumers either watch or read with a cursor (DESIGN.md §10.1).
//
// The paper's management loop is built from such streams: insert-ethers
// watches syslog and regenerates configuration from the database (Section
// 6.4), shoot-node attaches to the eKV console stream (Section 6.3). In
// this toolkit the SQL change journal, the cluster event spine, the syslog
// bus and the eKV console all keep, per channel:
//   - a monotonic sequence number, bumped once per appended record;
//   - a bounded log of the newest records with a truncation floor, so a
//     cursor below the floor is told to rescan and is never handed a gapped
//     delta;
// plus one id-keyed subscriber list, each subscriber bound to one channel
// or to all of them.
//
// Records carry their own `std::uint64_t seq`, stamped by append(). A Key
// names the channel (a lowered table name, an EventType); single-stream
// owners use the default std::monostate and pass {}.
//
// Locking: two leaf mutexes, one for the channels and one for the
// subscriber list. dispatch() copies the matching callbacks out under the
// subscriber lock and invokes them after every lock is dropped, so a
// callback may append, subscribe, unsubscribe (itself included) or re-enter
// its owner. A callback unsubscribed mid-dispatch still sees the record
// being dispatched; one subscribed mid-dispatch starts with the next record.
// unsubscribe() does not wait for callbacks already running on other
// threads — quiesce publishers before destroying a subscriber's state.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

namespace rocks::support {

/// What a cursor gets back from ChannelLog::since(): either the exact
/// records that move it to `seq`, or truncated == true ("the log no longer
/// covers that range — rescan and resume from `seq`"). `floor` is the
/// oldest seq a cursor may resume from: a cursor at or above it gets exact
/// records, one below it must rescan.
template <typename Record>
struct ChannelDelta {
  bool truncated = false;
  std::uint64_t seq = 0;
  std::uint64_t floor = 0;
  std::vector<Record> records;  // empty when truncated
};

template <typename Record, typename Key = std::monostate,
          typename Callback = std::function<void(const Record&)>>
class ChannelLog {
 public:
  /// `capacity` bounds each channel's retained log (at least 1).
  explicit ChannelLog(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

  // Subscriptions hand out ids; copying would fork the id space.
  ChannelLog(const ChannelLog&) = delete;
  ChannelLog& operator=(const ChannelLog&) = delete;

  // --- the log --------------------------------------------------------------

  /// Stamps the channel's next seq into `record`, retains it (dropping the
  /// oldest record past capacity, which raises the floor) and returns the
  /// seq. Does not notify; see publish().
  std::uint64_t append(const Key& key, Record record) {
    std::lock_guard lock(state_mutex_);
    Channel& channel = channel_locked(key);
    record.seq = ++channel.seq;
    channel.log.push_back(std::move(record));
    trim_locked(channel);
    return channel.seq;
  }

  /// Bumps the channel's seq with no record and raises the floor to it:
  /// every cursor behind the new seq must rescan. The coarse "something
  /// changed" signal for changes without a usable record.
  std::uint64_t poison(const Key& key) {
    std::lock_guard lock(state_mutex_);
    Channel& channel = channel_locked(key);
    ++channel.seq;
    channel.floor = channel.seq;
    channel.log.clear();
    return channel.seq;
  }

  /// Reinstates a channel at `seq` with an empty log and floor == seq (a
  /// recovered image carries no records).
  void restore(const Key& key, std::uint64_t seq) {
    std::lock_guard lock(state_mutex_);
    Channel& channel = channel_locked(key);
    channel.seq = seq;
    channel.floor = seq;
    channel.log.clear();
  }

  /// Newest seq of a channel; 0 for a channel never written.
  [[nodiscard]] std::uint64_t seq(const Key& key) const {
    std::lock_guard lock(state_mutex_);
    const auto it = channels_.find(key);
    return it == channels_.end() ? 0 : it->second.seq;
  }

  [[nodiscard]] std::uint64_t floor(const Key& key) const {
    std::lock_guard lock(state_mutex_);
    const auto it = channels_.find(key);
    return it == channels_.end() ? 0 : it->second.floor;
  }

  /// Cursor read: every record after `seq`, or truncated == true when the
  /// log no longer reaches back that far. Always reports the channel's
  /// current seq, so the caller can advance its cursor either way.
  [[nodiscard]] ChannelDelta<Record> since(const Key& key, std::uint64_t seq) const {
    std::lock_guard lock(state_mutex_);
    ChannelDelta<Record> delta;
    const auto it = channels_.find(key);
    if (it == channels_.end()) return delta;  // never written: empty at seq 0
    const Channel& channel = it->second;
    delta.seq = channel.seq;
    delta.floor = channel.floor;
    if (seq >= channel.seq) return delta;  // already current
    if (seq < channel.floor) {
      delta.truncated = true;
      return delta;
    }
    for (const Record& record : channel.log)
      if (record.seq > seq) delta.records.push_back(record);
    return delta;
  }

  /// The newest <= limit retained records of a channel, oldest first.
  [[nodiscard]] std::vector<Record> recent(const Key& key, std::size_t limit) const {
    std::lock_guard lock(state_mutex_);
    const auto it = channels_.find(key);
    if (it == channels_.end()) return {};
    const auto& log = it->second.log;
    const std::size_t n = std::min(limit, log.size());
    return {log.end() - static_cast<std::ptrdiff_t>(n), log.end()};
  }

  /// Every written channel's (key, seq), in key order.
  [[nodiscard]] std::vector<std::pair<Key, std::uint64_t>> seqs() const {
    std::lock_guard lock(state_mutex_);
    std::vector<std::pair<Key, std::uint64_t>> out;
    out.reserve(channels_.size());
    for (const auto& [key, channel] : channels_) out.emplace_back(key, channel.seq);
    return out;
  }

  /// Shrinking trims every channel at once (raising floors).
  void set_capacity(std::size_t capacity) {
    std::lock_guard lock(state_mutex_);
    capacity_ = std::max<std::size_t>(capacity, 1);
    for (auto& [key, channel] : channels_) trim_locked(channel);
  }

  // --- subscribers ----------------------------------------------------------

  /// Registers a callback for one channel; returns an id for unsubscribe().
  std::size_t subscribe(Key key, Callback callback) {
    return add_subscriber(std::optional<Key>(std::move(key)), std::move(callback));
  }
  /// Registers a callback for every channel.
  std::size_t subscribe_all(Callback callback) {
    return add_subscriber(std::nullopt, std::move(callback));
  }
  void unsubscribe(std::size_t id) {
    std::lock_guard lock(subscriber_mutex_);
    subscribers_.erase(id);
  }

  /// Invokes, in subscription order, every subscriber of `key` and every
  /// all-channel subscriber with `args`, after all locks are dropped.
  template <typename... Args>
  void dispatch(const Key& key, const Args&... args) {
    for (const auto& callback : matching(key)) (*callback)(args...);
  }

  /// append() plus a dispatch() of the stamped record to the subscribers
  /// registered when publish() began; returns the record's seq.
  std::uint64_t publish(const Key& key, Record record) {
    const auto matched = matching(key);
    if (matched.empty()) return append(key, std::move(record));  // no copy to hand out
    Record retained = record;
    record.seq = append(key, std::move(retained));
    for (const auto& callback : matched) (*callback)(record);
    return record.seq;
  }

  [[nodiscard]] std::uint64_t notifications_sent() const {
    std::lock_guard lock(subscriber_mutex_);
    return notifications_sent_;
  }

 private:
  struct Channel {
    std::uint64_t seq = 0;
    std::uint64_t floor = 0;  // cursors below this must rescan
    std::deque<Record> log;   // seqs floor+1 .. seq, oldest first
  };

  struct Subscriber {
    std::optional<Key> key;  // nullopt: every channel
    std::shared_ptr<Callback> callback;
  };

  Channel& channel_locked(const Key& key) {
    const auto it = channels_.find(key);
    if (it != channels_.end()) return it->second;
    return channels_.emplace(key, Channel{}).first->second;
  }

  void trim_locked(Channel& channel) {
    while (channel.log.size() > capacity_) {
      channel.floor = channel.log.front().seq;
      channel.log.pop_front();
    }
  }

  /// Snapshot of the callbacks a dispatch on `key` reaches, counted as sent.
  std::vector<std::shared_ptr<Callback>> matching(const Key& key) {
    std::vector<std::shared_ptr<Callback>> matched;
    std::lock_guard lock(subscriber_mutex_);
    for (const auto& [id, subscriber] : subscribers_)
      if (!subscriber.key || *subscriber.key == key) matched.push_back(subscriber.callback);
    notifications_sent_ += matched.size();
    return matched;
  }

  std::size_t add_subscriber(std::optional<Key> key, Callback callback) {
    std::lock_guard lock(subscriber_mutex_);
    const std::size_t id = next_subscription_++;
    subscribers_.emplace(
        id, Subscriber{std::move(key), std::make_shared<Callback>(std::move(callback))});
    return id;
  }

  mutable std::mutex state_mutex_;  // guards channels_, capacity_
  std::map<Key, Channel> channels_;
  std::size_t capacity_;

  mutable std::mutex subscriber_mutex_;  // guards the rest
  std::map<std::size_t, Subscriber> subscribers_;
  std::size_t next_subscription_ = 1;
  std::uint64_t notifications_sent_ = 0;
};

}  // namespace rocks::support
