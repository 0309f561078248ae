// Multi-version concurrency control primitives (DESIGN.md §13).
//
// The engine used to serialize the world through one std::shared_mutex:
// every insert-ethers burst stalled all kickstart generation, and
// snapshot() held the cluster still while it serialized. These primitives
// replace the reader side of that lock with snapshot-isolation reads:
//
//   - Every row lives in a RowSlot holding a newest-first chain of
//     RowVersions. A version is visible at read timestamp `ts` iff
//     begin_ts <= ts < end_ts; the first chain entry with begin_ts <= ts
//     decides (chains are ordered by begin_ts descending).
//   - Commit timestamps ride the WAL LSN sequence: a statement's versions
//     are stamped with the LSN of its commit-marked record, so "the state
//     at ts" and "the state after replaying LSNs <= ts" are the same thing
//     by construction.
//   - Readers pin a timestamp in the ReaderRegistry; writers never block
//     them. Reclamation (Table::reclaim) frees superseded versions only
//     once the registry proves no live read view can reach them.
//
// Reclamation safety has two independent gates:
//   1. Timestamp horizon: a version chain suffix whose end_ts <= min
//      active read ts is invisible to every live and future reader, and —
//      because the suffix's predecessor has begin_ts == suffix head's
//      end_ts <= every active ts — no reader's chain walk ever *reaches*
//      the suffix (the walk stops at the first begin_ts <= ts). Such
//      suffixes are unlinked and freed immediately.
//   2. Registration epochs: a chain whose *head* is dead (deleted row) can
//      still have its fields loaded by a reader that fetched the head
//      pointer just before the unlink. Dead heads are therefore unlinked
//      immediately but freed lazily: each pin records a registration
//      number from a global counter, the unlink records the counter *after*
//      nulling the head, and the limbo entry is freed only when every
//      active pin's registration number is >= that stamp — at which point
//      every live reader provably loaded the head after it became null.
//      (All participating loads/stores are seq_cst, so "after" in the
//      coherence order really means "observes the null".)
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "sqldb/value.hpp"

namespace rocks::sqldb {

/// end_ts of a live version / drop_ts of a live table: visible to every ts.
inline constexpr std::uint64_t kTsInfinity = ~std::uint64_t{0};
/// begin_ts of a version created by the statement in flight: greater than
/// any real timestamp, so invisible to every reader until commit stamps it.
inline constexpr std::uint64_t kTsUncommitted = ~std::uint64_t{0} - 1;

/// One immutable state of one row. `data` never changes after the version
/// is published (UPDATE creates a new version; the old in-place set_cell
/// path is gone), which is what makes reader access safe without locks.
struct RowVersion {
  Row data;
  std::atomic<std::uint64_t> begin_ts{kTsUncommitted};
  std::atomic<std::uint64_t> end_ts{kTsInfinity};
  std::atomic<RowVersion*> older{nullptr};  // next-oldest version, or null
};

/// One row identity. Slots are allocated in insert order and never reused,
/// so enumerating slots in id order reproduces the historical row order the
/// old contiguous rows_ vector had — the invariant behind dump_state()
/// byte-identity and scan-identical SELECT emission.
struct RowSlot {
  std::atomic<RowVersion*> head{nullptr};  // newest version; null = never
                                           // written or fully reclaimed
};

/// Fixed-size slot block. Blocks are never reallocated once published, so
/// a reader iterating a block never races slot *storage* growth.
struct VersionChunk {
  static constexpr std::size_t kSize = 256;
  std::array<RowSlot, kSize> slots;
};

/// The table's slot array: an immutable vector of shared chunk pointers.
/// Growth publishes a new directory (copying the chunk pointer vector and
/// appending a fresh chunk); old directories stay valid for readers that
/// loaded them.
struct SlotDirectory {
  std::vector<std::shared_ptr<VersionChunk>> chunks;
  [[nodiscard]] std::size_t capacity() const { return chunks.size() * VersionChunk::kSize; }
  [[nodiscard]] RowSlot& slot(std::uint32_t id) const {
    return chunks[id / VersionChunk::kSize]->slots[id % VersionChunk::kSize];
  }
};

/// Tracks every live read view so reclamation can compute the oldest
/// timestamp (and oldest registration number) still in use. Pins are
/// lock-free through a fixed array of cache-line-padded slots; the rare
/// overflow past kSlots concurrent views falls back to a mutexed map.
class ReaderRegistry {
 public:
  class Pin {
   public:
    Pin() = default;
    Pin(Pin&& other) noexcept { *this = std::move(other); }
    Pin& operator=(Pin&& other) noexcept {
      if (this != &other) {
        release();
        registry_ = other.registry_;
        ts_ = other.ts_;
        slot_ = other.slot_;
        reg_ = other.reg_;
        other.registry_ = nullptr;
      }
      return *this;
    }
    Pin(const Pin&) = delete;
    Pin& operator=(const Pin&) = delete;
    ~Pin() { release(); }

    /// The pinned read timestamp. Valid only while the pin is held.
    [[nodiscard]] std::uint64_t ts() const { return ts_; }
    [[nodiscard]] explicit operator bool() const { return registry_ != nullptr; }
    void release();

   private:
    friend class ReaderRegistry;
    ReaderRegistry* registry_ = nullptr;
    std::uint64_t ts_ = 0;
    int slot_ = -1;  // -1: overflow entry keyed by reg_
    std::uint64_t reg_ = 0;
  };

  /// Registers a read view at the current commit timestamp. The returned
  /// pin holds the view's ts and keeps reclamation from freeing anything
  /// the view can reach until released. Protocol (all seq_cst): claim a
  /// slot with the kRegistering sentinel, take a registration number, load
  /// commit_ts, publish the ts — so reclamation either sees the final ts
  /// or the sentinel (and then skips the round), never a stale gap.
  [[nodiscard]] Pin pin(const std::atomic<std::uint64_t>& commit_ts);

  struct Horizon {
    std::uint64_t ts = 0;    // min active read ts (fallback when idle)
    std::uint64_t reg = 0;   // min active registration number (counter when idle)
    std::size_t active = 0;  // live read views observed
  };
  /// The reclamation horizon. `fallback_ts` (the current commit ts) is
  /// returned when no view is active. A ts of 0 means a pin was observed
  /// mid-registration — the caller must skip this reclamation round.
  [[nodiscard]] Horizon horizon(std::uint64_t fallback_ts) const;

  /// Live read views right now (status/observability; racy by nature).
  [[nodiscard]] std::size_t active_views() const;
  /// Total pins ever taken; also the next registration number to issue.
  [[nodiscard]] std::uint64_t registration_sequence() const {
    return reg_counter_.load(std::memory_order_seq_cst);
  }

 private:
  static constexpr std::size_t kSlots = 128;
  static constexpr std::uint64_t kFree = kTsInfinity;
  static constexpr std::uint64_t kRegistering = kTsUncommitted;
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> ts{kFree};
    std::atomic<std::uint64_t> reg{0};
  };
  std::array<Slot, kSlots> slots_;
  std::atomic<std::uint64_t> reg_counter_{1};
  mutable std::mutex overflow_mutex_;
  std::map<std::uint64_t, std::uint64_t> overflow_;  // registration -> ts
};

}  // namespace rocks::sqldb
