// A fixed-size worker thread pool with a FIFO work queue.
//
// The paper's frontend must survive a mass reinstall (Section 6.3): every
// compute node requests its kickstart file and pulls RPMs at once. One
// slow request must not serialize the cluster, so the serving stack —
// KickstartServer::handle_many(), rocks-dist mirror/build — fans work
// across this pool. See DESIGN.md §9 for the threading model and lock
// hierarchy.
//
// Semantics:
//   - submit(f) enqueues a task and returns a std::future for its result;
//     exceptions thrown by the task surface through future::get().
//   - parallel_for(n, fn) partitions [0, n) into contiguous chunks (at
//     most 4 per worker, for balance), runs them on the pool, blocks until
//     every index has run, and rethrows the first worker exception.
//   - Destruction drains: queued tasks still run to completion before the
//     workers exit, so a future obtained from submit() is always
//     eventually ready. Tests pin this (ThreadPoolTest.ShutdownDrains*).
//
// Per-pool stats (tasks run, queue-depth high water, cumulative queue-wait
// and run time) are kept with relaxed atomics — they are observability,
// not synchronization.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rocks::support {

class ThreadPool {
 public:
  /// Spawns `workers` threads (0 is clamped to 1).
  explicit ThreadPool(std::size_t workers);
  /// Drains the queue — every submitted task runs — then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return threads_.size(); }

  /// Enqueues `f` and returns a future for its result. Exceptions thrown by
  /// `f` propagate through the future.
  template <typename F>
  [[nodiscard]] std::future<std::invoke_result_t<F>> submit(F&& f) {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(f));
    std::future<R> result = task->get_future();
    enqueue([task]() { (*task)(); });
    return result;
  }

  /// Runs fn(i) for every i in [0, n), spread across the workers in
  /// contiguous chunks. Blocks until all indexes have run; if any fn call
  /// throws, the remaining indexes of *other* chunks still run, and the
  /// first exception (in chunk order) is rethrown here. n == 0 returns
  /// immediately without touching the queue.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  // --- stats ---------------------------------------------------------------
  /// Tasks a worker has picked up. Counted as each task starts, so a caller
  /// whose future is ready always sees its own task included.
  [[nodiscard]] std::uint64_t tasks_run() const {
    return tasks_run_.load(std::memory_order_relaxed);
  }
  /// Deepest the queue has ever been (pending tasks not yet picked up).
  [[nodiscard]] std::size_t queue_depth_high_water() const {
    return queue_high_water_.load(std::memory_order_relaxed);
  }
  /// Cumulative time tasks spent waiting in the queue before a worker
  /// picked them up.
  [[nodiscard]] std::chrono::nanoseconds total_wait() const {
    return std::chrono::nanoseconds(wait_ns_.load(std::memory_order_relaxed));
  }
  /// Cumulative time workers spent executing tasks.
  [[nodiscard]] std::chrono::nanoseconds total_run() const {
    return std::chrono::nanoseconds(run_ns_.load(std::memory_order_relaxed));
  }

 private:
  struct QueuedTask {
    std::function<void()> work;
    std::chrono::steady_clock::time_point enqueued;
  };

  void enqueue(std::function<void()> work);
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<QueuedTask> queue_;
  bool stopping_ = false;
  std::vector<std::thread> threads_;

  std::atomic<std::uint64_t> tasks_run_{0};
  std::atomic<std::size_t> queue_high_water_{0};
  std::atomic<std::uint64_t> wait_ns_{0};
  std::atomic<std::uint64_t> run_ns_{0};
};

/// Simulated-wall-clock helper for rocks-dist's build-time model: the time
/// `items` uniform tasks of `seconds_per_item` take on `workers` parallel
/// lanes — ceil(items/workers) rounds of one item each. workers == 0 is
/// treated as 1.
[[nodiscard]] double parallel_wall_seconds(std::size_t items, std::size_t workers,
                                           double seconds_per_item);

}  // namespace rocks::support
