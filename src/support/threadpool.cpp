#include "support/threadpool.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

namespace rocks::support {

ThreadPool::ThreadPool(std::size_t workers) {
  const std::size_t count = std::max<std::size_t>(1, workers);
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    threads_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void ThreadPool::enqueue(std::function<void()> work) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back({std::move(work), std::chrono::steady_clock::now()});
    // High-water under the lock: cheap, and the exact max matters to tests.
    const std::size_t depth = queue_.size();
    if (depth > queue_high_water_.load(std::memory_order_relaxed))
      queue_high_water_.store(depth, std::memory_order_relaxed);
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain semantics: stopping_ alone doesn't end the loop — the queue
      // must be empty too, so every submitted future becomes ready.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto started = std::chrono::steady_clock::now();
    wait_ns_.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(started - task.enqueued).count(),
        std::memory_order_relaxed);
    // Counted before work() makes the task's future ready: the count is
    // sequenced before the result is published, so get() implies it.
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    task.work();  // packaged_task: exceptions land in the future, never here
    run_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - started)
                          .count(),
                      std::memory_order_relaxed);
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Contiguous chunks, at most 4 per worker: enough slack that one slow
  // chunk doesn't idle the rest of the pool, few enough that per-task
  // overhead stays negligible against per-item work.
  const std::size_t chunks = std::min(n, size() * 4);
  const std::size_t per_chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t begin = c * per_chunk;
    const std::size_t end = std::min(n, begin + per_chunk);
    if (begin >= end) break;
    futures.push_back(submit([&fn, begin, end] {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    }));
  }
  // Wait for every chunk before rethrowing so no task is left touching
  // caller state after parallel_for returns.
  std::exception_ptr first_error;
  for (auto& future : futures) {
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

double parallel_wall_seconds(std::size_t items, std::size_t workers,
                             double seconds_per_item) {
  const std::size_t lanes = std::max<std::size_t>(1, workers);
  const std::size_t rounds = (items + lanes - 1) / lanes;
  return static_cast<double>(rounds) * seconds_per_item;
}

}  // namespace rocks::support
