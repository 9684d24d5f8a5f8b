// Copyright 2026 The skewsearch Authors.
// A fixed-size worker pool for sharding embarrassingly parallel work
// (index builds, batch queries, benchmark sweeps).
//
// Tasks are closures executed FIFO by `num_threads` long-lived workers;
// ParallelFor layers dynamic chunk scheduling on top so skewed per-item
// costs (the whole point of this library) cannot leave workers idle
// behind one hot shard. Each ParallelFor worker gets a stable slot id in
// [0, num_threads), which callers use to index per-thread scratch
// buffers without locking.

#ifndef SKEWSEARCH_UTIL_THREAD_POOL_H_
#define SKEWSEARCH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace skewsearch {

/// \brief Fixed-size FIFO thread pool.
///
/// Thread-safe: Submit/ParallelFor may be called concurrently from any
/// thread that is not itself a pool worker (a worker waiting on its own
/// pool would deadlock). Destruction drains already-queued tasks.
class ThreadPool {
 public:
  /// Spawns \p num_threads workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Joins all workers after finishing queued tasks.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues \p fn and returns a future for its result. Exceptions
  /// propagate through the future.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> result = task->get_future();
    Enqueue([task] { (*task)(); });
    return result;
  }

  /// Runs \p fn(begin, end, slot) over dynamically scheduled chunks of
  /// [0, n), blocking until every chunk is done. `slot` is in
  /// [0, num_threads) and is unique among concurrently running chunks,
  /// so it can index per-thread scratch state. \p grain is the chunk
  /// size (0 picks one). The first exception thrown by \p fn is
  /// rethrown. With one worker (or n <= grain) everything runs inline
  /// on the calling thread as fn(0, n, 0).
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t, int)>& fn);

  /// Total tasks a worker has dequeued to run (diagnostics/tests). A
  /// task is counted before it runs, so once its future is ready the
  /// count already includes it; a task still running is counted too.
  size_t tasks_executed() const;

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  size_t tasks_executed_ = 0;
  bool stop_ = false;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_UTIL_THREAD_POOL_H_
