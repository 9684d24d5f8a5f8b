// Copyright 2026 The skewsearch Authors.
// A fixed-size pool that runs ParallelFor: dynamically scheduled chunks
// of an index range, for index builds, batch queries and the join's
// route and fan-out.
//
// Dynamic chunk scheduling keeps skewed per-item costs (the whole point
// of this library) from leaving threads idle behind one hot shard. The
// calling thread takes part as slot 0, and num_threads() - 1 long-lived
// workers take the other slots. Each chunk runs under a slot id in
// [0, num_threads()), which callers use to index per-thread scratch
// buffers without locking.

#ifndef SKEWSEARCH_UTIL_THREAD_POOL_H_
#define SKEWSEARCH_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace skewsearch {

/// \brief Fixed-size pool of ParallelFor slots.
///
/// ParallelFor may be called from any thread. Calls from different
/// threads on one pool are serialized: each runs to completion before
/// the next starts. Calling ParallelFor on the same pool from inside
/// \p fn is not supported (it would wait for itself).
class ThreadPool {
 public:
  /// Provides \p num_threads slots: the caller of ParallelFor plus
  /// num_threads - 1 workers. Values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs \p fn(begin, end, slot) over dynamically claimed chunks of
  /// [0, n), blocking until every chunk is done. `slot` is in
  /// [0, num_threads) and is unique among concurrently running chunks,
  /// so it can index per-thread scratch state; the calling thread runs
  /// slot 0. \p grain is the chunk size (0 picks one). The first
  /// exception thrown by \p fn is rethrown once every slot has stopped.
  /// With one slot (or n <= grain) everything runs inline on the
  /// calling thread as fn(0, n, 0).
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t, int)>& fn);

 private:
  void WorkerLoop(int slot);
  /// Claims and runs chunks of the current call until none are left or
  /// its fn throws (the first exception is kept in error_).
  void RunChunks(int slot);

  int num_threads_ = 1;
  std::mutex call_mutex_;  // serializes ParallelFor callers

  std::mutex mutex_;  // guards the fields below, up to grain_
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  uint64_t call_ = 0;  // bumped once per ParallelFor that uses workers
  int running_ = 0;    // workers still inside the current call
  bool stop_ = false;
  std::exception_ptr error_;
  // The current call; written under mutex_ before call_ is bumped.
  const std::function<void(size_t, size_t, int)>* fn_ = nullptr;
  size_t n_ = 0;
  size_t grain_ = 1;
  std::atomic<size_t> next_{0};       // the chunk cursor
  std::vector<std::thread> workers_;  // last: they use everything above
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_UTIL_THREAD_POOL_H_
