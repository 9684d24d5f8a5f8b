#include "util/thread_pool.h"

#include <algorithm>
#include <utility>

namespace skewsearch {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int slot = 1; slot < num_threads_; ++slot) {
    workers_.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop(int slot) {
  uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      start_cv_.wait(lock, [&] { return stop_ || call_ != seen; });
      if (stop_) return;
      seen = call_;
    }
    RunChunks(slot);
    std::lock_guard<std::mutex> lock(mutex_);
    if (--running_ == 0) done_cv_.notify_one();
  }
}

void ThreadPool::RunChunks(int slot) {
  try {
    for (;;) {
      const size_t begin = next_.fetch_add(grain_);
      if (begin >= n_) return;
      (*fn_)(begin, std::min(n_, begin + grain_), slot);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::ParallelFor(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  if (num_threads_ <= 1 || n <= grain) {
    fn(0, n, 0);
    return;
  }
  std::lock_guard<std::mutex> call_lock(call_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    fn_ = &fn;
    n_ = n;
    grain_ = grain;
    next_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    running_ = num_threads_ - 1;
    ++call_;
  }
  start_cv_.notify_all();
  RunChunks(0);
  // Every worker leaves the call before fn_ and the cursor can be
  // reused, so a worker never runs a chunk of the next call under this
  // one's fn.
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return running_ == 0; });
    fn_ = nullptr;
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace skewsearch
