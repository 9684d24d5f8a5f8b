#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>

namespace skewsearch {

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  workers_.reserve(static_cast<size_t>(count));
  for (int t = 0; t < count; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      // Counted at dequeue, under the same lock: the count is in place
      // before task() can make the caller's future ready.
      tasks_executed_++;
    }
    task();
  }
}

size_t ThreadPool::tasks_executed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tasks_executed_;
}

void ThreadPool::ParallelFor(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t, int)>& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const int slots = num_threads();
  if (slots <= 1 || n <= grain) {
    fn(0, n, 0);
    return;
  }
  std::atomic<size_t> next{0};
  std::vector<std::future<void>> parts;
  parts.reserve(static_cast<size_t>(slots));
  // One claiming loop per slot: slot ids stay unique among concurrently
  // running chunks, and the atomic cursor load-balances skewed items.
  for (int slot = 0; slot < slots; ++slot) {
    parts.push_back(Submit([n, grain, slot, &next, &fn] {
      for (;;) {
        const size_t begin = next.fetch_add(grain);
        if (begin >= n) return;
        fn(begin, std::min(n, begin + grain), slot);
      }
    }));
  }
  // Wait for every slot before rethrowing: the tasks reference the
  // stack-local `next`/`fn`, which must outlive all of them.
  std::exception_ptr first_error;
  for (auto& part : parts) {
    try {
      part.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace skewsearch
