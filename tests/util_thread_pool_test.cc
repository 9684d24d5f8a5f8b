// Copyright 2026 The skewsearch Authors.
#include "util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace skewsearch {
namespace {

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool zero(0);
  EXPECT_EQ(zero.num_threads(), 1);
  ThreadPool negative(-3);
  EXPECT_EQ(negative.num_threads(), 1);
  ThreadPool four(4);
  EXPECT_EQ(four.num_threads(), 4);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t n : {size_t{0}, size_t{1}, size_t{7}, size_t{1000}}) {
    for (size_t grain : {size_t{0}, size_t{1}, size_t{13}, size_t{4096}}) {
      std::vector<std::atomic<int>> hits(n);
      pool.ParallelFor(n, grain, [&](size_t begin, size_t end, int slot) {
        ASSERT_GE(slot, 0);
        ASSERT_LT(slot, pool.num_threads());
        ASSERT_LE(end, n);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i << " n=" << n
                                     << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPoolTest, ParallelForSlotsAreUnambiguousScratchIndices) {
  // Per-slot accumulation with no synchronization must be exact: two
  // chunks may only share a slot sequentially, never concurrently.
  ThreadPool pool(4);
  const size_t n = 5000;
  std::vector<long> per_slot(static_cast<size_t>(pool.num_threads()), 0);
  pool.ParallelFor(n, 7, [&](size_t begin, size_t end, int slot) {
    for (size_t i = begin; i < end; ++i) {
      per_slot[static_cast<size_t>(slot)] += static_cast<long>(i);
    }
  });
  const long total = std::accumulate(per_slot.begin(), per_slot.end(), 0L);
  EXPECT_EQ(total, static_cast<long>(n * (n - 1) / 2));
}

TEST(ThreadPoolTest, ParallelForRunsInlineWithSingleWorker) {
  ThreadPool pool(1);
  const auto main_id = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  pool.ParallelFor(5, 2, [&](size_t, size_t, int slot) {
    EXPECT_EQ(slot, 0);
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_FALSE(seen.empty());
  for (const auto& id : seen) EXPECT_EQ(id, main_id);
}

TEST(ThreadPoolTest, ConcurrentCallersEachCoverTheirRangeWithUniqueSlots) {
  // Two threads share one 4-slot pool. Calls are serialized, so each
  // call sees every index once and no slot twice at the same time.
  ThreadPool pool(4);
  auto caller = [&pool](size_t n) {
    for (int round = 0; round < 200; ++round) {
      std::vector<std::atomic<int>> hits(n);
      std::vector<std::atomic<int>> busy(
          static_cast<size_t>(pool.num_threads()));
      std::atomic<int> overlaps{0};
      pool.ParallelFor(n, 3, [&](size_t begin, size_t end, int slot) {
        std::atomic<int>& in_use = busy[static_cast<size_t>(slot)];
        if (in_use.fetch_add(1) != 0) overlaps.fetch_add(1);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        in_use.fetch_sub(1);
      });
      EXPECT_EQ(overlaps.load(), 0) << "round " << round;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1) << "index " << i << " round " << round;
      }
    }
  };
  std::thread first(caller, size_t{97});
  std::thread second(caller, size_t{250});
  first.join();
  second.join();
}

TEST(ThreadPoolTest, ParallelForPropagatesFirstException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.ParallelFor(100, 1,
                       [](size_t begin, size_t, int) {
                         if (begin == 42) throw std::runtime_error("bad");
                       }),
      std::runtime_error);
  // Pool remains usable afterwards.
  std::atomic<int> counter{0};
  pool.ParallelFor(10, 1,
                   [&](size_t, size_t, int) { counter.fetch_add(1); });
  EXPECT_GT(counter.load(), 0);
}

}  // namespace
}  // namespace skewsearch
