// Copyright 2026 The skewsearch Authors.
// Internal driver shared by the BatchQuery() implementations of
// ShardedIndex, DynamicIndex, ChosenPathIndex and MinHashLsh. Not part
// of the public API.
//
// The batch is sharded over the caller's ThreadPool in dynamically
// scheduled chunks (skewed data means skewed per-query cost, so static
// splits strand workers behind hot queries); no batch starts a thread
// of its own. Each worker slot owns a Scratch instance whose buffers
// are reused across every query it answers; results and per-query
// stats land in positional slots, so output is identical to a serial
// run regardless of thread count or chunk schedule.

#ifndef SKEWSEARCH_CORE_BATCH_H_
#define SKEWSEARCH_CORE_BATCH_H_

#include <algorithm>
#include <optional>
#include <vector>

#include "core/query_stats.h"
#include "data/dataset.h"
#include "sim/brute_force.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {
namespace batch_internal {

/// Answers every query in \p queries via
/// `query_one(i, &scratch, &query_stats)`, which yields an optional
/// Match per query,
/// using one Scratch per worker slot. \p reduce folds each slot's
/// scratch into the aggregate: `reduce(scratch, batch_stats)`.
/// A null (or single-threaded) \p pool runs serially on the caller.
template <typename Scratch, typename QueryOne, typename Reduce>
std::vector<std::optional<Match>> Run(const Dataset& queries, ThreadPool* pool,
                                      std::vector<QueryStats>* stats,
                                      BatchQueryStats* batch_stats,
                                      const QueryOne& query_one,
                                      const Reduce& reduce) {
  Timer timer;
  const size_t n = queries.size();
  std::vector<std::optional<Match>> results(n);
  if (stats != nullptr) stats->assign(n, QueryStats{});
  const int slots =
      (pool != nullptr && n > 1) ? std::max(1, pool->num_threads()) : 1;
  std::vector<Scratch> scratch(static_cast<size_t>(slots));
  // Per-slot totals avoid a shared accumulator (and its contention).
  std::vector<QueryStats> totals(static_cast<size_t>(slots));
  auto run_query = [&](size_t i, int slot) {
    QueryStats query_stats;
    results[i] = query_one(i, &scratch[static_cast<size_t>(slot)],
                           &query_stats);
    AddQueryStats(&totals[static_cast<size_t>(slot)], query_stats);
    if (stats != nullptr) (*stats)[i] = query_stats;
  };
  if (slots <= 1) {
    for (size_t i = 0; i < n; ++i) run_query(i, 0);
  } else {
    const size_t grain = std::clamp<size_t>(
        n / (8 * static_cast<size_t>(slots)), size_t{1}, size_t{64});
    pool->ParallelFor(n, grain, [&](size_t begin, size_t end, int slot) {
      for (size_t i = begin; i < end; ++i) run_query(i, slot);
    });
  }
  if (batch_stats != nullptr) {
    *batch_stats = BatchQueryStats{};
    batch_stats->queries = n;
    batch_stats->threads = slots;
    for (const QueryStats& t : totals) AddQueryStats(&batch_stats->totals, t);
    for (const Scratch& s : scratch) reduce(s, batch_stats);
    batch_stats->wall_seconds = timer.ElapsedSeconds();
  }
  return results;
}

}  // namespace batch_internal
}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_BATCH_H_
