// Copyright 2026 The skewsearch Authors.
// Query-side counters shared by the skewed index and the baselines, plus
// the aggregate view a batched (multithreaded) query run reports.

#ifndef SKEWSEARCH_CORE_QUERY_STATS_H_
#define SKEWSEARCH_CORE_QUERY_STATS_H_

#include <cstddef>

#include "core/path_engine.h"

namespace skewsearch {

/// \brief Counters from one query.
struct QueryStats {
  size_t filters = 0;              ///< |F(q)| across repetitions
  size_t candidates = 0;           ///< sum of posting-list sizes (the
                                   ///< paper's query-cost proxy)
  size_t distinct_candidates = 0;  ///< after deduplication
  size_t verifications = 0;        ///< full similarity computations
  size_t size_skips = 0;           ///< distinct live candidates whose
                                   ///< sizes alone rule out the threshold
                                   ///< (MinOverlap), so not verified
  double seconds = 0.0;
};

/// Element-wise accumulation (seconds add up too).
inline void AddQueryStats(QueryStats* total, const QueryStats& add) {
  total->filters += add.filters;
  total->candidates += add.candidates;
  total->distinct_candidates += add.distinct_candidates;
  total->verifications += add.verifications;
  total->size_skips += add.size_skips;
  total->seconds += add.seconds;
}

/// Accumulation for path-generation counters; cap_hit is sticky.
inline void AddPathGenStats(PathGenStats* total, const PathGenStats& add) {
  total->filters_emitted += add.filters_emitted;
  total->nodes_expanded += add.nodes_expanded;
  total->draws += add.draws;
  total->cap_hit = total->cap_hit || add.cap_hit;
}

/// \brief Aggregate counters from one BatchQuery() call.
struct BatchQueryStats {
  size_t queries = 0;       ///< batch size
  int threads = 1;          ///< worker slots actually used
  QueryStats totals;        ///< sum over the whole batch (seconds is the
                            ///< summed per-query time, not wall time)
  PathGenStats path_gen;    ///< summed over every path-engine invocation
                            ///< (zero for engines without a path stage)
  double wall_seconds = 0.0;  ///< end-to-end batch wall time
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_QUERY_STATS_H_
