// Copyright 2026 The skewsearch Authors.
// PartitionPlanner: skew-aware assignment of filter keys to workers for
// the distributed all-pairs join (LSF-Join, Rashtchian-Sharma-Woodruff
// 2020, adapted to the paper's chosen-path filter family).
//
// Filter keys are a pure function of (seed, repetition, vector), so any
// machine holding the read-only FilterFamily derives the same keys — a
// partition of the *key space* therefore fully determines which worker
// holds which posting entries and which workers a probe must visit. The
// planner's job is to make that partition robust to skew:
//
//   * Light keys (posting count below `heavy_threshold`) are
//     hashed to exactly one worker. Their verification work is small, so
//     single-home placement costs nothing and keeps probe fan-out at 1.
//   * Heavy keys — and skewed data concentrates a large fraction of all
//     posting entries in a handful of keys — are *split*: the key's
//     posting list is divided into c = ceil(count / heavy_threshold)
//     (capped at W) contiguous slices, each owned by a different worker.
//     Probes carrying the key visit every slice owner, and each owner
//     verifies only its slice, so the mega-key's verification work
//     spreads across the cluster instead of serializing on one machine.
//
// Heavy keys are placed largest-first onto the least-loaded workers (LPT
// scheduling over the posting loads), after the light keys'
// hash-determined loads are accounted. The plan is a pure function of
// its inputs, so every participant can recompute it.
//
// The planner reads the exact per-key posting counts of the frozen
// table the coordinator builds (PlanFromTable). A key the table does not
// hold is routed by hash like any light key, so a plan always covers the
// whole key space.

#ifndef SKEWSEARCH_DISTRIBUTED_PARTITION_PLAN_H_
#define SKEWSEARCH_DISTRIBUTED_PARTITION_PLAN_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/inverted_index.h"
#include "util/containers.h"
#include "util/result.h"

namespace skewsearch {

/// \brief Planner configuration.
struct PartitionPlannerOptions {
  /// Number of workers W (>= 1).
  int workers = 4;

  /// A key whose posting count is >= this is heavy and gets split
  /// across ceil(count / heavy_threshold) workers (capped at W).
  /// 0 derives max(16, total_entries / (4 * W)): any key that alone
  /// fills a quarter of a balanced worker's share is worth splitting.
  size_t heavy_threshold = 0;
};

/// \brief A skew-aware assignment of filter keys to workers.
///
/// Light keys are routed by hash (`HomeOf`); heavy keys carry an explicit
/// ordered owner list, one worker per posting-list slice. Immutable after
/// planning and cheap to copy around — in a multi-machine deployment this
/// struct is what the coordinator broadcasts.
struct PartitionPlan {
  /// Number of workers the plan targets (0 = invalid/unplanned).
  int workers = 0;

  /// The heavy/light split point actually used (resolved from the
  /// planner option, so 0 never appears here).
  size_t heavy_threshold = 0;

  /// Heavy keys mapped to their ordered slice owners. Slice j of the
  /// key's posting list (contiguous, near-equal split) belongs to
  /// owners[j]. Always non-empty lists of distinct workers. Probed once
  /// per routed key, hence the flat posting-path map.
  PostingMap<uint64_t, std::vector<int>> heavy;

  /// Estimated posting entries per worker (diagnostics; light keys
  /// accrue to their hash home, heavy slices to their owners).
  std::vector<double> estimated_load;

  /// Broadcast routing: every key goes to every worker. This is the
  /// plan of the frozen-shard serving mode, where workers partition the
  /// *id* space (ShardOf over a mapped SKF2 file) instead of the key
  /// space — a key's postings are spread across all shards, so every
  /// probe must visit every worker. `heavy` is empty under broadcast.
  bool broadcast = false;

  /// True once a planner produced this plan.
  bool valid() const { return workers > 0; }

  /// The all-workers plan of the frozen-shard mode (see `broadcast`).
  static PartitionPlan Broadcast(int workers);

  /// The hash home of a light key, or of one the planned table lacks.
  int HomeOf(uint64_t key) const;

  /// Appends every worker that must see \p key — the slice owners for a
  /// heavy key, the single hash home otherwise.
  void RouteKey(uint64_t key, std::vector<int>* out) const;

  /// Number of keys classified heavy.
  size_t num_heavy_keys() const { return heavy.size(); }

  /// Total slice assignments across heavy keys (>= num_heavy_keys()).
  size_t replicated_slices() const;
};

/// \brief Computes skew-aware partition plans.
class PartitionPlanner {
 public:
  /// Plans from the exact per-key posting counts of a frozen \p table.
  static Result<PartitionPlan> PlanFromTable(
      const FilterTable& table, const PartitionPlannerOptions& options);
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_PARTITION_PLAN_H_
