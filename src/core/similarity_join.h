// Copyright 2026 The skewsearch Authors.
// Similarity join via repeated similarity search (the paper's "Similarity
// joins" paragraph: index S, then probe with every r in R; preprocessing
// O(d |S|^{1+rho}), total join time O(d |R| |S|^rho) when the output is
// small).
//
// Pair emission is pluggable: the default backend probes one in-process
// index (monolithic, sharded or online per JoinOptions), while
// `JoinOptions::workers > 1` routes the same probes through the
// distributed driver (src/distributed/) — a planner/worker pipeline
// whose output is identical for every worker count. All backends emit
// into the same canonical (left, right)-sorted pair list, which is what
// makes them interchangeable and cross-checkable.

#ifndef SKEWSEARCH_CORE_SIMILARITY_JOIN_H_
#define SKEWSEARCH_CORE_SIMILARITY_JOIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/skewed_index.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "maintenance/service.h"
#include "sim/brute_force.h"
#include "util/result.h"

namespace skewsearch {

/// \brief Join configuration.
struct JoinOptions {
  /// Index configuration for the build side (mode, b1/alpha, seed, ...).
  SkewedIndexOptions index;
  /// Similarity pairs must reach; negative derives the index's
  /// verify threshold.
  double threshold = -1.0;
  /// Probe-side parallelism (<= 1 = serial). Probes are independent; the
  /// output is identical to a serial join.
  int probe_threads = 0;
  /// Hash partitions of the build side's ShardedIndex (<= 1 = one
  /// shard). Shard probes are byte-identical at every shard count, so
  /// the join output does not depend on this knob — only memory layout
  /// and parallelism do.
  int num_shards = 0;
  /// When true, the build side is the *online* DynamicIndex with a
  /// MaintenanceService attached for the duration of the join (the
  /// end-to-end drivable maintenance path). A fresh dynamic build
  /// answers QueryAll identically to the static index, so this changes
  /// which engine serves the probes, not the output.
  bool online = false;
  /// Maintenance policy when online; `maintenance_thread` also starts
  /// the background thread while the join runs.
  MaintenanceOptions maintenance;
  bool maintenance_thread = false;
  /// Online only: number of net no-op insert+remove cycles applied to
  /// the build side after the build. Each cycle inserts a copy of an
  /// existing build-side vector and immediately tombstones it, so the
  /// join output is unchanged — but the accumulated deltas and
  /// tombstones give the maintenance service real compaction work that
  /// overlaps the probe phase. (Being net no-op, the churn never moves
  /// the live count, so it exercises compaction but can never trip the
  /// drift-rebuild trigger.) With the background thread off,
  /// maintenance runs inline at intervals during the churn. 0 =
  /// pristine build side, in which case the service has nothing to do.
  size_t churn = 0;
  /// When > 1, pair emission runs on the distributed backend
  /// (src/distributed/) instead of the single-process probe loop: a
  /// PartitionPlanner splits the filter-key space across this many
  /// in-process workers (heavy keys sliced, light keys hashed once) and
  /// the coordinator merges and dedups the per-worker pair streams. The
  /// output is provably identical to the single-process backend for any
  /// worker count. Incompatible with `online` (the distributed build
  /// side is immutable); `num_shards` is ignored by this backend.
  int workers = 0;
  /// Distributed backend only: posting count above which the planner
  /// splits a filter key across workers (0 = auto).
  size_t heavy_threshold = 0;
  /// When non-empty, the distributed backend's workers are remote
  /// `join-worker` processes at these "host:port" endpoints, one per
  /// worker, reached over the TCP transport
  /// (distributed/transport/tcp_transport.h): the coordinator connects,
  /// ships each worker its posting-slice assignment, streams probe
  /// batches, and merges — output still byte-identical to every other
  /// backend. Implies the distributed backend even for a single
  /// endpoint; `workers` must be 0 or match the endpoint count.
  std::vector<std::string> remote_workers;
  /// Remote workers only: probes shipped per ProbeBatch frame (0 =
  /// each worker's whole queue in one frame). Batch size never changes
  /// the output, only the number of round trips.
  size_t probe_batch = 256;
  /// Remote workers only: ProbeBatch frames kept in flight per worker
  /// (default 2 hides each batch's round trip behind the previous
  /// batch's service time; 1 = strict send-then-wait). Never changes
  /// the output.
  size_t pipeline = 2;
  /// When non-empty, the path of an SKF2 frozen-shard file
  /// (core/frozen_shard.h) previously written by Freeze() over the
  /// build-side dataset. Implies the distributed backend: instead of
  /// rebuilding the posting table, the coordinator maps the file
  /// zero-copy and serves one worker per stored shard
  /// (DistributedJoin::BuildFromFrozen). `index`, `workers` and
  /// `heavy_threshold` are ignored — the file's parameter block and
  /// shard count govern. With `remote_workers` set (one endpoint per
  /// stored shard) the workers must have pre-mapped the same file via
  /// `join-worker --shard-file`. Output stays byte-identical to every
  /// other backend. Incompatible with `online`.
  std::string frozen_shards;
};

/// \brief Join counters.
struct JoinStats {
  size_t pairs = 0;
  size_t candidates = 0;       ///< summed posting-list work across probes
  size_t verifications = 0;
  double build_seconds = 0.0;
  double probe_seconds = 0.0;
  size_t compactions = 0;      ///< online build side only
  size_t rebuilds = 0;         ///< online build side only
  /// Workers the distributed backend ran (0 = single-process): the
  /// `workers` option, the endpoint count, or a frozen file's shard
  /// count, which overrides both.
  size_t workers = 0;
  /// Distributed backend only: data shipped to workers over one dataset
  /// copy (1.0 elsewhere), and the average workers contacted per probe.
  double duplication_factor = 1.0;
  double probe_fanout = 0.0;
  /// Remote workers only (zero otherwise): probe-phase frame bytes on
  /// the wire, ProbeBatch frames shipped, and the *exposed* round trips
  /// — receives no pipelined batch was hiding (see
  /// DistributedJoinStats::probe_round_trips).
  uint64_t wire_bytes_sent = 0;
  uint64_t wire_bytes_received = 0;
  size_t probe_round_trips = 0;
  size_t probe_batches_sent = 0;
  /// Remote workers only: workers whose slices were re-shipped to a
  /// survivor after their session died mid-join, and the ProbeBatch
  /// frames replayed to finish their queues.
  size_t worker_recoveries = 0;
  size_t replayed_batches = 0;
};

/// R-S join: returns all (r, s) with B(r, s) >= threshold found by probing
/// an index over \p right with every vector of \p left. `left` ids populate
/// JoinPair::left, `right` ids JoinPair::right. Being an LSF method the
/// join is probabilistic: each qualifying pair is reported with the
/// index's success probability (boost via index.repetition_boost).
Result<std::vector<JoinPair>> SimilarityJoin(const Dataset& left,
                                             const Dataset& right,
                                             const ProductDistribution& dist,
                                             const JoinOptions& options,
                                             JoinStats* stats = nullptr);

/// Self join: all pairs (i < j) within \p data with similarity >=
/// threshold (self-matches removed, pairs deduplicated).
Result<std::vector<JoinPair>> SelfSimilarityJoin(
    const Dataset& data, const ProductDistribution& dist,
    const JoinOptions& options, JoinStats* stats = nullptr);

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_SIMILARITY_JOIN_H_
