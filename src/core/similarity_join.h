// Copyright 2026 The skewsearch Authors.
// Similarity join via repeated similarity search (the paper's "Similarity
// joins" paragraph: index S, then probe with every r in R; preprocessing
// O(d |S|^{1+rho}), total join time O(d |R| |S|^rho) when the output is
// small).
//
// The one-shot calls below are thin wrappers over one engine, the
// DistributedJoin of src/distributed/ (LSF-Join's W-machine join, with
// one machine as its W = 1 case): they build W = max(1, workers)
// in-process workers, or map a frozen file's shards, attach remote
// workers if any are given, and run Join or SelfJoin. Every
// configuration emits the same canonical (left, right)-sorted pair list.

#ifndef SKEWSEARCH_CORE_SIMILARITY_JOIN_H_
#define SKEWSEARCH_CORE_SIMILARITY_JOIN_H_

#include <string>
#include <vector>

#include "data/dataset.h"
#include "data/distribution.h"
#include "distributed/distributed_join.h"
#include "sim/brute_force.h"
#include "util/result.h"

namespace skewsearch {

/// \brief One-shot join configuration: the engine's options plus where
/// the build side and its workers come from.
///
/// `workers` defaults to 0 here: the join runs W = max(1, workers)
/// in-process workers, so the default is one worker, serial. `threads`
/// sizes the build and the fan-out pool as in DistributedJoin, which
/// rejects a nonzero `index.build_threads`; to probe in parallel
/// in-process, ask for W > 1 and `threads` > 1. Remote workers
/// (`remote_workers`) serve side by side at any `threads`. The output
/// is identical for every W.
struct JoinOptions : DistributedJoinOptions {
  JoinOptions() { workers = 0; }

  /// When non-empty, the workers are remote `join-worker` processes at
  /// these "host:port" endpoints, one per worker, reached over the TCP
  /// transport (distributed/transport/tcp_transport.h). The endpoint
  /// count sets W; `workers` must be 0 or match it.
  std::vector<std::string> remote_workers;

  /// When non-empty, the path of an SKF2 frozen-shard file
  /// (core/frozen_shard.h) written by Freeze() over the build side: the
  /// join maps it zero-copy and serves one worker per stored shard
  /// (DistributedJoin::BuildFromFrozen). The file's parameter block and
  /// shard count override `index`, `workers` and `heavy_threshold`. With
  /// `remote_workers` (one endpoint per stored shard) the workers must
  /// have pre-mapped the same file via `join-worker --shard-file`.
  std::string frozen_shards;
};

/// R-S join: returns all (r, s) with B(r, s) >= threshold found by probing
/// an index over \p right with every vector of \p left. `left` ids populate
/// JoinPair::left, `right` ids JoinPair::right. Being an LSF method the
/// join is probabilistic: each qualifying pair is reported with the
/// index's success probability (boost via index.repetition_boost). The
/// probes are routed and served in chunks (DistributedJoin::Join), so
/// the routed keys the join holds do not grow with |left|.
Result<std::vector<JoinPair>> SimilarityJoin(const Dataset& left,
                                             const Dataset& right,
                                             const ProductDistribution& dist,
                                             const JoinOptions& options,
                                             DistributedJoinStats* stats =
                                                 nullptr);

/// Self join: all pairs (i < j) within \p data with similarity >=
/// threshold (self-matches removed, pairs deduplicated).
Result<std::vector<JoinPair>> SelfSimilarityJoin(
    const Dataset& data, const ProductDistribution& dist,
    const JoinOptions& options, DistributedJoinStats* stats = nullptr);

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_SIMILARITY_JOIN_H_
