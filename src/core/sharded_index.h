// Copyright 2026 The skewsearch Authors.
// ShardedIndex: the paper's static index, its posting lists
// hash-partitioned across K >= 1 shards. K = 1 is the unsharded index.
//
// The L-repetition filter family is a deterministic function of
// (seed, repetition, vector) alone — it never looks at which vectors are
// stored. Every shard count therefore runs the *same* family and only
// splits the posting lists: shard s holds the (filter key, id) pairs of
// the vectors with ShardOf(id) == s. A query computes its filter keys
// once per repetition, looks them up in every shard in turn, and merges
// by the scan coordinate (repetition, key position, id) — which makes
// the result *byte-identical* to the one-shard index for every shard
// count. Per-query work counters differ (shards other than the winning
// one scan to the end of the repetition), but results never do.
// The query driver doing this lives in core/query_driver.h and also
// serves the online DynamicIndex.
//
// This is the skew-aware analogue of LSF-Join's partitioning insight:
// the repetition structure is naturally shard-friendly because each
// repetition is a standalone filter family.

#ifndef SKEWSEARCH_CORE_SHARDED_INDEX_H_
#define SKEWSEARCH_CORE_SHARDED_INDEX_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/inverted_index.h"
#include "core/query_stats.h"
#include "core/skewed_index.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "sim/brute_force.h"
#include "util/status.h"

namespace skewsearch {

class ThreadPool;       // util/thread_pool.h
class FrozenShardFile;  // core/frozen_shard.h
struct FrozenMapOptions;
namespace query_internal {
struct Scratch;  // core/query_driver.h
}  // namespace query_internal

/// \brief Configuration of a sharded build.
struct ShardedIndexOptions {
  /// Per-shard index configuration; the seed is shared by all shards (it
  /// must be, for the family to match a monolithic build).
  SkewedIndexOptions index;

  /// Number of hash partitions K (>= 1).
  int num_shards = 4;
};

/// \brief The paper's index, split into K hash partitions.
///
/// The dataset and distribution are borrowed and must outlive the index.
/// Queries are const and safe to issue from multiple threads.
class ShardedIndex {
 public:
  ShardedIndex() = default;

  /// Stable hash partition of vector ids (same for every build with the
  /// same K, so frozen files and the dynamic layer agree on placement).
  static int ShardOf(VectorId id, int num_shards);

  /// Builds the K per-shard posting tables over \p data. Build
  /// parallelism (options.index.build_threads) never changes the tables.
  Status Build(const Dataset* data, const ProductDistribution* dist,
               const ShardedIndexOptions& options);

  /// Returns some vector with similarity >= verify_threshold(): the
  /// first hit in scan order (repetition, key position, id), stopping
  /// at the first repetition that has one (the paper's query
  /// semantics), or nullopt. Scans shards serially on the calling
  /// thread. Records the query.* metrics (docs/OBSERVABILITY.md).
  std::optional<Match> Query(std::span<const ItemId> query,
                             QueryStats* stats = nullptr) const;

  /// All distinct candidates with similarity >= \p threshold, sorted by
  /// descending similarity (ties by id); exhausts every filter, so a
  /// threshold of 0 ranks every candidate the filters surface.
  std::vector<Match> QueryAll(std::span<const ItemId> query, double threshold,
                              QueryStats* stats = nullptr) const;

  /// Answers every vector of \p queries as a Query(), parallelized over
  /// the batch on \p pool. The caller owns the pool and may reuse it for
  /// every batch; null runs serially on the calling thread. Each query
  /// scans its shards serially, so the pool size never changes results.
  std::vector<std::optional<Match>> BatchQuery(
      const Dataset& queries, ThreadPool* pool = nullptr,
      std::vector<QueryStats>* stats = nullptr,
      BatchQueryStats* batch_stats = nullptr) const;

  /// Persists the built index (parameters + K posting tables + dataset
  /// fingerprint) as a K-shard SKF2 frozen file (core/frozen_shard.h).
  /// Only valid after Build()/MapFrozen().
  Status Freeze(const std::string& path) const;

  /// Restores an index from a file written by Freeze(), serving every
  /// shard table zero-copy out of the mapped bytes (or out of a heap
  /// copy with FrozenMapOptions::force_heap): start time is O(1) in the
  /// index size and queries are byte-identical to the index that was
  /// frozen. The caller re-supplies the same dataset and distribution
  /// (fingerprint-checked); the shard count comes from the file. When
  /// the map options request payload verification, shard placement is
  /// re-validated too (O(index)); the default trusts the checksummed
  /// metadata.
  Status MapFrozen(const std::string& path, const Dataset* data,
                   const ProductDistribution* dist);
  Status MapFrozen(const std::string& path, const Dataset* data,
                   const ProductDistribution* dist,
                   const FrozenMapOptions& options);

  /// The mapped frozen file backing this index, or null when heap-built.
  const FrozenShardFile* frozen_file() const { return frozen_.get(); }

  /// True after a successful Build()/MapFrozen().
  bool built() const { return family_.valid(); }

  /// Number of filter repetitions actually used.
  int repetitions() const { return family_.repetitions(); }

  /// The similarity a returned match is guaranteed to have.
  double verify_threshold() const { return family_.verify_threshold(); }

  /// The filter family driving the index.
  const FilterFamily& family() const { return family_; }

  /// Aggregate build counters. distinct_keys counts distinct (shard,
  /// key) pairs — a key shared by two shards counts twice.
  const IndexBuildStats& build_stats() const { return build_stats_; }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardedIndexOptions& options() const { return options_; }

  /// Posting entries stored in shard \p s (balance diagnostics).
  size_t shard_entries(int s) const {
    return shards_[static_cast<size_t>(s)].num_pairs();
  }

  /// The frozen posting table of shard \p s (used by the dynamic layer
  /// and tests).
  const FilterTable& shard_table(int s) const {
    return shards_[static_cast<size_t>(s)];
  }

  /// Approximate heap usage of all shard tables.
  size_t MemoryBytes() const;

 private:
  std::optional<Match> QueryImpl(std::span<const ItemId> query,
                                 QueryStats* stats,
                                 query_internal::Scratch* scratch) const;

  const Dataset* data_ = nullptr;
  const ProductDistribution* dist_ = nullptr;
  ShardedIndexOptions options_;
  FilterFamily family_;
  std::vector<FilterTable> shards_;  // zero-copy views when mapped
  IndexBuildStats build_stats_;
  std::shared_ptr<const FrozenShardFile> frozen_;
};

namespace sharded_internal {

/// Runs \p family over every vector of \p data on the caller's \p pool
/// (non-null; a one-slot pool runs on the calling thread) and builds one
/// posting table per shard (pairs routed by ShardedIndex::ShardOf); the
/// tables do not depend on the pool size. Shared by the static
/// ShardedIndex, the dynamic layer and the join coordinator, so every
/// partition is guaranteed to agree.
/// Accumulates into \p stats (repetitions/delta are left untouched).
/// \p entry_counts (optional) receives each vector's posting-entry count
/// — the dynamic layer uses it to make Remove() O(1) instead of
/// replaying path generation.
Status BuildShardTables(const Dataset& data, const FilterFamily& family,
                        int num_shards, ThreadPool* pool,
                        IndexBuildStats* stats,
                        std::vector<FilterTable>* shards,
                        std::vector<uint32_t>* entry_counts = nullptr);

}  // namespace sharded_internal

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_SHARDED_INDEX_H_
