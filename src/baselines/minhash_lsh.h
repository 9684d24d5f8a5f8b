// Copyright 2026 The skewsearch Authors.
// MinHash LSH (Broder '97 + banding) — the classic randomized baseline for
// Jaccard similarity search, which Chosen Path (and hence the paper's
// structure) strictly improves on for sparse vectors.
//
// Signatures use one hash-permutation per row; bands of `rows` rows are
// concatenated into bucket keys. A pair with Jaccard similarity j collides
// in one band with probability j^rows.

#ifndef SKEWSEARCH_BASELINES_MINHASH_LSH_H_
#define SKEWSEARCH_BASELINES_MINHASH_LSH_H_

#include <optional>
#include <span>
#include <vector>

#include "core/inverted_index.h"
#include "core/query_stats.h"
#include "core/skewed_index.h"
#include "data/dataset.h"
#include "sim/brute_force.h"
#include "sim/measures.h"
#include "util/status.h"

namespace skewsearch {

class ThreadPool;  // util/thread_pool.h

/// \brief Options for the MinHash LSH baseline.
struct MinHashOptions {
  /// Jaccard similarity of sought pairs (used to auto-derive bands/rows and
  /// as the default verification threshold).
  double j1 = 0.5;
  /// Jaccard similarity of far pairs (auto-derivation: rows so that far
  /// pairs collide with probability ~1/n).
  double j2 = 0.25;
  /// Explicit geometry; 0 = derive from (j1, j2, n).
  int bands = 0;
  int rows = 0;
  uint64_t seed = 0x315a6bcdULL;
  /// Verification measure/threshold; negative threshold uses j1.
  Measure verify_measure = Measure::kJaccard;
  double verify_threshold = -1.0;
};

/// \brief Banded MinHash index.
class MinHashLsh {
 public:
  MinHashLsh() = default;

  /// Computes signatures for all vectors and fills the band buckets.
  Status Build(const Dataset* data, const MinHashOptions& options);

  /// First match with similarity >= verify threshold, or nullopt.
  std::optional<Match> Query(std::span<const ItemId> query,
                             QueryStats* stats = nullptr) const;

  /// All distinct candidates with similarity >= \p threshold.
  std::vector<Match> QueryAll(std::span<const ItemId> query, double threshold,
                              QueryStats* stats = nullptr) const;

  /// Answers every vector of \p queries as a Query() on \p pool, which
  /// the caller owns and may reuse for every batch (null = serial on the
  /// calling thread); results are identical to serial execution for
  /// every pool size.
  /// (batch_stats->path_gen stays zero: MinHash has no path stage.)
  std::vector<std::optional<Match>> BatchQuery(
      const Dataset& queries, ThreadPool* pool = nullptr,
      std::vector<QueryStats>* stats = nullptr,
      BatchQueryStats* batch_stats = nullptr) const;

  int bands() const { return bands_; }
  int rows() const { return rows_; }
  double verify_threshold() const { return verify_threshold_; }
  size_t MemoryBytes() const { return table_.MemoryBytes(); }

 private:
  /// Per-thread reusable query workspace (defined in minhash_lsh.cc).
  struct QueryScratch;
  std::optional<Match> QueryImpl(std::span<const ItemId> query,
                                 QueryStats* stats,
                                 QueryScratch* scratch) const;

  /// MinHash value of one row over a set of items.
  uint64_t RowMin(int row, std::span<const ItemId> ids) const;
  /// Bucket key of one band.
  uint64_t BandKey(int band, std::span<const ItemId> ids) const;

  const Dataset* data_ = nullptr;
  MinHashOptions options_;
  int bands_ = 0;
  int rows_ = 0;
  double verify_threshold_ = 0.0;
  std::vector<uint64_t> row_seeds_;
  FilterTable table_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_BASELINES_MINHASH_LSH_H_
