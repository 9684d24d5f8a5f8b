// Copyright 2026 The skewsearch Authors.
// Prefix filtering (Chaudhuri et al. '06 / Bayardo et al. '07) — the exact,
// deterministic heuristic the paper identifies as the practical
// state-of-the-art for *highly* skewed data, and which it matches in the
// extreme-skew limit while beating it in between.
//
// Tokens are globally ordered by ascending document frequency (rarest
// first). If |x n q| >= o, then the prefixes of x and q of lengths
// |x| - o + 1 and |q| - o + 1 must share a token; indexing the prefixes
// under the Braun-Blanquet bound o >= ceil(b1 * max(|x|, |q|)) and probing
// with the query's prefix gives an exact (no-false-negative) candidate
// set, which is verified explicitly. A size filter
// (b1 |q| <= |x| <= |q| / b1) prunes candidates that cannot qualify.

#ifndef SKEWSEARCH_BASELINES_PREFIX_FILTER_H_
#define SKEWSEARCH_BASELINES_PREFIX_FILTER_H_

#include <optional>
#include <span>
#include <vector>

#include "core/query_stats.h"
#include "data/dataset.h"
#include "sim/brute_force.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Options for the prefix-filter baseline.
struct PrefixFilterOptions {
  /// Braun-Blanquet threshold the structure answers exactly.
  double b1 = 0.5;
};

/// \brief Exact prefix-filter search index.
class PrefixFilterIndex {
 public:
  PrefixFilterIndex() = default;

  /// Computes global token frequencies, re-orders every vector by
  /// (frequency, id), and indexes each vector's prefix.
  Status Build(const Dataset* data, const PrefixFilterOptions& options);

  /// Exact: returns a vector with B >= b1 iff one exists (modulo nothing —
  /// this baseline is deterministic).
  std::optional<Match> Query(std::span<const ItemId> query,
                             QueryStats* stats = nullptr) const;

  /// All vectors with B >= b1, sorted by descending similarity.
  std::vector<Match> QueryAll(std::span<const ItemId> query,
                              QueryStats* stats = nullptr) const;

  /// Exact self-join (AllPairs-style): every unordered pair (i < j) of
  /// indexed vectors with B >= b1, sorted by (left, right). Probes the
  /// index with each vector, so total work is the sum of per-query costs.
  std::vector<JoinPair> SelfJoin(QueryStats* stats = nullptr) const;

  /// The global rank (0 = rarest) used for ordering (exposed for tests).
  size_t TokenRank(ItemId item) const;

  size_t MemoryBytes() const;

 private:
  /// Query items re-ordered by global rank.
  std::vector<ItemId> RankSorted(std::span<const ItemId> ids) const;

  const Dataset* data_ = nullptr;
  PrefixFilterOptions options_;
  std::vector<uint32_t> rank_;          // item id -> frequency rank
  std::vector<ItemId> rank_to_item_;    // inverse permutation
  // Inverted lists over prefix tokens, keyed by rank.
  std::vector<uint32_t> posting_offsets_;
  std::vector<VectorId> postings_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_BASELINES_PREFIX_FILTER_H_
