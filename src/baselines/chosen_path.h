// Copyright 2026 The skewsearch Authors.
// Classic Chosen Path (Christiani & Pagh, STOC 2017) — the worst-case
// optimal Braun-Blanquet similarity search the paper builds on and
// compares against (Figure 1's blue curve).
//
// Differences from the paper's skew-adaptive index:
//   * fixed path depth k = ceil(ln n / ln(1/b2)) instead of the
//     probability stop rule,
//   * a flat threshold s(x) = 1/(b1 |x|) independent of the item and of
//     the distribution,
//   * sampling with replacement.
// Consequently its exponent rho_CP = log(b1)/log(b2) cannot exploit skew.

#ifndef SKEWSEARCH_BASELINES_CHOSEN_PATH_H_
#define SKEWSEARCH_BASELINES_CHOSEN_PATH_H_

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/inverted_index.h"
#include "core/path_engine.h"
#include "core/path_policy.h"
#include "core/query_stats.h"
#include "core/skewed_index.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "hashing/path_hasher.h"
#include "sim/brute_force.h"
#include "util/status.h"

namespace skewsearch {

class ThreadPool;  // util/thread_pool.h

/// \brief Options for the Chosen Path baseline.
struct ChosenPathOptions {
  /// Similarity of the sought ("close") vectors.
  double b1 = 0.5;
  /// Similarity of "far" vectors; sets the depth k = ceil(ln n / ln(1/b2)).
  double b2 = 0.25;
  /// Repetitions; 0 derives ceil(repetition_boost * ln n).
  int repetitions = 0;
  double repetition_boost = 2.0;
  uint64_t seed = 0xc405e9a7ULL;
  /// Similarity a candidate must reach to be returned; negative uses b1.
  double verify_threshold = -1.0;
  size_t max_paths_per_element = size_t{1} << 20;
  HashEngine hash_engine = HashEngine::kMixer;
};

/// \brief Fixed-depth chosen-path index (skew-oblivious baseline).
class ChosenPathIndex {
 public:
  ChosenPathIndex() = default;

  /// Builds the index. The distribution is only used for bookkeeping
  /// (the classic scheme never looks at p_i).
  Status Build(const Dataset* data, const ProductDistribution* dist,
               const ChosenPathOptions& options);

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
  std::vector<std::optional<Match>> BatchQuery(
      const Dataset& queries, ThreadPool* pool = nullptr,
      std::vector<QueryStats>* stats = nullptr,
      BatchQueryStats* batch_stats = nullptr) const;

  bool built() const { return engine_ != nullptr; }
  const IndexBuildStats& build_stats() const { return build_stats_; }
  int depth() const { return depth_; }
  double verify_threshold() const { return verify_threshold_; }
  size_t MemoryBytes() const { return table_.MemoryBytes(); }

 private:
  /// Per-thread reusable query workspace (defined in chosen_path.cc).
  struct QueryScratch;
  std::optional<Match> QueryImpl(std::span<const ItemId> query,
                                 QueryStats* stats,
                                 QueryScratch* scratch) const;

  const Dataset* data_ = nullptr;
  ChosenPathOptions options_;
  int depth_ = 0;
  double verify_threshold_ = 0.0;
  std::unique_ptr<ClassicChosenPathPolicy> policy_;
  std::unique_ptr<PathHasher> hasher_;
  std::unique_ptr<PathEngine> engine_;
  FilterTable table_;
  IndexBuildStats build_stats_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_BASELINES_CHOSEN_PATH_H_
