// Copyright 2026 The skewsearch Authors.
// The Section 1 motivating example, as a working component: split the
// universe into frequent and rare items, index both projections, and
// answer a search for overlap >= b1 |q| by searching for overlap
// >= ell |q| among frequent items OR >= (b1 - ell) |q| among rare items.
// For every ell one of the two must hold, so recall is preserved; choosing
// ell to balance the two sub-search exponents gives the speedup whenever
// the frequent and rare expected intersections differ (i.e. under skew).

#ifndef SKEWSEARCH_CORE_SPLIT_SEARCH_H_
#define SKEWSEARCH_CORE_SPLIT_SEARCH_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/sharded_index.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "sim/brute_force.h"
#include "util/result.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Configuration for the split searcher.
struct SplitSearchOptions {
  /// Overall Braun-Blanquet similarity the search targets.
  double b1 = 0.5;
  /// Budget given to the frequent half; negative auto-balances the two
  /// sub-exponents on a grid (see SplitPlan).
  double ell = -1.0;
  /// Items with p_i >= frequency_split are "frequent"; negative uses the
  /// geometric mean of the distribution's min and max probability.
  double frequency_split = -1.0;
  /// Options forwarded to both sub-indexes (mode is forced to
  /// kAdversarial; b1 is overridden per sub-index).
  SkewedIndexOptions index;
};

/// \brief The analytic plan behind a split (exposed for the bench).
struct SplitPlan {
  double ell = 0.0;            ///< chosen budget for the frequent half
  double rho_frequent = 1.0;   ///< sub-exponent of the frequent search
  double rho_rare = 1.0;       ///< sub-exponent of the rare search
  double rho_unsplit = 1.0;    ///< exponent of the single unsplit search
  double split_probability = 0.0;  ///< frequency threshold used
  size_t frequent_items = 0;
  size_t rare_items = 0;
};

/// \brief Two-sided frequent/rare searcher.
class SplitSearcher {
 public:
  SplitSearcher() = default;

  /// Partitions the universe, projects the dataset, and builds the two
  /// sub-indexes.
  Status Build(const Dataset* data, const ProductDistribution* dist,
               const SplitSearchOptions& options);

  /// Returns a vector whose *full* similarity with \p query reaches
  /// b1 (verification always uses the unprojected vectors).
  std::optional<Match> Query(std::span<const ItemId> query,
                             QueryStats* stats = nullptr) const;

  /// The analytic plan chosen at build time.
  const SplitPlan& plan() const { return plan_; }

  /// Computes the plan for a distribution without building (used by the
  /// motivating-example bench to sweep parameters cheaply).
  static Result<SplitPlan> Analyze(const ProductDistribution& dist, size_t n,
                                   double b1, double frequency_split = -1.0,
                                   double ell = -1.0);

 private:
  const Dataset* data_ = nullptr;
  SplitSearchOptions options_;
  SplitPlan plan_;
  std::vector<bool> is_frequent_;  // by item id
  Dataset frequent_data_;
  Dataset rare_data_;
  ProductDistribution frequent_dist_;
  ProductDistribution rare_dist_;
  std::unique_ptr<ShardedIndex> frequent_index_;
  std::unique_ptr<ShardedIndex> rare_index_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_SPLIT_SEARCH_H_
