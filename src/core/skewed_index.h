// Copyright 2026 The skewsearch Authors.
// The paper's primary contribution: the skew-adaptive path-filter family.
//
// A recursive, data-dependent locality-sensitive-filtering structure over
// sparse boolean vectors drawn from a known product distribution
// D[p_1..p_d]. Two modes:
//
//   kAdversarial (Theorem 2): guarantees for *any* query q that has a
//     dataset vector with Braun-Blanquet similarity >= b1; query cost
//     adapts to the query's own frequency profile (exponent rho(q)).
//
//   kCorrelated (Theorem 1): tuned for queries that are alpha-correlated
//     with some dataset vector (Definition 3); thresholds are weighted by
//     the conditional probabilities p_hat_i = p_i(1-alpha) + alpha.
//
// One family holds L independent repetitions (fresh hash functions per
// repetition) to boost the per-repetition success probability of
// Lemma 5 (>= 1/ln n) to a constant; queries probe all repetitions.
// The static index over it is core/sharded_index.h (one shard is the
// unsharded case) and the online one is core/dynamic_index.h.

#ifndef SKEWSEARCH_CORE_SKEWED_INDEX_H_
#define SKEWSEARCH_CORE_SKEWED_INDEX_H_

#include <memory>
#include <span>
#include <vector>

#include "core/path_engine.h"
#include "core/path_policy.h"
#include "data/distribution.h"
#include "hashing/path_hasher.h"
#include "sim/measures.h"
#include "util/result.h"
#include "util/status.h"

namespace skewsearch {

/// Which of the paper's two analyses the index instantiates.
enum class IndexMode {
  kAdversarial,  ///< Section 5: s(x,j,i) = 1/(b1|x| - j)
  kCorrelated,   ///< Section 6: s(x,j,i) = (1+delta)/(p_hat_i C ln n - j)
};

/// \brief Build- and query-time configuration.
struct SkewedIndexOptions {
  IndexMode mode = IndexMode::kCorrelated;

  /// Braun-Blanquet similarity threshold (kAdversarial).
  double b1 = 0.5;

  /// Target correlation (kCorrelated).
  double alpha = 0.5;

  /// Number of independent repetitions; 0 derives
  /// ceil(repetition_boost * ln n) (Lemma 5 gives 1/ln n per repetition).
  int repetitions = 0;
  double repetition_boost = 2.0;

  /// Master seed; the whole structure is deterministic given it.
  uint64_t seed = 0x5eed5eed5eedULL;

  /// Sampling boost delta for kCorrelated. Negative derives the default:
  /// the paper's 3/sqrt(alpha C) when strict_paper_delta, otherwise
  /// min(3/sqrt(alpha C), 0.3) — the paper itself notes "a smaller
  /// constant is likely sufficient in practice" and the strict value
  /// inflates |F(x)| by n^{ln(1+delta)} for moderate C.
  double delta = -1.0;
  bool strict_paper_delta = false;

  /// Similarity a candidate must reach to be returned. Negative derives
  /// b1 (kAdversarial) or alpha/1.3 (kCorrelated, Lemma 10).
  double verify_threshold = -1.0;

  /// Safety valve passed to the path engine (per element per repetition).
  size_t max_paths_per_element = size_t{1} << 20;

  /// Hard cap on path length.
  int max_depth = 64;

  /// Level-hash engine (mixer by default; pairwise for the paper's exact
  /// independence assumption).
  HashEngine hash_engine = HashEngine::kMixer;

  /// Measure used to verify candidates. The paper's guarantees are stated
  /// for Braun-Blanquet (the default); the candidate-generation machinery
  /// is measure-agnostic, so other measures can be verified too ("results
  /// extend to other similarity measures", §1).
  Measure verify_measure = Measure::kBraunBlanquet;

  /// Build parallelism: number of worker threads; 0 = single-threaded.
  /// Filter keys are deterministic functions of the seed, so the built
  /// index is identical regardless of thread count.
  int build_threads = 0;
};

/// \brief Counters from Build().
struct IndexBuildStats {
  size_t total_filters = 0;        ///< sum over elements and repetitions
  size_t distinct_keys = 0;        ///< distinct filter keys in the table
  double avg_filters_per_element = 0.0;  ///< per repetition
  size_t cap_hits = 0;             ///< elements truncated by the safety valve
  size_t nodes_expanded = 0;
  int repetitions = 0;
  double delta_used = 0.0;         ///< kCorrelated only
  double build_seconds = 0.0;
};

/// \brief The L-repetition path-filter family shared by the static
/// (ShardedIndex) and online (DynamicIndex) indexes.
///
/// Bundles parameter derivation (repetitions, delta, verify threshold,
/// depth bound) with the per-repetition filter computation F_r(x), i.e.
/// everything about the paper's structure that does *not* depend on which
/// vectors are stored. Because filter keys are a deterministic function of
/// (seed, repetition, x) alone, a family built once can generate postings
/// incrementally — for a shard's subset of the data, or for a vector
/// inserted long after the build — and they are guaranteed to match what a
/// monolithic build would have produced.
///
/// Immutable and thread-safe after creation. The distribution is borrowed
/// and must outlive the family.
class FilterFamily {
 public:
  FilterFamily() = default;
  FilterFamily(FilterFamily&&) = default;
  FilterFamily& operator=(FilterFamily&&) = default;

  /// Validates \p options and derives every parameter for a dataset of
  /// \p n vectors drawn from \p dist.
  static Result<FilterFamily> Create(const ProductDistribution* dist,
                                     const SkewedIndexOptions& options,
                                     size_t n);

  /// Rebuilds a family from persisted parameters (the load paths):
  /// validation and engine construction as in Create, but repetitions /
  /// delta / verify threshold are taken as stored instead of re-derived.
  static Result<FilterFamily> Restore(const ProductDistribution* dist,
                                      const SkewedIndexOptions& options,
                                      size_t n, int repetitions, double delta,
                                      double verify_threshold);

  /// Appends the filter keys F_r(\p x) of repetition \p rep to \p keys.
  /// \p stats may be null. Safe to call concurrently.
  ///
  /// An item of \p x at or above the distribution's dimension() occurs in
  /// no indexed vector, so no filter through it could collide: it is
  /// never put on a path and makes no draw, but it still counts toward
  /// |x| (which the kAdversarial threshold reads). Such items are
  /// therefore safe in queries and join probes.
  void ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                      std::vector<uint64_t>* keys,
                      PathGenStats* stats = nullptr) const;

  /// Prepares \p x once for the ComputeFilters below, which grows any of
  /// its repetitions, in any order, without redoing the per-item set-up
  /// (the early-stop query's loop).
  void Prepare(std::span<const ItemId> x, PreparedVector* prepared) const {
    engine_->Prepare(x, prepared);
  }

  /// Appends F_r(x) of repetition \p rep to \p keys, where x is the
  /// vector \p prepared was last prepared with by this family: the same
  /// keys and counters as ComputeFilters(x, rep, ...).
  void ComputeFilters(PreparedVector* prepared, uint32_t rep,
                      std::vector<uint64_t>* keys,
                      PathGenStats* stats = nullptr) const {
    engine_->ComputeFilters(prepared, rep, keys, stats);
  }

  /// Computes F_r(\p x) for ALL repetitions in one call: the same kernel
  /// as ComputeFilters, run over the repetition range, so per-level
  /// thresholds are computed once and shared across repetitions (the
  /// fast-similarity-sketching idea). \p keys holds repetition 0's keys,
  /// then repetition 1's, ...; \p offsets gets repetitions() + 1 group
  /// boundaries. Each group equals, key for key, what ComputeFilters(x,
  /// rep) appends. \p stats sums counters over repetitions;
  /// \p capped_reps (may be null) counts truncated repetitions. Items
  /// outside the universe are handled as in ComputeFilters. Safe to call
  /// concurrently.
  void ComputeAllFilters(std::span<const ItemId> x,
                         std::vector<uint64_t>* keys,
                         std::vector<size_t>* offsets,
                         PathGenStats* stats = nullptr,
                         size_t* capped_reps = nullptr) const;

  /// Lemma 5 diagnostic: the fraction of repetitions in which F(a) and
  /// F(b) share at least one filter. For a b1-similar (or alpha-
  /// correlated) pair this is the per-repetition success probability the
  /// repetition count is provisioned against (>= 1/ln n per Lemma 5).
  /// Returns 0 for an invalid family.
  double EstimateCollisionRate(std::span<const ItemId> a,
                               std::span<const ItemId> b) const;

  /// Analytic per-query cost exponent (Lemma 8): solves
  /// sum_{i in q} p_i^rho = b1 |q| for this family's b1. Only meaningful
  /// in kAdversarial mode; kCorrelated returns the global Theorem 1 rho.
  Result<double> PredictQueryExponent(std::span<const ItemId> query) const;

  /// True once Create()/Restore() succeeded.
  bool valid() const { return engine_ != nullptr; }

  int repetitions() const { return repetitions_; }
  double delta() const { return delta_; }
  double verify_threshold() const { return verify_threshold_; }
  const SkewedIndexOptions& options() const { return options_; }

 private:
  Status Init(const ProductDistribution* dist, size_t n);

  SkewedIndexOptions options_;
  int repetitions_ = 0;
  double delta_ = 0.0;
  double verify_threshold_ = 0.0;
  const ProductDistribution* dist_ = nullptr;
  std::unique_ptr<ThresholdPolicy> policy_;
  std::unique_ptr<PathHasher> hasher_;
  std::unique_ptr<PathEngine> engine_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_SKEWED_INDEX_H_
