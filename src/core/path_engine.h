// Copyright 2026 The skewsearch Authors.
// The chosen-path recursion (Section 3): computing the filter set F(x).
//
// F(x) is grown level by level. A path v of length j is extended by every
// item i of x (not already on v, when sampling without replacement) whose
// level draw h_{j+1}(v o i) falls below the policy threshold s(x, j, i).
// A freshly created path becomes a *filter* — a member of F(x) — as soon
// as its stop condition holds:
//
//   kProbability:  prod_{k} p_{i_k} <= 1/n    (the paper's dynamic depth)
//   kFixedDepth:   |v| == fixed_depth         (classic Chosen Path)
//
// The engine is deterministic given the PathHasher, so running it on a
// data vector and on a query produces consistent decisions on shared path
// prefixes — the property Lemma 5's collision argument relies on.
//
// One kernel serves both entry points: it grows the trees of a range of
// repetitions (one repetition for ComputeFilters, all of them for
// ComputeFiltersAllReps). Everything that does not depend on the path is
// computed outside the per-draw loop: each item's hash halves and ln(1/p)
// once per call, the thresholds once per level (shared by every
// repetition of the call), the level's salt at the start of each level,
// and the path half of the draw once per node. An item at or above
// dist.dimension() occurs in no vector the distribution describes, so no
// path through it can collide; it is never put on a path (no draw is made
// or counted for it) but still counts toward |x|.
// tests/core_path_engine_test.cc keeps a plain per-draw recursion as the
// kernel's reference.

#ifndef SKEWSEARCH_CORE_PATH_ENGINE_H_
#define SKEWSEARCH_CORE_PATH_ENGINE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/path_policy.h"
#include "data/distribution.h"
#include "data/sparse_vector.h"
#include "hashing/path_hasher.h"

namespace skewsearch {

/// Stop conditions for path growth.
enum class StopRule {
  kProbability,  ///< stop once prod p_{i_k} <= 1/n (the paper's rule)
  kFixedDepth,   ///< stop at a fixed path length (classic Chosen Path)
};

/// \brief Engine configuration.
struct PathEngineOptions {
  StopRule stop_rule = StopRule::kProbability;
  /// ln(n): the probability stop threshold (sum of ln(1/p) >= log_n).
  double log_n = 0.0;
  /// Path length for kFixedDepth.
  int fixed_depth = 0;
  /// Hard cap on path length regardless of stop rule (safety).
  int max_depth = 64;
  /// Safety valve: stop expanding after this many live+emitted paths per
  /// element per repetition; overruns are reported in PathGenStats.
  size_t max_paths = size_t{1} << 22;
  /// Paper's scheme samples items *without* replacement (i in x \ v);
  /// classic Chosen Path samples with replacement (i in x).
  bool without_replacement = true;
};

/// \brief Per-invocation counters.
struct PathGenStats {
  size_t filters_emitted = 0;  ///< |F(x)| for this repetition
  size_t nodes_expanded = 0;   ///< interior recursion nodes processed
  size_t draws = 0;            ///< hash draws evaluated
  bool cap_hit = false;        ///< true if max_paths truncated the growth
};

/// \brief Computes filter sets F(x).
///
/// Stateless between calls; safe for concurrent use from multiple threads.
class PathEngine {
 public:
  /// All pointers are borrowed and must outlive the engine.
  PathEngine(const ProductDistribution* dist, const ThresholdPolicy* policy,
             const PathHasher* hasher, const PathEngineOptions& options);

  /// Appends the filter keys of F(x) for repetition \p rep to \p out.
  /// \p stats may be null.
  void ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                      std::vector<uint64_t>* out, PathGenStats* stats) const;

  /// Computes F_r(x) for every repetition r in [0, reps). \p keys receives
  /// repetition 0's filter keys, then repetition 1's, ...; \p offsets
  /// receives reps + 1 entries bracketing each repetition's group. Each
  /// group is byte-identical to what ComputeFilters(x, r, ...) appends:
  /// both run the same kernel. \p stats (may be null) receives counters
  /// summed over repetitions with cap_hit = "any repetition truncated";
  /// \p capped_reps (may be null) receives the number of truncated
  /// repetitions.
  void ComputeFiltersAllReps(std::span<const ItemId> x, uint32_t reps,
                             std::vector<uint64_t>* keys,
                             std::vector<size_t>* offsets,
                             PathGenStats* stats,
                             size_t* capped_reps = nullptr) const;

  const PathEngineOptions& options() const { return options_; }

 private:
  // The one filter kernel. Grows the trees of repetitions
  // [first_rep, end_rep) level by level, appending each repetition's keys
  // to \p out and, when \p offsets is non-null, out->size() after each.
  // Sets \p stats to the counters summed over the range and
  // \p capped_reps to the number of truncated repetitions (either may be
  // null).
  void Grow(std::span<const ItemId> x, uint32_t first_rep, uint32_t end_rep,
            std::vector<uint64_t>* out, std::vector<size_t>* offsets,
            PathGenStats* stats, size_t* capped_reps) const;

  const ProductDistribution* dist_;
  const ThresholdPolicy* policy_;
  const PathHasher* hasher_;
  PathEngineOptions options_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_PATH_ENGINE_H_
