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
// One kernel serves every entry point: it grows the trees of a range of
// repetitions (one repetition for ComputeFilters, all of them for
// ComputeFiltersAllReps). What depends on x alone is prepared once per
// vector (Prepare, a PreparedVector): each in-universe item's hash
// halves and ln(1/p), and the thresholds of each level, grown on first
// use and shared by every repetition grown from the same state. The
// level's salt is read at the start of each level and the path half of
// the draw once per node. An item at or above dist.dimension() occurs in
// no vector the distribution describes, so no path through it can
// collide; it is never put on a path (no draw is made or counted for it)
// but still counts toward |x|.
//
// Under a vector kernel (PathKernel, picked at run time) a node's items
// are processed in two passes. The accept pass hashes every item against
// the level's bounds into an accept bitmask at SIMD width. The walk then
// visits the accepted items in ascending order, skips those already on
// the path (sampling without replacement: a Bloom mask of the path's
// items, then the ancestor chain), makes the children and stops at the
// cap. Under the scalar kernel, for every kPairwise node and for a node of
// fewer than nine items, the node is grown in one pass instead, each item
// hashed and walked in turn: without vector lanes, or for so few items, a
// second pass costs more than it saves. A node knows how many of x's
// items are on its path, so `draws` (every item up to the stop but those
// on the path) needs no per-item check. Keys, their order and every
// counter equal a one-item-at-a-time loop's; tests/core_path_engine_test.cc
// keeps a plain per-draw recursion as the reference every kernel must
// match.

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

/// The filter kernels, weakest first. Every kernel makes the same keys
/// and counters on every input. kPairwise draws, and nodes of fewer than
/// nine items, are hashed in the walk itself whatever the kernel.
enum class PathKernel {
  kScalar,  ///< no accept pass: each item hashed and walked in turn
  kAvx2,    ///< 4 items at a time; 64-bit products from 32-bit halves
  kAvx512,  ///< 8 items at a time; requires AVX-512DQ (vpmullq)
};

/// Human-readable kernel name ("scalar", "avx2", "avx512").
const char* PathKernelName(PathKernel kernel);

/// The best kernel the running CPU supports (what the engine uses unless
/// overridden).
PathKernel DetectPathKernel();

/// The kernel the engine currently runs.
PathKernel ActivePathKernel();

/// Overrides the kernel (kernel comparisons in tests and benches).
/// Requesting an unsupported kernel clamps to the best supported one and
/// returns the kernel actually installed. Not thread-safe: call before
/// spawning threads that compute filters.
PathKernel SetPathKernel(PathKernel kernel);

class PathEngine;

/// \brief One vector prepared for the kernel: what every repetition of
/// it shares.
///
/// PathEngine::Prepare fills it; PathEngine::ComputeFilters grows any
/// repetition from it, in any order, and grows the per-level thresholds
/// as deeper levels are first reached. Preparing another vector reuses
/// the buffers and keeps nothing of the last one. Owns a copy of what it
/// needs of x, so x may go away after Prepare. Not safe for concurrent
/// use: give each thread its own.
class PreparedVector {
 private:
  friend class PathEngine;

  // One node of a repetition's recursion tree, stored in a flat arena.
  // Parent links let the without-replacement check walk the (short)
  // ancestor chain instead of storing an item set per node; the Bloom
  // mask of the path's items lets it skip the walk for every item whose
  // bit is clear.
  struct Node {
    uint64_t key;
    double log_inv_prod;  // sum of ln(1/p_i) along the path
    uint64_t mask;        // OR of the bits of the items on the path
    int32_t parent;       // index into the arena, -1 for the root
    ItemId item;          // item appended to create this node (root: unused)
    uint32_t on_path;     // x's in-universe items on the path, repeats too
  };

  // What the walk reads of an item the accept pass accepted.
  struct WalkItem {
    MixPairRight key;  // the item half of ExtendKey
    double log_inv_p;  // ln(1/p_i)
    uint64_t bit;      // the item's bit in a path's Bloom mask
    ItemId id;
    uint32_t copies;  // how many of x's in-universe items are this one
  };

  const PathEngine* engine_ = nullptr;  // the engine that prepared it
  size_t vec_size_ = 0;                 // |x|, items outside included
  size_t stride_ = 0;  // in-universe items, rounded up to the lane count
  // The accept pass's columns, stride_ entries each: the item halves of
  // the draw, rotated then word. Padding lanes are 0.
  std::vector<uint64_t> columns_;
  std::vector<WalkItem> items_;  // the in-universe items, in x's order
  // Level-major acceptance bounds, stride_ per level; padding lanes hold
  // 0, which accepts nothing. kMixer uses the integer bounds, kPairwise
  // the thresholds.
  std::vector<uint64_t> mixer_bounds_;
  std::vector<double> pairwise_bounds_;
  int levels_ready_ = 0;
  std::vector<uint64_t> accept_;  // one bit per item, 64 items a word
  std::vector<Node> arena_;
};

/// \brief Computes filter sets F(x).
///
/// Stateless between calls; safe for concurrent use from multiple threads
/// (each with its own PreparedVector).
class PathEngine {
 public:
  /// All pointers are borrowed and must outlive the engine.
  PathEngine(const ProductDistribution* dist, const ThresholdPolicy* policy,
             const PathHasher* hasher, const PathEngineOptions& options);

  /// Prepares \p x for ComputeFilters, dropping whatever \p prepared
  /// held.
  void Prepare(std::span<const ItemId> x, PreparedVector* prepared) const;

  /// Appends the filter keys of F(x) for repetition \p rep to \p out,
  /// where x is the vector \p prepared was last prepared with by this
  /// engine. \p stats may be null.
  void ComputeFilters(PreparedVector* prepared, uint32_t rep,
                      std::vector<uint64_t>* out, PathGenStats* stats) const;

  /// Computes F_r(x) for every repetition r in [0, reps). \p keys receives
  /// repetition 0's filter keys, then repetition 1's, ...; \p offsets
  /// receives reps + 1 entries bracketing each repetition's group. Each
  /// group is byte-identical to what ComputeFilters(prepared x, r, ...)
  /// appends: both run the same kernel. \p stats (may be null) receives
  /// counters summed over repetitions with cap_hit = "any repetition
  /// truncated"; \p capped_reps (may be null) receives the number of
  /// truncated repetitions.
  void ComputeFiltersAllReps(std::span<const ItemId> x, uint32_t reps,
                             std::vector<uint64_t>* keys,
                             std::vector<size_t>* offsets,
                             PathGenStats* stats,
                             size_t* capped_reps = nullptr) const;

  const PathEngineOptions& options() const { return options_; }

 private:
  // The one filter kernel. Grows the trees of repetitions
  // [first_rep, end_rep) of \p prepared's vector level by level,
  // appending each repetition's keys to \p out and, when \p offsets is
  // non-null, out->size() after each. Sets \p stats to the counters
  // summed over the range and \p capped_reps to the number of truncated
  // repetitions (either may be null).
  void Grow(PreparedVector* prepared, uint32_t first_rep, uint32_t end_rep,
            std::vector<uint64_t>* out, std::vector<size_t>* offsets,
            PathGenStats* stats, size_t* capped_reps) const;

  // Grow, specialised per hash engine so the walk carries no engine
  // branch.
  template <bool kPairwise>
  void GrowRange(PreparedVector* prepared, uint32_t first_rep,
                 uint32_t end_rep, std::vector<uint64_t>* out,
                 std::vector<size_t>* offsets, PathGenStats* stats,
                 size_t* capped_reps) const;

  const ProductDistribution* dist_;
  const ThresholdPolicy* policy_;
  const PathHasher* hasher_;
  PathEngineOptions options_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_PATH_ENGINE_H_
