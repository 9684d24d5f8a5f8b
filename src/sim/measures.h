// Copyright 2026 The skewsearch Authors.
// Set similarity measures. The paper's data structures use Braun-Blanquet
// similarity B(x, q) = |x n q| / max(|x|, |q|) (following Christiani &
// Pagh); the others are provided because the paper notes results extend to
// them and the examples/baselines use Jaccard.

#ifndef SKEWSEARCH_SIM_MEASURES_H_
#define SKEWSEARCH_SIM_MEASURES_H_

#include <algorithm>
#include <cstddef>
#include <span>

#include "data/sparse_vector.h"

namespace skewsearch {

/// Supported similarity measures.
enum class Measure {
  kBraunBlanquet,  ///< |x n q| / max(|x|, |q|)
  kJaccard,        ///< |x n q| / |x u q|
  kDice,           ///< 2 |x n q| / (|x| + |q|)
  kOverlap,        ///< |x n q| / min(|x|, |q|)
  kCosine,         ///< |x n q| / sqrt(|x| |q|)
};

/// \name Direct measures on sorted id lists.
/// All return 0 when either side is empty.
/// @{
double BraunBlanquet(std::span<const ItemId> a, std::span<const ItemId> b);
double Jaccard(std::span<const ItemId> a, std::span<const ItemId> b);
double Dice(std::span<const ItemId> a, std::span<const ItemId> b);
double Overlap(std::span<const ItemId> a, std::span<const ItemId> b);
double Cosine(std::span<const ItemId> a, std::span<const ItemId> b);
/// @}

/// Computes \p measure on (a, b).
double Similarity(Measure measure, std::span<const ItemId> a,
                  std::span<const ItemId> b);

/// Computes a measure given precomputed |a|, |b| and |a n b| (lets callers
/// reuse one intersection count for several measures).
double SimilarityFromCounts(Measure measure, size_t size_a, size_t size_b,
                            size_t intersection);

/// False when sets of \p size_a and \p size_b items cannot reach
/// \p threshold whatever they hold: the measure at the largest overlap
/// two strictly increasing lists can have, min(size_a, size_b), is below
/// it. Every measure is non-decreasing in the overlap, also in IEEE
/// arithmetic, and this evaluates the same SimilarityFromCounts that
/// Similarity() does, so a pair it rules out fails Similarity() >=
/// \p threshold too: skipping such a pair is exact. For Braun-Blanquet
/// it reads min(size_a, size_b) / max(size_a, size_b) >= threshold.
/// The query driver and the join worker decide through MinOverlap,
/// which the tests check against this.
inline bool SizesCanReach(Measure measure, size_t size_a, size_t size_b,
                          double threshold) {
  return SimilarityFromCounts(measure, size_a, size_b,
                              std::min(size_a, size_b)) >= threshold;
}

/// The smallest overlap |a n b| at which sets of \p size_a and \p size_b
/// items reach \p threshold, or min(size_a, size_b) + 1 when none does,
/// so SizesCanReach is exactly MinOverlap(...) <= min(size_a, size_b).
/// The measure's inverse gives a first guess, and SimilarityFromCounts,
/// the function Similarity() ends in, moves it to the exact answer: every
/// measure is non-decreasing in the overlap, also in IEEE arithmetic, so
/// SimilarityFromCounts(measure, size_a, size_b, c) >= \p threshold
/// exactly when c >= MinOverlap(...), ties included. A verifier that
/// counts with IntersectSizeAtLeast(a, b, MinOverlap(...)) (sim/intersect.h)
/// therefore accepts the pairs Similarity(...) >= \p threshold accepts,
/// and its exact count gives the same similarity bits.
size_t MinOverlap(Measure measure, size_t size_a, size_t size_b,
                  double threshold);

/// Empirical Pearson (phi) correlation of two boolean vectors in a universe
/// of size d: (n11 * n00 - n10 * n01) / sqrt(row/col margins). This is the
/// sample analogue of the paper's alpha parameter.
double EmpiricalPearson(std::span<const ItemId> a, std::span<const ItemId> b,
                        size_t d);

/// Converts a Braun-Blanquet threshold to the Jaccard threshold implied for
/// equal-size sets: j = b / (2 - b). Used when comparing against
/// Jaccard-based baselines (MinHash).
double BraunBlanquetToJaccardEquivalent(double b);

/// Inverse of BraunBlanquetToJaccardEquivalent: b = 2j / (1 + j).
double JaccardToBraunBlanquetEquivalent(double j);

}  // namespace skewsearch

#endif  // SKEWSEARCH_SIM_MEASURES_H_
