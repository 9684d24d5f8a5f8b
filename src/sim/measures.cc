#include "sim/measures.h"

#include <algorithm>
#include <cmath>

#include "sim/intersect.h"

namespace skewsearch {

double SimilarityFromCounts(Measure measure, size_t size_a, size_t size_b,
                            size_t intersection) {
  if (size_a == 0 || size_b == 0) return 0.0;
  double inter = static_cast<double>(intersection);
  double a = static_cast<double>(size_a);
  double b = static_cast<double>(size_b);
  switch (measure) {
    case Measure::kBraunBlanquet:
      return inter / std::max(a, b);
    case Measure::kJaccard:
      return inter / (a + b - inter);
    case Measure::kDice:
      return 2.0 * inter / (a + b);
    case Measure::kOverlap:
      return inter / std::min(a, b);
    case Measure::kCosine:
      return inter / std::sqrt(a * b);
  }
  return 0.0;
}

size_t MinOverlap(Measure measure, size_t size_a, size_t size_b,
                  double threshold) {
  const size_t most = std::min(size_a, size_b);
  const double a = static_cast<double>(size_a);
  const double b = static_cast<double>(size_b);
  // The real overlap at which the measure equals the threshold.
  const double guess = [&] {
    switch (measure) {
      case Measure::kBraunBlanquet:
        return threshold * std::max(a, b);
      case Measure::kJaccard:
        return threshold * (a + b) / (1.0 + threshold);
      case Measure::kDice:
        return threshold * (a + b) / 2.0;
      case Measure::kOverlap:
        return threshold * std::min(a, b);
      case Measure::kCosine:
        return threshold * std::sqrt(a * b);
    }
    return 0.0;
  }();
  size_t overlap = most + 1;
  if (!(guess > 0.0)) {
    overlap = 0;
  } else if (guess <= static_cast<double>(most)) {
    overlap = static_cast<size_t>(std::ceil(guess));
  }
  // Rounding can leave the guess off by one either way; the measure
  // itself decides.
  while (overlap > 0 &&
         SimilarityFromCounts(measure, size_a, size_b, overlap - 1) >=
             threshold) {
    --overlap;
  }
  while (overlap <= most &&
         !(SimilarityFromCounts(measure, size_a, size_b, overlap) >=
           threshold)) {
    ++overlap;
  }
  return overlap;
}

namespace {

double Compute(Measure measure, std::span<const ItemId> a,
               std::span<const ItemId> b) {
  return SimilarityFromCounts(measure, a.size(), b.size(),
                              IntersectSize(a, b));
}

}  // namespace

double BraunBlanquet(std::span<const ItemId> a, std::span<const ItemId> b) {
  return Compute(Measure::kBraunBlanquet, a, b);
}
double Jaccard(std::span<const ItemId> a, std::span<const ItemId> b) {
  return Compute(Measure::kJaccard, a, b);
}
double Dice(std::span<const ItemId> a, std::span<const ItemId> b) {
  return Compute(Measure::kDice, a, b);
}
double Overlap(std::span<const ItemId> a, std::span<const ItemId> b) {
  return Compute(Measure::kOverlap, a, b);
}
double Cosine(std::span<const ItemId> a, std::span<const ItemId> b) {
  return Compute(Measure::kCosine, a, b);
}

double Similarity(Measure measure, std::span<const ItemId> a,
                  std::span<const ItemId> b) {
  return Compute(measure, a, b);
}

double EmpiricalPearson(std::span<const ItemId> a, std::span<const ItemId> b,
                        size_t d) {
  if (d == 0) return 0.0;
  double n11 = static_cast<double>(IntersectSize(a, b));
  double n1x = static_cast<double>(a.size());
  double nx1 = static_cast<double>(b.size());
  double n10 = n1x - n11;
  double n01 = nx1 - n11;
  double n00 = static_cast<double>(d) - n11 - n10 - n01;
  double denom = std::sqrt(n1x * (static_cast<double>(d) - n1x) * nx1 *
                           (static_cast<double>(d) - nx1));
  if (denom <= 0.0) return 0.0;
  return (n11 * n00 - n10 * n01) / denom;
}

double BraunBlanquetToJaccardEquivalent(double b) { return b / (2.0 - b); }

double JaccardToBraunBlanquetEquivalent(double j) {
  return 2.0 * j / (1.0 + j);
}

}  // namespace skewsearch
