#include "sim/measures.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "util/random.h"

namespace skewsearch {
namespace {

const std::vector<ItemId> kA{1, 2, 3, 4};        // |A| = 4
const std::vector<ItemId> kB{3, 4, 5, 6, 7, 8};  // |B| = 6, |A n B| = 2

TEST(MeasuresTest, BraunBlanquet) {
  EXPECT_DOUBLE_EQ(BraunBlanquet(kA, kB), 2.0 / 6.0);
  EXPECT_DOUBLE_EQ(BraunBlanquet(kA, kA), 1.0);
}

TEST(MeasuresTest, Jaccard) {
  EXPECT_DOUBLE_EQ(Jaccard(kA, kB), 2.0 / 8.0);
  EXPECT_DOUBLE_EQ(Jaccard(kA, kA), 1.0);
}

TEST(MeasuresTest, Dice) {
  EXPECT_DOUBLE_EQ(Dice(kA, kB), 4.0 / 10.0);
}

TEST(MeasuresTest, Overlap) {
  EXPECT_DOUBLE_EQ(Overlap(kA, kB), 2.0 / 4.0);
}

TEST(MeasuresTest, Cosine) {
  EXPECT_DOUBLE_EQ(Cosine(kA, kB), 2.0 / std::sqrt(24.0));
}

TEST(MeasuresTest, EmptyYieldsZero) {
  std::vector<ItemId> empty;
  for (Measure m : {Measure::kBraunBlanquet, Measure::kJaccard,
                    Measure::kDice, Measure::kOverlap, Measure::kCosine}) {
    EXPECT_EQ(Similarity(m, kA, empty), 0.0);
    EXPECT_EQ(Similarity(m, empty, empty), 0.0);
  }
}

TEST(MeasuresTest, DispatchMatchesDirect) {
  EXPECT_EQ(Similarity(Measure::kBraunBlanquet, kA, kB),
            BraunBlanquet(kA, kB));
  EXPECT_EQ(Similarity(Measure::kJaccard, kA, kB), Jaccard(kA, kB));
}

TEST(MeasuresTest, FromCountsMatches) {
  EXPECT_EQ(SimilarityFromCounts(Measure::kBraunBlanquet, 4, 6, 2),
            BraunBlanquet(kA, kB));
  EXPECT_EQ(SimilarityFromCounts(Measure::kJaccard, 4, 6, 2),
            Jaccard(kA, kB));
}

TEST(MeasuresTest, SizesCanReachNeverSkipsAPairThatCouldPass) {
  // Every size pair in [0, 64]^2 of every measure, against every value
  // the measure takes at those sizes (each overlap up to the smaller
  // size) and the doubles just either side of it. SizesCanReach,
  // MinOverlap and the conditions below are step functions of the
  // threshold that only step at those values, so this covers every
  // threshold, the ties included. MinOverlap must be the smallest
  // overlap that reaches the threshold, or the smaller size + 1 when
  // none does, so SizesCanReach is exactly MinOverlap <= that size.
  constexpr size_t kMaxSize = 64;
  for (Measure m : {Measure::kBraunBlanquet, Measure::kJaccard,
                    Measure::kDice, Measure::kOverlap, Measure::kCosine}) {
    SCOPED_TRACE("measure " + std::to_string(static_cast<int>(m)));
    size_t failures = 0;
    std::string first_failure;
    std::vector<double> thresholds;
    for (size_t a = 0; a <= kMaxSize; ++a) {
      for (size_t b = 0; b <= kMaxSize; ++b) {
        const size_t most = std::min(a, b);
        thresholds.clear();
        double best = 0.0;  // the largest value over every overlap
        for (size_t overlap = 0; overlap <= most; ++overlap) {
          const double value = SimilarityFromCounts(m, a, b, overlap);
          best = std::max(best, value);
          thresholds.push_back(value);
          thresholds.push_back(std::nextafter(value, -1.0));
          thresholds.push_back(std::nextafter(value, 2.0));
        }
        const double at_most = SimilarityFromCounts(m, a, b, most);
        for (double t : thresholds) {
          const bool can = SizesCanReach(m, a, b, t);
          // Ruled out: no overlap reaches t. Not ruled out: the largest
          // overlap does.
          bool ok = can ? at_most >= t : best < t;
          if (m == Measure::kBraunBlanquet) {
            const double ratio =
                most == 0 ? 0.0
                          : static_cast<double>(most) /
                                static_cast<double>(std::max(a, b));
            ok = ok && can == (ratio >= t);
          }
          const size_t need = MinOverlap(m, a, b, t);
          ok = ok && need <= most + 1 && can == (need <= most);
          ok = ok && (need > most || SimilarityFromCounts(m, a, b, need) >= t);
          ok = ok &&
               (need == 0 || !(SimilarityFromCounts(m, a, b, need - 1) >= t));
          if (!ok && failures++ == 0) {
            first_failure = "sizes " + std::to_string(a) + ", " +
                            std::to_string(b) + ", threshold " +
                            std::to_string(t) + ": can reach " +
                            std::to_string(can) + ", min overlap " +
                            std::to_string(need);
          }
        }
      }
    }
    EXPECT_EQ(failures, 0u) << first_failure;
  }
}

TEST(MeasuresTest, OrderingInvariants) {
  // Known chain for any pair: BB <= Jaccard' relations — specifically
  // Jaccard <= Dice <= Overlap and BB <= Cosine <= Overlap.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::set<ItemId> sa, sb;
    while (sa.size() < 10) sa.insert(static_cast<ItemId>(rng.NextBounded(40)));
    while (sb.size() < 15) sb.insert(static_cast<ItemId>(rng.NextBounded(40)));
    std::vector<ItemId> a(sa.begin(), sa.end()), b(sb.begin(), sb.end());
    double bb = BraunBlanquet(a, b);
    double jac = Jaccard(a, b);
    double dice = Dice(a, b);
    double over = Overlap(a, b);
    double cos = Cosine(a, b);
    EXPECT_LE(jac, dice + 1e-12);
    EXPECT_LE(dice, over + 1e-12);
    EXPECT_LE(bb, cos + 1e-12);
    EXPECT_LE(cos, over + 1e-12);
    EXPECT_LE(bb, jac * 2 + 1e-12);
    // All in [0, 1].
    for (double v : {bb, jac, dice, over, cos}) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(MeasuresTest, SymmetryProperty) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    std::set<ItemId> sa, sb;
    while (sa.size() < 8) sa.insert(static_cast<ItemId>(rng.NextBounded(30)));
    while (sb.size() < 12) sb.insert(static_cast<ItemId>(rng.NextBounded(30)));
    std::vector<ItemId> a(sa.begin(), sa.end()), b(sb.begin(), sb.end());
    for (Measure m : {Measure::kBraunBlanquet, Measure::kJaccard,
                      Measure::kDice, Measure::kOverlap, Measure::kCosine}) {
      EXPECT_DOUBLE_EQ(Similarity(m, a, b), Similarity(m, b, a));
    }
  }
}

TEST(MeasuresTest, EmpiricalPearsonPerfectAndZero) {
  std::vector<ItemId> a{1, 2, 3};
  EXPECT_NEAR(EmpiricalPearson(a, a, 10), 1.0, 1e-12);
  std::vector<ItemId> b{4, 5, 6};
  // Disjoint equal-sized sets in d=6: perfectly anti-correlated.
  EXPECT_NEAR(EmpiricalPearson(a, b, 6), -1.0, 1e-12);
  EXPECT_EQ(EmpiricalPearson(a, b, 0), 0.0);
}

TEST(MeasuresTest, BraunBlanquetJaccardConversionRoundTrip) {
  for (double b : {0.1, 0.3, 0.5, 0.8, 1.0}) {
    double j = BraunBlanquetToJaccardEquivalent(b);
    EXPECT_NEAR(JaccardToBraunBlanquetEquivalent(j), b, 1e-12);
  }
  // Equal-size sets: the conversion is exact.
  std::vector<ItemId> a{1, 2, 3, 4}, b{3, 4, 5, 6};
  EXPECT_NEAR(BraunBlanquetToJaccardEquivalent(BraunBlanquet(a, b)),
              Jaccard(a, b), 1e-12);
}

}  // namespace
}  // namespace skewsearch
