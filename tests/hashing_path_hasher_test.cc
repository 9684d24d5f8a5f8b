#include "hashing/path_hasher.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "util/random.h"

namespace skewsearch {
namespace {

TEST(PathHasherTest, RootKeysDifferAcrossRepetitions) {
  PathHasher hasher(42, 16);
  std::set<uint64_t> roots;
  for (uint32_t rep = 0; rep < 100; ++rep) {
    roots.insert(hasher.RootKey(rep));
  }
  EXPECT_EQ(roots.size(), 100u);
}

TEST(PathHasherTest, RootKeysDifferAcrossSeeds) {
  PathHasher a(1, 16), b(2, 16);
  EXPECT_NE(a.RootKey(0), b.RootKey(0));
}

TEST(PathHasherTest, ExtendKeyOrderSensitive) {
  PathHasher hasher(42, 16);
  uint64_t root = hasher.RootKey(0);
  uint64_t ab = hasher.ExtendKey(hasher.ExtendKey(root, 1), 2);
  uint64_t ba = hasher.ExtendKey(hasher.ExtendKey(root, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(PathHasherTest, ExtendKeyDistinctItems) {
  PathHasher hasher(42, 16);
  uint64_t root = hasher.RootKey(0);
  std::set<uint64_t> keys;
  for (uint32_t item = 0; item < 10000; ++item) {
    keys.insert(hasher.ExtendKey(root, item));
  }
  EXPECT_EQ(keys.size(), 10000u);
}

TEST(PathHasherTest, LevelDrawDeterministic) {
  PathHasher hasher(42, 16);
  EXPECT_DOUBLE_EQ(hasher.LevelDraw(1, 777, 3), hasher.LevelDraw(1, 777, 3));
}

TEST(PathHasherTest, LevelDrawInUnitInterval) {
  PathHasher hasher(42, 16);
  for (uint32_t item = 0; item < 1000; ++item) {
    double u = hasher.LevelDraw(1 + (item % 16), item * 17, item);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(PathHasherTest, LevelDrawVariesWithLevel) {
  PathHasher hasher(42, 16);
  int equal = 0;
  for (int level = 1; level < 16; ++level) {
    if (hasher.LevelDraw(level, 12345, 7) ==
        hasher.LevelDraw(level + 1, 12345, 7)) {
      ++equal;
    }
  }
  EXPECT_EQ(equal, 0);
}

TEST(PathHasherTest, LevelDrawUniformMean) {
  PathHasher hasher(42, 16);
  double sum = 0.0;
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    sum += hasher.LevelDraw(1 + (i % 16),
                            static_cast<uint64_t>(i) * 2654435761ULL,
                            static_cast<uint32_t>(i % 977));
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.005);
}

TEST(PathHasherTest, DrawRateMatchesThreshold) {
  // Fraction of draws below a threshold s should be ~s — this is the
  // property the sampling recursion relies on.
  PathHasher hasher(123, 16);
  for (double s : {0.05, 0.2, 0.5}) {
    int below = 0;
    const int kDraws = 40000;
    for (int i = 0; i < kDraws; ++i) {
      if (hasher.LevelDraw(3, static_cast<uint64_t>(i) * 7919 + 1,
                           static_cast<uint32_t>(i % 1009)) < s) {
        ++below;
      }
    }
    EXPECT_NEAR(static_cast<double>(below) / kDraws, s, 0.01)
        << "threshold " << s;
  }
}

TEST(PathHasherTest, PairwiseEngineAlsoUniform) {
  PathHasher hasher(321, 16, HashEngine::kPairwise);
  double sum = 0.0;
  const int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    double u = hasher.LevelDraw(1 + (i % 16),
                                static_cast<uint64_t>(i) * 104729 + 3,
                                static_cast<uint32_t>(i % 499));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(PathHasherTest, EnginesProduceDifferentDraws) {
  PathHasher mixer(42, 16, HashEngine::kMixer);
  PathHasher pairwise(42, 16, HashEngine::kPairwise);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (mixer.LevelDraw(1, static_cast<uint64_t>(i), 5) ==
        pairwise.LevelDraw(1, static_cast<uint64_t>(i), 5)) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 2);
}

TEST(PathHasherTest, SharedPrefixConsistency) {
  // The core correctness property: two parties extending the same path
  // prefix with the same item observe the same draw, regardless of which
  // vector they are processing.
  PathHasher hasher(42, 16);
  uint64_t path_of_x = hasher.ExtendKey(hasher.RootKey(3), 17);
  uint64_t path_of_q = hasher.ExtendKey(hasher.RootKey(3), 17);
  EXPECT_EQ(path_of_x, path_of_q);
  EXPECT_DOUBLE_EQ(hasher.LevelDraw(2, path_of_x, 99),
                   hasher.LevelDraw(2, path_of_q, 99));
}

// The draw decision the kernel's integer bound must reproduce: a
// threshold below 1 rejects a draw at or above it.
bool UnitIntervalAccepts(uint64_t bits, double s) {
  return !(s < 1.0) || ToUnitInterval(bits) < s;
}

TEST(MixerAcceptBoundTest, MatchesUnitIntervalCompareAtTheBoundary) {
  // For each threshold, the mantissas just below, at and just above
  // ceil(s * 2^53) — where the two forms could first disagree — must get
  // the same decision, whatever the 11 low bits the draw drops.
  constexpr uint64_t kOne = uint64_t{1} << 53;
  std::vector<double> thresholds;
  for (uint64_t k : {uint64_t{1}, uint64_t{2}, uint64_t{3}, uint64_t{1000},
                     (uint64_t{1} << 52) - 1, uint64_t{1} << 52,
                     (uint64_t{1} << 52) + 1, kOne - 2, kOne - 1}) {
    const double s = std::ldexp(static_cast<double>(k), -53);  // k * 2^-53
    thresholds.push_back(s);
    thresholds.push_back(std::nextafter(s, 0.0));
    thresholds.push_back(std::nextafter(s, 2.0));
  }
  const double min_normal = std::numeric_limits<double>::min();
  for (double s : {std::numeric_limits<double>::denorm_min(),
                   2 * std::numeric_limits<double>::denorm_min(),
                   std::nextafter(min_normal, 0.0), min_normal,
                   std::nextafter(1.0, 0.0), 0.1, 0.25, 1.0 / 3.0, 0.5}) {
    thresholds.push_back(s);
  }
  Rng rng(7);
  for (int i = 0; i < 200; ++i) thresholds.push_back(rng.NextDouble());

  for (double s : thresholds) {
    ASSERT_GT(s, 0.0);
    const uint64_t bound = MixerAcceptBound(s);
    const uint64_t ceiling =
        s < 1.0 ? static_cast<uint64_t>(std::ceil(s * 0x1.0p53)) : kOne;
    EXPECT_EQ(bound, ceiling) << s;
    for (uint64_t mantissa : {ceiling - 1, ceiling, ceiling + 1}) {
      if (mantissa >= kOne) continue;  // not a 53-bit draw
      for (uint64_t low : {uint64_t{0}, uint64_t{0x7ff}}) {
        const uint64_t bits = (mantissa << 11) | low;
        EXPECT_EQ(MixerAccepts(bits, bound), UnitIntervalAccepts(bits, s))
            << "s=" << s << " mantissa=" << mantissa;
      }
    }
  }
}

TEST(MixerAcceptBoundTest, ThresholdsOutsideTheOpenUnitInterval) {
  // s >= 1 and NaN accept every draw; s <= 0, -0.0 included, none.
  const uint64_t kDraws[] = {0, 1, uint64_t{1} << 63, ~uint64_t{0}};
  for (double s : {1.0, 1.5, std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(MixerAcceptBound(s), uint64_t{1} << 53) << s;
    for (uint64_t bits : kDraws) {
      EXPECT_TRUE(MixerAccepts(bits, MixerAcceptBound(s))) << s;
      EXPECT_TRUE(UnitIntervalAccepts(bits, s)) << s;
    }
  }
  for (double s : {0.0, -0.0, -0.5, -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(MixerAcceptBound(s), 0u) << s;
    for (uint64_t bits : kDraws) {
      EXPECT_FALSE(MixerAccepts(bits, MixerAcceptBound(s))) << s;
      EXPECT_FALSE(UnitIntervalAccepts(bits, s)) << s;
    }
  }
}

TEST(PathHasherTest, DrawHalvesRecombineToTheComposedDraw) {
  // The per-level, per-item and per-node halves the kernel hoists give
  // exactly the draw and key written as one composition: h_level(v o i)
  // hashes MixPair(key(v) ^ salt_level, Mix64(c ^ i)), and key(v o i) is
  // MixPair(key(v), Mix64(c' ^ i)).
  for (HashEngine engine : {HashEngine::kMixer, HashEngine::kPairwise}) {
    PathHasher hasher(99, 6, engine);
    for (int level = 1; level <= 9; ++level) {  // wraps past max_level
      const PathHasher::Level half = hasher.LevelHalf(level);
      for (uint32_t item : {0u, 7u, 123456u}) {
        const uint64_t key = hasher.ExtendKey(hasher.RootKey(3), item + 1);
        const uint64_t child =
            MixPair(key ^ half.salt, Mix64(0x9e3779b97f4a7c15ULL ^ item));
        const double composed = engine == HashEngine::kMixer
                                    ? ToUnitInterval(Avalanche64(child))
                                    : half.pairwise->HashUnit(child);
        EXPECT_EQ(hasher.LevelDraw(level, key, item), composed);
        const uint64_t path = PathHasher::DrawPathHalf(key, half);
        const MixPairRight item_half = PathHasher::DrawItemHalf(item);
        if (engine == HashEngine::kMixer) {
          EXPECT_EQ(PathHasher::MixerDrawBits(path, item_half),
                    Avalanche64(child));
        } else {
          EXPECT_EQ(PathHasher::PairwiseDraw(half, path, item_half),
                    composed);
        }
        EXPECT_EQ(hasher.ExtendKey(key, item),
                  MixPair(key, Mix64(0x1234567890abcdefULL ^ item)));
      }
    }
  }
}

}  // namespace
}  // namespace skewsearch
