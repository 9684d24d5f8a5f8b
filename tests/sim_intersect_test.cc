#include "sim/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/random.h"

namespace skewsearch {
namespace {

// Reference implementation for property tests.
size_t NaiveIntersect(const std::vector<ItemId>& a,
                      const std::vector<ItemId>& b) {
  std::set<ItemId> sa(a.begin(), a.end());
  size_t count = 0;
  for (ItemId x : b) count += sa.count(x);
  return count;
}

std::vector<ItemId> RandomSorted(Rng* rng, size_t max_size, ItemId universe) {
  std::set<ItemId> s;
  size_t target = rng->NextBounded(max_size + 1);
  while (s.size() < target) {
    s.insert(static_cast<ItemId>(rng->NextBounded(universe)));
  }
  return {s.begin(), s.end()};
}

TEST(IntersectTest, EmptyInputs) {
  std::vector<ItemId> a{1, 2, 3}, empty;
  EXPECT_EQ(IntersectSizeMerge(a, empty), 0u);
  EXPECT_EQ(IntersectSizeMerge(empty, a), 0u);
  EXPECT_EQ(IntersectSizeGalloping(a, empty), 0u);
  EXPECT_EQ(IntersectSize(empty, empty), 0u);
}

TEST(IntersectTest, KnownCases) {
  std::vector<ItemId> a{1, 3, 5, 7}, b{3, 4, 5, 6, 7};
  EXPECT_EQ(IntersectSizeMerge(a, b), 3u);
  EXPECT_EQ(IntersectSizeGalloping(a, b), 3u);
  EXPECT_EQ(IntersectSize(a, b), 3u);
}

TEST(IntersectTest, DisjointAndIdentical) {
  std::vector<ItemId> a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(IntersectSize(a, b), 0u);
  EXPECT_EQ(IntersectSize(a, a), 3u);
  EXPECT_EQ(IntersectSizeGalloping(a, a), 3u);
}

TEST(IntersectTest, GallopingWithVeryAsymmetricSizes) {
  std::vector<ItemId> small{500, 100000, 999999};
  std::vector<ItemId> big;
  for (ItemId i = 0; i < 100000; ++i) big.push_back(i * 10);
  // 500 and 100000 are multiples of 10; 999999 is not.
  EXPECT_EQ(IntersectSizeGalloping(small, big), 2u);
  EXPECT_EQ(IntersectSize(small, big), 2u);
}

TEST(IntersectTest, PropertyAllKernelsAgreeWithNaive) {
  Rng rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    auto a = RandomSorted(&rng, 60, 200);
    auto b = RandomSorted(&rng, 60, 200);
    size_t expect = NaiveIntersect(a, b);
    EXPECT_EQ(IntersectSizeMerge(a, b), expect);
    EXPECT_EQ(IntersectSizeGalloping(a, b), expect);
    EXPECT_EQ(IntersectSize(a, b), expect);
  }
}

TEST(IntersectTest, PropertySymmetry) {
  Rng rng(43);
  for (int trial = 0; trial < 100; ++trial) {
    auto a = RandomSorted(&rng, 40, 300);
    auto b = RandomSorted(&rng, 400, 3000);
    EXPECT_EQ(IntersectSize(a, b), IntersectSize(b, a));
    EXPECT_EQ(IntersectSizeGalloping(a, b), IntersectSizeGalloping(b, a));
  }
}

}  // namespace
}  // namespace skewsearch
