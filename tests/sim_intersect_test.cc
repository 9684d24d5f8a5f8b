// Copyright 2026 The skewsearch Authors.
// The intersection module (sim/intersect.h): the merge and galloping
// references against a naive count, and differential tests for the
// vectorized kernels — every kernel must return a byte-identical count
// to the scalar reference on every input, randomized across size,
// overlap, and alignment regimes, plus the degenerate shapes (empty,
// single element, no overlap, full overlap) where block kernels
// typically go wrong. IntersectSizeAtLeast runs under every kernel on
// the same inputs, at needs around the true count.

#include "sim/intersect.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/sparse_vector.h"
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

std::vector<ItemId> MakeSorted(size_t count, ItemId universe, Rng* rng) {
  std::vector<ItemId> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    ids.push_back(static_cast<ItemId>(rng->NextBounded(universe)));
  }
  // FromIds sorts and dedupes — exactly the invariant the kernels assume.
  return SparseVector::FromIds(std::move(ids)).ids();
}

// IntersectSizeAtLeast on (a, b) and (b, a) under every kernel the CPU
// has, each installed by SetIntersectKernel and the active one restored
// afterwards, at need 0, 1, c - 1, c, c + 1, min and min + 1, where c is
// the true count: each call returns c when c >= need, and a count below
// need otherwise.
void ExpectAtLeastHolds(std::span<const ItemId> a, std::span<const ItemId> b) {
  const size_t count = IntersectSizeMerge(a, b);
  const size_t most = std::min(a.size(), b.size());
  const IntersectKernel active = ActiveIntersectKernel();
  for (IntersectKernel kernel : {IntersectKernel::kScalar,
                                 IntersectKernel::kSse2,
                                 IntersectKernel::kAvx2}) {
    if (SetIntersectKernel(kernel) != kernel) continue;  // the CPU lacks it
    SCOPED_TRACE(IntersectKernelName(kernel));
    for (size_t need : {size_t{0}, size_t{1}, count == 0 ? 0 : count - 1,
                        count, count + 1, most, most + 1}) {
      SCOPED_TRACE("need " + std::to_string(need) + ", count " +
                   std::to_string(count));
      for (const auto& [x, y] : {std::pair{a, b}, std::pair{b, a}}) {
        const size_t got = IntersectSizeAtLeast(x, y, need);
        if (count >= need) {
          EXPECT_EQ(got, count);
        } else {
          EXPECT_LT(got, need);
        }
      }
    }
  }
  SetIntersectKernel(active);
}

void ExpectAllKernelsAgree(std::span<const ItemId> a,
                           std::span<const ItemId> b) {
  ExpectAtLeastHolds(a, b);
  const size_t expect = IntersectSizeMerge(a, b);
  EXPECT_EQ(IntersectSizeScalar(a, b), expect);
  EXPECT_EQ(IntersectSizeSse2(a, b), expect);
  EXPECT_EQ(IntersectSizeAvx2(a, b), expect);
  EXPECT_EQ(IntersectSize(a, b), expect);
  EXPECT_EQ(IntersectSizeGalloping(a, b), expect);
  // Symmetry: |a n b| == |b n a| on every route.
  EXPECT_EQ(IntersectSizeSse2(b, a), expect);
  EXPECT_EQ(IntersectSizeAvx2(b, a), expect);
  EXPECT_EQ(IntersectSize(b, a), expect);
}

TEST(IntersectKernelsTest, DegenerateShapes) {
  const std::vector<ItemId> empty;
  const std::vector<ItemId> one = {7};
  const std::vector<ItemId> small = {1, 7, 9, 1000};
  ExpectAllKernelsAgree(empty, empty);
  ExpectAllKernelsAgree(empty, small);
  ExpectAllKernelsAgree(one, small);
  ExpectAllKernelsAgree(one, one);
  ExpectAllKernelsAgree(small, small);  // full overlap
}

TEST(IntersectKernelsTest, NoOverlapAndFullOverlap) {
  std::vector<ItemId> evens;
  std::vector<ItemId> odds;
  for (ItemId i = 0; i < 1000; ++i) {
    evens.push_back(2 * i);
    odds.push_back(2 * i + 1);
  }
  EXPECT_EQ(IntersectSizeSse2(evens, odds), 0u);
  EXPECT_EQ(IntersectSizeAvx2(evens, odds), 0u);
  ExpectAllKernelsAgree(evens, odds);
  EXPECT_EQ(IntersectSizeSse2(evens, evens), evens.size());
  EXPECT_EQ(IntersectSizeAvx2(evens, evens), evens.size());
}

TEST(IntersectKernelsTest, RandomizedSizeAndOverlapRegimes) {
  Rng rng(1234);
  // Sizes straddle the SIMD block widths (4 / 8) and their remainders;
  // universe multipliers sweep overlap from ~50% down to ~1%.
  const size_t sizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17,
                          31, 33, 64, 100, 257, 1024};
  const ItemId multipliers[] = {2, 8, 64};
  for (size_t la : sizes) {
    for (size_t lb : {la, la / 2 + 1, la * 3 + 1}) {
      for (ItemId mult : multipliers) {
        const ItemId universe =
            static_cast<ItemId>(std::max(la, lb) * mult + 1);
        auto a = MakeSorted(la, universe, &rng);
        auto b = MakeSorted(lb, universe, &rng);
        ExpectAllKernelsAgree(a, b);
      }
    }
  }
}

TEST(IntersectKernelsTest, AlignmentRegimes) {
  // Block kernels read 4/8-element groups; slide both windows over
  // every sub-word offset so loads start at all alignments.
  Rng rng(99);
  auto a = MakeSorted(512, 4096, &rng);
  auto b = MakeSorted(512, 4096, &rng);
  for (size_t off_a = 0; off_a < 9; ++off_a) {
    for (size_t off_b = 0; off_b < 9; ++off_b) {
      std::span<const ItemId> sa(a.data() + off_a, a.size() - off_a);
      std::span<const ItemId> sb(b.data() + off_b, b.size() - off_b);
      const size_t expect = IntersectSizeMerge(sa, sb);
      EXPECT_EQ(IntersectSizeSse2(sa, sb), expect);
      EXPECT_EQ(IntersectSizeAvx2(sa, sb), expect);
      EXPECT_EQ(IntersectSize(sa, sb), expect);
      ExpectAtLeastHolds(sa, sb);
    }
  }
}

TEST(IntersectKernelsTest, AsymmetricInputsTakeGallopingRoute) {
  Rng rng(7);
  auto tiny = MakeSorted(8, 1u << 20, &rng);
  auto huge = MakeSorted(20000, 1u << 20, &rng);
  ExpectAllKernelsAgree(tiny, huge);
}

TEST(IntersectKernelsTest, DispatchOverrideClampsAndRestores) {
  const IntersectKernel best = DetectIntersectKernel();
  // Scalar is always available.
  EXPECT_EQ(SetIntersectKernel(IntersectKernel::kScalar),
            IntersectKernel::kScalar);
  EXPECT_EQ(ActiveIntersectKernel(), IntersectKernel::kScalar);
  Rng rng(5);
  auto a = MakeSorted(300, 2048, &rng);
  auto b = MakeSorted(300, 2048, &rng);
  const size_t scalar_count = IntersectSize(a, b);
  // Requesting more than the hardware supports clamps to the best
  // supported kernel; the dispatched result must not change.
  const IntersectKernel installed = SetIntersectKernel(IntersectKernel::kAvx2);
  EXPECT_LE(static_cast<int>(installed), static_cast<int>(best));
  EXPECT_EQ(ActiveIntersectKernel(), installed);
  EXPECT_EQ(IntersectSize(a, b), scalar_count);
  SetIntersectKernel(best);
  EXPECT_EQ(ActiveIntersectKernel(), best);
}

TEST(IntersectKernelsTest, SimLayerRoutesThroughKernel) {
  // IntersectSize is the entry every measure uses; it must match the
  // merge reference whatever kernel is active.
  Rng rng(31);
  auto a = MakeSorted(777, 6000, &rng);
  auto b = MakeSorted(900, 6000, &rng);
  EXPECT_EQ(IntersectSize(a, b), IntersectSizeMerge(a, b));
}

TEST(IntersectKernelsTest, KernelNamesAreStable) {
  EXPECT_STREQ(IntersectKernelName(IntersectKernel::kScalar), "scalar");
  EXPECT_STREQ(IntersectKernelName(IntersectKernel::kSse2), "sse2");
  EXPECT_STREQ(IntersectKernelName(IntersectKernel::kAvx2), "avx2");
}

}  // namespace
}  // namespace skewsearch
