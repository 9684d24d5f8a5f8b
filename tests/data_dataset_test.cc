#include "data/dataset.h"

#include <gtest/gtest.h>

#include <vector>

#include "sim/intersect.h"
#include "sim/measures.h"

namespace skewsearch {
namespace {

TEST(DatasetTest, EmptyDataset) {
  Dataset data;
  EXPECT_TRUE(data.empty());
  EXPECT_EQ(data.size(), 0u);
  EXPECT_EQ(data.dimension(), 0u);
  EXPECT_EQ(data.TotalItems(), 0u);
  EXPECT_EQ(data.AverageSize(), 0.0);
}

TEST(DatasetTest, AddReturnsSequentialIds) {
  Dataset data;
  EXPECT_EQ(data.Add(SparseVector::Of({1})), 0u);
  EXPECT_EQ(data.Add(SparseVector::Of({2})), 1u);
  EXPECT_EQ(data.Add(SparseVector::Of({})), 2u);
  EXPECT_EQ(data.size(), 3u);
}

TEST(DatasetTest, GetRoundTrips) {
  Dataset data;
  SparseVector v = SparseVector::Of({3, 1, 4, 1, 5});
  data.Add(v);
  auto got = data.Get(0);
  EXPECT_EQ(std::vector<ItemId>(got.begin(), got.end()),
            (std::vector<ItemId>{1, 3, 4, 5}));
  EXPECT_EQ(data.GetVector(0), v);
}

TEST(DatasetTest, DimensionTracksMaxItem) {
  Dataset data;
  data.Add(SparseVector::Of({5}));
  EXPECT_EQ(data.dimension(), 6u);
  data.Add(SparseVector::Of({100}));
  EXPECT_EQ(data.dimension(), 101u);
  data.Add(SparseVector::Of({7}));
  EXPECT_EQ(data.dimension(), 101u);
}

TEST(DatasetTest, SetDimensionExplicit) {
  Dataset data;
  data.Add(SparseVector::Of({5}));
  EXPECT_TRUE(data.SetDimension(1000).ok());
  EXPECT_EQ(data.dimension(), 1000u);
}

TEST(DatasetTest, SetDimensionRejectsTooSmall) {
  Dataset data;
  data.Add(SparseVector::Of({5}));
  Status s = data.SetDimension(3);
  EXPECT_TRUE(s.IsInvalidArgument());
}

TEST(DatasetTest, SizesAndAverages) {
  Dataset data;
  data.Add(SparseVector::Of({1, 2, 3}));
  data.Add(SparseVector::Of({4}));
  EXPECT_EQ(data.SizeOf(0), 3u);
  EXPECT_EQ(data.SizeOf(1), 1u);
  EXPECT_EQ(data.TotalItems(), 4u);
  EXPECT_DOUBLE_EQ(data.AverageSize(), 2.0);
}

TEST(DatasetTest, EmptyVectorsAllowed) {
  Dataset data;
  data.Add(SparseVector::Of({}));
  data.Add(SparseVector::Of({1}));
  EXPECT_EQ(data.SizeOf(0), 0u);
  EXPECT_TRUE(data.Get(0).empty());
}

TEST(DatasetTest, MemoryBytesGrows) {
  Dataset data;
  size_t before = data.MemoryBytes();
  for (int i = 0; i < 100; ++i) {
    data.Add(SparseVector::Of({static_cast<ItemId>(i)}));
  }
  EXPECT_GT(data.MemoryBytes(), before);
}

TEST(DatasetTest, AddFromSpan) {
  Dataset data;
  std::vector<ItemId> ids{2, 4, 6};
  data.Add(std::span<const ItemId>(ids));
  EXPECT_EQ(data.SizeOf(0), 3u);
  EXPECT_EQ(data.Get(0)[1], 4u);
}

TEST(DatasetTest, AddStoresTheSetOfAnUnsortedSpan) {
  // Descending and repeated ids are stored as their sorted set, so every
  // intersection kernel counts the same overlap against it.
  Dataset data;
  const std::vector<ItemId> ids{9, 7, 5, 1, 9, 7, 5, 1};
  data.Add(std::span<const ItemId>(ids));
  const std::span<const ItemId> stored = data.Get(0);
  EXPECT_EQ(std::vector<ItemId>(stored.begin(), stored.end()),
            (std::vector<ItemId>{1, 5, 7, 9}));
  EXPECT_EQ(data.dimension(), 10u);

  std::vector<ItemId> odd;
  for (ItemId id = 1; id <= 17; id += 2) odd.push_back(id);
  const IntersectKernel active = ActiveIntersectKernel();
  for (IntersectKernel kernel : {IntersectKernel::kScalar,
                                 IntersectKernel::kSse2,
                                 IntersectKernel::kAvx2}) {
    SCOPED_TRACE(IntersectKernelName(SetIntersectKernel(kernel)));
    EXPECT_DOUBLE_EQ(Similarity(Measure::kJaccard, stored, odd), 4.0 / 9.0);
  }
  SetIntersectKernel(active);
}

}  // namespace
}  // namespace skewsearch
