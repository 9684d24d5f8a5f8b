// The paper's index (the filter family behind a one-shard ShardedIndex):
// build validation, recall, verification and the Lemma 5/8 diagnostics.
// The verification and determinism rows check their cells of the
// differential oracle (index_oracle.h): the index answers as the
// reference does, whose matches a brute-force scan confirms.

#include "core/sharded_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <span>
#include <vector>

#include "data/correlated.h"
#include "data/generators.h"
#include "index_oracle.h"
#include "util/random.h"

namespace skewsearch {
namespace {

TEST(SkewedIndexTest, BuildValidatesArguments) {
  ShardedIndex index;
  SkewedIndexOptions options;
  auto dist = UniformProbabilities(10, 0.2).value();
  Dataset data;
  EXPECT_TRUE(index.Build(nullptr, &dist, {options, 1}).IsInvalidArgument());
  EXPECT_TRUE(index.Build(&data, nullptr, {options, 1}).IsInvalidArgument());
  EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).IsInvalidArgument());

  data.Add(SparseVector::Of({1}));
  data.Add(SparseVector::Of({2}));
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.0;
  EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).IsInvalidArgument());
  options.b1 = 1.0;
  EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).IsInvalidArgument());

  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.0;
  EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).IsInvalidArgument());
  options.alpha = 1.2;
  EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).IsInvalidArgument());
}

TEST(SkewedIndexTest, BuildRejectsDimensionMismatch) {
  ShardedIndex index;
  SkewedIndexOptions options;
  auto dist = UniformProbabilities(5, 0.2).value();
  Dataset data;
  data.Add(SparseVector::Of({100}));
  data.Add(SparseVector::Of({1}));
  EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).IsInvalidArgument());
}

TEST(SkewedIndexTest, NotBuiltQueriesReturnNothing) {
  ShardedIndex index;
  EXPECT_FALSE(index.built());
  SparseVector q = SparseVector::Of({1, 2});
  EXPECT_FALSE(index.Query(q.span()).has_value());
  EXPECT_TRUE(index.QueryAll(q.span(), 0.0).empty());
}

TEST(SkewedIndexTest, DerivedParametersPopulated) {
  auto dist = UniformProbabilities(2000, 0.05).value();  // m = 100
  Rng rng(1);
  Dataset data = GenerateDataset(dist, 256, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.8;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  EXPECT_TRUE(index.built());
  EXPECT_GT(index.repetitions(), 0);
  EXPECT_NEAR(index.verify_threshold(), 0.8 / 1.3, 1e-12);
  EXPECT_GT(index.build_stats().total_filters, 0u);
  EXPECT_GT(index.build_stats().delta_used, 0.0);
  EXPECT_GT(index.MemoryBytes(), 0u);
}

TEST(SkewedIndexTest, ExplicitRepetitionsHonored) {
  auto dist = UniformProbabilities(500, 0.1).value();
  Rng rng(2);
  Dataset data = GenerateDataset(dist, 64, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  options.repetitions = 7;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  EXPECT_EQ(index.repetitions(), 7);
}

TEST(SkewedIndexTest, FindsExactDuplicateAdversarial) {
  auto dist = UniformProbabilities(3000, 0.03).value();  // E|x| = 90
  Rng rng(3);
  Dataset data = GenerateDataset(dist, 300, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.7;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  // Query with an exact copy of a stored vector: B = 1 >= b1; Lemma 5
  // across ~2 ln n repetitions should find it virtually always.
  int found = 0;
  for (VectorId id = 0; id < 50; ++id) {
    auto hit = index.Query(data.Get(id));
    if (hit && hit->id == id) ++found;
  }
  EXPECT_GE(found, 45);
}

TEST(SkewedIndexTest, CorrelatedQueriesRecallPlantedTarget) {
  const double alpha = 0.75;
  auto dist = TwoBlockProbabilities(400, 0.25, 30000, 0.004).value();
  Rng rng(4);
  Dataset data = GenerateDataset(dist, 512, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = alpha;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());

  CorrelatedQuerySampler sampler(&dist, alpha);
  int found = 0;
  const int kQueries = 60;
  for (int t = 0; t < kQueries; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data.size()));
    SparseVector q = sampler.SampleCorrelated(data.Get(target), &rng);
    auto hit = index.Query(q.span());
    // Any returned match must clear the verify threshold; the planted
    // target is the overwhelmingly likely unique match (Lemma 10).
    if (hit && hit->id == target) ++found;
  }
  EXPECT_GE(found, kQueries * 8 / 10);
}

// Every adversarial match reaches the verify threshold with the
// similarity a brute-force scan computes.
TEST(SkewedIndexTest, ReturnedMatchesMeetThreshold) {
  test::CheckOracleCells({1}, test::kSerialBuild, IndexMode::kAdversarial);
}

TEST(SkewedIndexTest, QueryAllFindsAllNearDuplicates) {
  // Three near-identical vectors planted among noise; QueryAll must
  // surface all of them (with enough repetitions).
  auto dist = UniformProbabilities(4000, 0.02).value();
  Rng rng(6);
  Dataset data;
  SparseVector base = dist.Sample(&rng);
  data.Add(base);
  // Two copies with one item changed.
  for (int c = 0; c < 2; ++c) {
    std::vector<ItemId> ids(base.ids());
    ids[static_cast<size_t>(c)] = 3999 - static_cast<ItemId>(c);
    data.Add(SparseVector::FromIds(ids));
  }
  for (int i = 0; i < 200; ++i) data.Add(dist.Sample(&rng));
  ASSERT_TRUE(data.SetDimension(4000).ok());

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.8;
  options.repetition_boost = 3.0;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  auto matches = index.QueryAll(base.span(), 0.8);
  // Expect to see ids 0, 1, 2.
  std::set<VectorId> ids;
  for (const auto& m : matches) ids.insert(m.id);
  EXPECT_TRUE(ids.count(0));
  EXPECT_GE(ids.size(), 2u);
}

TEST(SkewedIndexTest, QueryStatsAreConsistent) {
  auto dist = UniformProbabilities(1000, 0.05).value();
  Rng rng(7);
  Dataset data = GenerateDataset(dist, 128, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  CorrelatedQuerySampler sampler(&dist, 0.7);
  QueryStats stats;
  SparseVector q = sampler.SampleCorrelated(data.Get(0), &rng);
  index.QueryAll(q.span(), 0.0, &stats);
  EXPECT_GE(stats.candidates, stats.distinct_candidates);
  EXPECT_EQ(stats.verifications, stats.distinct_candidates);
  EXPECT_EQ(stats.size_skips, 0u);
  EXPECT_GE(stats.filters, 0u);

  // At the verify threshold a candidate whose size rules it out is
  // skipped instead of verified; every distinct candidate is one or the
  // other. Vector 0 padded to twice its size still shares keys with the
  // data, but is too large for most of the candidates they reach.
  std::vector<ItemId> padded(data.Get(0).begin(), data.Get(0).end());
  for (ItemId item = 0; padded.size() < 2 * data.Get(0).size(); ++item) {
    if (!std::binary_search(data.Get(0).begin(), data.Get(0).end(), item)) {
      padded.push_back(item);
    }
  }
  std::sort(padded.begin(), padded.end());
  const std::span<const ItemId> queries[] = {q.span(), padded};
  for (std::span<const ItemId> query : queries) {
    QueryStats bounded;
    index.QueryAll(query, index.verify_threshold(), &bounded);
    EXPECT_EQ(bounded.verifications + bounded.size_skips,
              bounded.distinct_candidates);
    if (query.data() == padded.data()) {
      EXPECT_GT(bounded.size_skips, 0u);
    }
  }
}

// Two adversarial builds from one seed, serial and on 4 threads, hold the
// same arrays and counters, and their families compute the keys of a
// family created apart from them.
TEST(SkewedIndexTest, DeterministicForFixedSeed) {
  test::CheckOracleCells({1}, test::kSerialBuild | test::kThreadedBuild,
                         IndexMode::kAdversarial);
}

TEST(SkewedIndexTest, DifferentSeedsChangeFilters) {
  auto dist = UniformProbabilities(800, 0.06).value();
  Rng rng(9);
  Dataset data = GenerateDataset(dist, 100, &rng);
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  ShardedIndex a, b;
  options.seed = 1;
  ASSERT_TRUE(a.Build(&data, &dist, {options, 1}).ok());
  options.seed = 2;
  ASSERT_TRUE(b.Build(&data, &dist, {options, 1}).ok());
  SparseVector q = data.GetVector(3);
  std::vector<uint64_t> a_keys, b_keys;
  std::vector<size_t> offsets;
  a.family().ComputeAllFilters(q.span(), &a_keys, &offsets);
  b.family().ComputeAllFilters(q.span(), &b_keys, &offsets);
  EXPECT_NE(a_keys, b_keys);
}

TEST(SkewedIndexTest, PairwiseHashEngineWorks) {
  auto dist = UniformProbabilities(1000, 0.05).value();
  Rng rng(10);
  Dataset data = GenerateDataset(dist, 128, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.7;
  options.hash_engine = HashEngine::kPairwise;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  int found = 0;
  for (VectorId id = 0; id < 30; ++id) {
    auto hit = index.Query(data.Get(id));
    if (hit && hit->id == id) ++found;
  }
  EXPECT_GE(found, 25);
}

TEST(SkewedIndexTest, EmptyQueryReturnsNothing) {
  auto dist = UniformProbabilities(100, 0.1).value();
  Rng rng(11);
  Dataset data = GenerateDataset(dist, 50, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  QueryStats stats;
  EXPECT_FALSE(index.Query({}, &stats).has_value());
  EXPECT_EQ(stats.candidates, 0u);
}

// Correlated builds on 4 threads hold the serial build's arrays and
// counters, and answer as the reference does.
TEST(SkewedIndexTest, ParallelBuildIdenticalToSerial) {
  test::CheckOracleCells({1}, test::kSerialBuild | test::kThreadedBuild,
                         IndexMode::kCorrelated);
}

TEST(SkewedIndexTest, QueryTopKRanksAndTruncates) {
  auto dist = UniformProbabilities(2000, 0.03).value();
  Rng rng(21);
  Dataset data;
  SparseVector base = dist.Sample(&rng);
  data.Add(base);
  // Graded near-duplicates: drop 1, 3, 9 items.
  for (size_t drop : {1u, 3u, 9u}) {
    std::vector<ItemId> ids(base.ids().begin() + drop, base.ids().end());
    data.Add(SparseVector::FromSorted(std::move(ids)));
  }
  for (int i = 0; i < 100; ++i) data.Add(dist.Sample(&rng));
  ASSERT_TRUE(data.SetDimension(2000).ok());

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.8;
  options.repetition_boost = 3.0;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());

  // Threshold 0 ranks every candidate the filters surface (approximate
  // top-k: exact among the candidates); the top k is the prefix.
  auto ranked = index.QueryAll(base.span(), 0.0);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].id, 0u);  // exact duplicate first
  EXPECT_DOUBLE_EQ(ranked[0].similarity, 1.0);
  EXPECT_GE(ranked[0].similarity, ranked[1].similarity);
  for (size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].similarity, ranked[i].similarity);
  }
}

TEST(SkewedIndexTest, CollisionRateSeparatesCloseAndFar) {
  auto dist = TwoBlockProbabilities(200, 0.25, 10000, 0.005).value();
  Rng rng(22);
  Dataset data = GenerateDataset(dist, 200, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.8;
  options.repetitions = 30;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());

  CorrelatedQuerySampler sampler(&dist, 0.8);
  SparseVector x = data.GetVector(0);
  SparseVector close = sampler.SampleCorrelated(x.span(), &rng);
  SparseVector far = dist.Sample(&rng);
  const FilterFamily& family = index.family();
  double close_rate = family.EstimateCollisionRate(x.span(), close.span());
  double far_rate = family.EstimateCollisionRate(x.span(), far.span());
  EXPECT_GT(close_rate, 0.2);  // Lemma 5: >= 1/ln n per repetition
  EXPECT_LT(far_rate, close_rate);
  // Identity collides whenever F(x) is non-empty, so it upper-bounds every
  // other collision rate (F(x) may legitimately be empty in repetitions
  // where the near-critical branching dies out).
  double self_rate = family.EstimateCollisionRate(x.span(), x.span());
  EXPECT_GE(self_rate, close_rate);
  EXPECT_GT(self_rate, 0.5);
}

TEST(SkewedIndexTest, PredictQueryExponentAdversarial) {
  auto dist = TwoBlockProbabilities(100, 0.3, 10000, 0.002).value();
  Rng rng(23);
  Dataset data = GenerateDataset(dist, 100, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());

  // All-frequent query is predicted more expensive than all-rare.
  std::vector<ItemId> freq_ids, rare_ids;
  for (ItemId i = 0; i < 40; ++i) {
    freq_ids.push_back(i);
    rare_ids.push_back(100 + i);
  }
  const FilterFamily& family = index.family();
  const SparseVector freq = SparseVector::FromSorted(freq_ids);
  const SparseVector rare = SparseVector::FromSorted(rare_ids);
  double rho_freq = family.PredictQueryExponent(freq.span()).value();
  double rho_rare = family.PredictQueryExponent(rare.span()).value();
  EXPECT_GT(rho_freq, rho_rare);
  // Unbuilt index and out-of-universe items are rejected.
  ShardedIndex empty;
  const FilterFamily& unbuilt = empty.family();
  EXPECT_FALSE(unbuilt.PredictQueryExponent(SparseVector::Of({1}).span()).ok());
  EXPECT_FALSE(
      family.PredictQueryExponent(SparseVector::Of({999999}).span()).ok());
}

TEST(SkewedIndexTest, ToleratesEmptyAndTinyVectors) {
  // Real datasets contain degenerate rows; the index must build and query
  // around them (empty vectors generate no filters and are never
  // candidates).
  auto dist = UniformProbabilities(500, 0.05).value();
  Rng rng(25);
  Dataset data;
  data.Add(SparseVector::Of({}));            // empty
  data.Add(SparseVector::Of({7}));           // single item
  for (int i = 0; i < 100; ++i) data.Add(dist.Sample(&rng));
  data.Add(SparseVector::Of({}));            // empty at the end too
  ASSERT_TRUE(data.SetDimension(500).ok());

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.6;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  // A normal query still finds its duplicate.
  auto hit = index.Query(data.Get(5));
  ASSERT_TRUE(hit.has_value());
  EXPECT_GE(hit->similarity, 0.6);
  // Querying the single-item vector is well-defined (may or may not
  // match, but must not return an empty-vector candidate).
  auto matches = index.QueryAll(data.Get(1), 0.0);
  for (const auto& m : matches) EXPECT_GT(data.SizeOf(m.id), 0u);
}

// A correlated index's Query match is in its QueryAll at the verify
// threshold, with the same similarity, and absent only when that list is
// empty.
TEST(SkewedIndexTest, QueryConsistentWithQueryAll) {
  test::CheckOracleCells({1}, test::kSerialBuild, IndexMode::kCorrelated);
}

TEST(SkewedIndexTest, StrictPaperDeltaIsLarger) {
  auto dist = UniformProbabilities(2000, 0.05).value();
  Rng rng(12);
  Dataset data = GenerateDataset(dist, 128, &rng);
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.5;
  ShardedIndex relaxed, strict;
  ASSERT_TRUE(relaxed.Build(&data, &dist, {options, 1}).ok());
  options.strict_paper_delta = true;
  ASSERT_TRUE(strict.Build(&data, &dist, {options, 1}).ok());
  EXPECT_GE(strict.build_stats().delta_used,
            relaxed.build_stats().delta_used);
  // Larger delta => more filters per element.
  EXPECT_GE(strict.build_stats().avg_filters_per_element,
            relaxed.build_stats().avg_filters_per_element);
}

// q with two items the distribution does not cover appended (they sort
// after every covered item).
std::vector<ItemId> WidenPastUniverse(std::span<const ItemId> q, size_t d) {
  std::vector<ItemId> widened(q.begin(), q.end());
  widened.push_back(static_cast<ItemId>(d));
  widened.push_back(static_cast<ItemId>(d + 7));
  return widened;
}

TEST(FilterFamilyTest, ItemsOutsideTheUniverseLeaveFiltersUnchanged) {
  // An item at or above dist.dimension() occurs in no indexed vector, so
  // the family never puts it on a path. The correlated policy ignores |x|,
  // so F(q u {d, d+7}) = F(q) exactly, through both entry points.
  auto dist = ZipfProbabilities(2000, 1.0, 0.3).value();
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.8;
  auto family = FilterFamily::Create(&dist, options, 2000);
  ASSERT_TRUE(family.ok());
  Rng rng(17);
  size_t total_keys = 0;
  for (int t = 0; t < 50; ++t) {
    SparseVector q = dist.Sample(&rng);
    const std::vector<ItemId> widened =
        WidenPastUniverse(q.span(), dist.dimension());
    std::vector<uint64_t> keys, widened_keys;
    std::vector<size_t> offsets, widened_offsets;
    PathGenStats stats, widened_stats;
    family->ComputeAllFilters(q.span(), &keys, &offsets, &stats);
    family->ComputeAllFilters(widened, &widened_keys, &widened_offsets,
                              &widened_stats);
    EXPECT_EQ(widened_keys, keys) << "query " << t;
    EXPECT_EQ(widened_offsets, offsets) << "query " << t;
    EXPECT_EQ(widened_stats.draws, stats.draws) << "query " << t;
    total_keys += keys.size();
    for (int rep = 0; rep < family->repetitions(); ++rep) {
      std::vector<uint64_t> one, widened_one;
      family->ComputeFilters(q.span(), static_cast<uint32_t>(rep), &one);
      family->ComputeFilters(widened, static_cast<uint32_t>(rep),
                             &widened_one);
      EXPECT_EQ(widened_one, one) << "query " << t << " rep " << rep;
    }
  }
  EXPECT_GT(total_keys, 0u);
}

// Query and QueryAll accept items the distribution does not cover, in
// both modes: 20 of the oracle's queries are base vectors with two such
// items appended, and every match re-verifies against the query.
TEST(SkewedIndexTest, QueriesWithItemsOutsideTheUniverseVerify) {
  test::CheckOracleCells({1}, test::kSerialBuild);
}

}  // namespace
}  // namespace skewsearch
