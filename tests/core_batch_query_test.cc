// Copyright 2026 The skewsearch Authors.
// BatchQuery must be a pure parallelization: identical results to the
// serial query path for every pool size, on the paper's index and on
// both baselines, with faithfully aggregated statistics. On the paper's
// index the rows check their cells of the differential oracle
// (index_oracle.h), whose BatchQuery check compares every query's match
// and counters with Query's.
#include <optional>
#include <vector>

#include "baselines/chosen_path.h"
#include "baselines/minhash_lsh.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "index_oracle.h"
#include "reference_index.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace skewsearch {
namespace {

struct BatchFixture {
  ProductDistribution dist;
  Dataset data;
  Dataset queries;
};

BatchFixture MakeFixture(size_t n = 300, size_t num_queries = 120) {
  BatchFixture f{ZipfProbabilities(400, 1.0, 0.3).value(), {}, {}};
  Rng rng(1234);
  f.data = GenerateDataset(f.dist, n, &rng);
  CorrelatedQuerySampler sampler(&f.dist, 0.8);
  for (size_t i = 0; i < num_queries; ++i) {
    SparseVector q = sampler.SampleCorrelated(
        f.data.Get(static_cast<VectorId>(i % f.data.size())), &rng);
    f.queries.Add(q.span());
  }
  return f;
}

// Correlated indexes built serially and on 4 threads batch on 1 and 3
// threads as they query one by one.
TEST(BatchQueryDeterminismTest, SkewedIndexMatchesSerialAcrossThreadCounts) {
  test::CheckOracleCells({1}, test::kSerialBuild | test::kThreadedBuild,
                         IndexMode::kCorrelated);
}

TEST(BatchQueryDeterminismTest, ChosenPathMatchesSerialAcrossThreadCounts) {
  BatchFixture f = MakeFixture();
  ChosenPathIndex index;
  ChosenPathOptions options;
  ASSERT_TRUE(index.Build(&f.data, &f.dist, options).ok());

  const auto serial = index.BatchQuery(f.queries);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    test::ExpectSameMatches(serial, index.BatchQuery(f.queries, &pool));
  }
}

TEST(BatchQueryDeterminismTest, MinHashMatchesSerialAcrossThreadCounts) {
  BatchFixture f = MakeFixture();
  MinHashLsh index;
  MinHashOptions options;
  ASSERT_TRUE(index.Build(&f.data, options).ok());

  const auto serial = index.BatchQuery(f.queries);
  for (int threads : {2, 8}) {
    ThreadPool pool(threads);
    test::ExpectSameMatches(serial, index.BatchQuery(f.queries, &pool));
  }
}

// Each batched answer and its per-query counters equal a lone Query's,
// at one shard and three.
TEST(BatchQueryDeterminismTest, BatchAgreesWithIndividualQueries) {
  test::CheckOracleCells({1, 3}, test::kSerialBuild);
}

TEST(BatchQueryEdgeTest, EmptyBatchOnEveryEngine) {
  BatchFixture f = MakeFixture(100, 0);
  ASSERT_TRUE(f.queries.empty());
  ThreadPool pool(4);

  ShardedIndex skewed;
  SkewedIndexOptions skewed_options;
  ASSERT_TRUE(skewed.Build(&f.data, &f.dist, {skewed_options, 1}).ok());
  std::vector<QueryStats> stats{QueryStats{}};  // stale entry must be cleared
  BatchQueryStats batch_stats;
  EXPECT_TRUE(
      skewed.BatchQuery(f.queries, &pool, &stats, &batch_stats).empty());
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(batch_stats.queries, 0u);
  EXPECT_EQ(batch_stats.totals.candidates, 0u);

  ChosenPathIndex chosen;
  ASSERT_TRUE(chosen.Build(&f.data, &f.dist, ChosenPathOptions{}).ok());
  EXPECT_TRUE(chosen.BatchQuery(f.queries, &pool).empty());

  MinHashLsh minhash;
  ASSERT_TRUE(minhash.Build(&f.data, MinHashOptions{}).ok());
  EXPECT_TRUE(minhash.BatchQuery(f.queries, &pool).empty());
}

TEST(BatchQueryEdgeTest, BatchLargerThanPoolAndQueriesWithEmptyVectors) {
  BatchFixture f = MakeFixture(200, 64);
  // Sprinkle empty queries between real ones; they must yield nullopt
  // without disturbing their neighbours' slots.
  Dataset queries;
  for (size_t i = 0; i < f.queries.size(); ++i) {
    queries.Add(f.queries.Get(static_cast<VectorId>(i)));
    if (i % 7 == 0) queries.Add(std::span<const ItemId>{});
  }
  ShardedIndex index;
  SkewedIndexOptions options;
  ASSERT_TRUE(index.Build(&f.data, &f.dist, {options, 1}).ok());

  ThreadPool pool(3);  // batch of ~73 on 3 workers
  const auto serial = index.BatchQuery(queries);
  const auto parallel = index.BatchQuery(queries, &pool);
  test::ExpectSameMatches(serial, parallel);
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries.Get(static_cast<VectorId>(i)).empty()) {
      EXPECT_FALSE(parallel[i].has_value()) << "empty query " << i;
    }
  }
}

TEST(BatchQueryStatsTest, AggregatesEqualPerQuerySums) {
  BatchFixture f = MakeFixture();
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.8;
  ASSERT_TRUE(index.Build(&f.data, &f.dist, {options, 1}).ok());

  for (int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    std::vector<QueryStats> per_query;
    BatchQueryStats agg;
    index.BatchQuery(f.queries, &pool, &per_query, &agg);
    EXPECT_EQ(agg.queries, f.queries.size());
    EXPECT_EQ(agg.threads, threads);

    QueryStats sum;
    for (const QueryStats& qs : per_query) AddQueryStats(&sum, qs);
    EXPECT_EQ(agg.totals.filters, sum.filters) << threads << " threads";
    EXPECT_EQ(agg.totals.candidates, sum.candidates);
    EXPECT_EQ(agg.totals.distinct_candidates, sum.distinct_candidates);
    EXPECT_EQ(agg.totals.verifications, sum.verifications);
    EXPECT_GE(agg.wall_seconds, 0.0);

    // Every filter the queries probed was emitted by the path engine,
    // so the aggregated PathGenStats must account for all of them —
    // independent of the pool size.
    EXPECT_EQ(agg.path_gen.filters_emitted, sum.filters);
    EXPECT_GT(agg.path_gen.nodes_expanded, 0u);
  }
}

TEST(BatchQueryStatsTest, ReusedPoolServesManyBatchesConsistently) {
  BatchFixture f = MakeFixture();
  ShardedIndex index;
  SkewedIndexOptions options;
  ASSERT_TRUE(index.Build(&f.data, &f.dist, {options, 1}).ok());

  ThreadPool pool(4);
  const auto serial = index.BatchQuery(f.queries);
  for (int round = 0; round < 3; ++round) {
    test::ExpectSameMatches(serial, index.BatchQuery(f.queries, &pool));
  }
  // A null pool means serial execution through the same code path.
  test::ExpectSameMatches(serial, index.BatchQuery(f.queries, nullptr));
}

// A one-shard index batches as it queries one by one, in every
// configuration.
TEST(BatchQueryTest, MatchesSerialQueries) {
  test::CheckOracleCells({1}, test::kSerialBuild);
}

TEST(BatchQueryTest, EmptyBatch) {
  auto dist = UniformProbabilities(100, 0.1).value();
  Rng rng(15);
  Dataset data = GenerateDataset(dist, 50, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  Dataset empty;
  ThreadPool pool(4);
  EXPECT_TRUE(index.BatchQuery(empty, &pool).empty());
}

}  // namespace
}  // namespace skewsearch
