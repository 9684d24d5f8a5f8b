// ShardedIndex: serial equivalence with the one-shard index across
// shard counts and thread counts (the core contract: sharding is a
// layout decision, never a semantics decision), one instrumented query
// path at every shard count, partition stability, and the Freeze/
// MapFrozen round trip (in the ShardedIndexIoTest names "Save" means
// Freeze and "Load" means MapFrozen).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "test_paths.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace skewsearch {
namespace {

class ShardedIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(21);
    data_ = GenerateDataset(dist_, 300, &rng);
    queries_ = MakeQueries(40);
  }

  Dataset MakeQueries(int count) {
    CorrelatedQuerySampler sampler(&dist_, 0.7);
    Rng rng(22);
    Dataset queries;
    for (int t = 0; t < count; ++t) {
      VectorId target = static_cast<VectorId>(rng.NextBounded(data_.size()));
      queries.Add(sampler.SampleCorrelated(data_.Get(target), &rng).span());
    }
    return queries;
  }

  SkewedIndexOptions IndexOptions() const {
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = 0.7;
    options.repetitions = 8;
    options.seed = 4242;
    return options;
  }

  ShardedIndexOptions ShardedOptions(int num_shards) const {
    ShardedIndexOptions options;
    options.index = IndexOptions();
    options.num_shards = num_shards;
    return options;
  }

  ProductDistribution dist_;
  Dataset data_;
  Dataset queries_;
};

void ExpectSameMatch(const std::optional<Match>& a,
                     const std::optional<Match>& b, const std::string& ctx) {
  ASSERT_EQ(a.has_value(), b.has_value()) << ctx;
  if (a.has_value()) {
    EXPECT_EQ(a->id, b->id) << ctx;
    EXPECT_EQ(a->similarity, b->similarity) << ctx;  // bitwise-identical
  }
}

void ExpectSameMatches(const std::vector<Match>& a,
                       const std::vector<Match>& b, const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << ctx << " entry " << i;
    EXPECT_EQ(a[i].similarity, b[i].similarity) << ctx << " entry " << i;
  }
}

// The acceptance contract: byte-identical results for K in {2, 7}
// against K = 1, with and without a thread pool fanning out the shard
// scans.
TEST_F(ShardedIndexTest, SerialEquivalenceAcrossShardAndThreadCounts) {
  ShardedIndex reference;
  ASSERT_TRUE(reference.Build(&data_, &dist_, ShardedOptions(1)).ok());

  for (int num_shards : {2, 7}) {
    ShardedIndex sharded;
    ASSERT_TRUE(
        sharded.Build(&data_, &dist_, ShardedOptions(num_shards)).ok());
    EXPECT_EQ(sharded.num_shards(), num_shards);
    EXPECT_EQ(sharded.repetitions(), reference.repetitions());
    EXPECT_DOUBLE_EQ(sharded.verify_threshold(),
                     reference.verify_threshold());
    EXPECT_EQ(sharded.build_stats().total_filters,
              reference.build_stats().total_filters);

    ThreadPool pool(3);
    for (size_t i = 0; i < queries_.size(); ++i) {
      auto query = queries_.Get(static_cast<VectorId>(i));
      std::string ctx = "K=" + std::to_string(num_shards) + " query " +
                        std::to_string(i);
      // Filter keys are the same family, so they must agree exactly.
      EXPECT_EQ(sharded.ComputeFilterKeys(query),
                reference.ComputeFilterKeys(query))
          << ctx;
      ExpectSameMatch(sharded.Query(query), reference.Query(query), ctx);
      ExpectSameMatch(sharded.Query(query, &pool), reference.Query(query),
                      ctx + " (pooled)");
      ExpectSameMatches(sharded.QueryAll(query, 0.0),
                        reference.QueryAll(query, 0.0), ctx);
      ExpectSameMatches(sharded.QueryAll(query, 0.0, nullptr, &pool),
                        reference.QueryAll(query, 0.0), ctx + " (pooled)");
    }
  }
}

// Every shard count records the same query metrics from the same query
// driver: one query.count per query and the three per-query phase
// entries in the calling thread's trace, even when a pool scans the
// shards on other threads.
TEST_F(ShardedIndexTest, QueryRecordsMetricsAtEveryShardCount) {
  const std::vector<std::string_view> per_query = {
      "span.query.filters", "span.query.verify", "query.latency_ns"};
  obs::Counter* const queries =
      obs::MetricsRegistry::Global().GetCounter("query.count");
  ThreadPool pool(3);
  for (int num_shards : {1, 4}) {
    ShardedIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, ShardedOptions(num_shards)).ok());
    for (ThreadPool* query_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE("K=" + std::to_string(num_shards) +
                   (query_pool != nullptr ? " pooled" : " serial"));
      for (VectorId i = 0; i < 5; ++i) {
        obs::ScopedTrace trace;
        const uint64_t before = queries->Value();
        index.Query(queries_.Get(i), query_pool);
        EXPECT_EQ(queries->Value(), before + 1);
        std::vector<std::string_view> names;
        for (const obs::TraceEntry& entry : trace.entries()) {
          names.push_back(entry.name);
        }
        EXPECT_EQ(names, per_query);
      }
    }
  }
}

TEST_F(ShardedIndexTest, BatchQueryMatchesUnshardedForAnyThreadCount) {
  ShardedIndex reference;
  ASSERT_TRUE(reference.Build(&data_, &dist_, ShardedOptions(1)).ok());
  auto expected = reference.BatchQuery(queries_, 1);

  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Build(&data_, &dist_, ShardedOptions(7)).ok());
  for (int threads : {1, 2, 4}) {
    std::vector<QueryStats> stats;
    BatchQueryStats batch_stats;
    auto results = sharded.BatchQuery(queries_, threads, &stats,
                                      &batch_stats);
    ASSERT_EQ(results.size(), expected.size());
    ASSERT_EQ(stats.size(), queries_.size());
    EXPECT_EQ(batch_stats.queries, queries_.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ExpectSameMatch(results[i], expected[i],
                      "threads=" + std::to_string(threads) + " query " +
                          std::to_string(i));
    }
  }
}

TEST_F(ShardedIndexTest, AdversarialModeEquivalence) {
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.6;
  options.repetitions = 6;
  options.seed = 99;
  ShardedIndex reference;
  ASSERT_TRUE(reference.Build(&data_, &dist_, {options, 1}).ok());
  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Build(&data_, &dist_, {options, 5}).ok());

  for (VectorId id = 0; id < 60; ++id) {
    auto query = data_.Get(id);
    ExpectSameMatch(sharded.Query(query), reference.Query(query),
                    "stored vector " + std::to_string(id));
  }
}

TEST_F(ShardedIndexTest, ShardOfIsAStablePartition) {
  for (int num_shards : {1, 2, 7, 64}) {
    for (VectorId id = 0; id < 500; ++id) {
      int shard = ShardedIndex::ShardOf(id, num_shards);
      EXPECT_GE(shard, 0);
      EXPECT_LT(shard, num_shards);
      EXPECT_EQ(shard, ShardedIndex::ShardOf(id, num_shards));
    }
  }
  // Entries across shards must add up to the total (nothing lost or
  // duplicated by partitioning).
  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Build(&data_, &dist_, ShardedOptions(7)).ok());
  size_t total = 0;
  for (int s = 0; s < sharded.num_shards(); ++s) {
    total += sharded.shard_entries(s);
  }
  EXPECT_EQ(total, sharded.build_stats().total_filters);
}

TEST_F(ShardedIndexTest, BuildValidatesArguments) {
  ShardedIndex index;
  EXPECT_TRUE(
      index.Build(nullptr, &dist_, ShardedOptions(2)).IsInvalidArgument());
  EXPECT_TRUE(
      index.Build(&data_, &dist_, ShardedOptions(0)).IsInvalidArgument());
  EXPECT_TRUE(
      index.Build(&data_, &dist_, ShardedOptions(1 << 20))
          .IsInvalidArgument());
  EXPECT_FALSE(index.built());
  EXPECT_FALSE(index.Query(data_.Get(0)).has_value());
}

class ShardedIndexIoTest : public ShardedIndexTest {
 protected:
  void SetUp() override {
    ShardedIndexTest::SetUp();
    path_ = test::TempPath("sharded_io", this, ".skf");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(ShardedIndexIoTest, SaveLoadRoundTrip) {
  ShardedIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, ShardedOptions(5)).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());

  // The fully validated heap read: every posting is re-checked for
  // placement in the shard its id hashes to.
  FrozenMapOptions heap;
  heap.force_heap = true;
  heap.verify_payload = true;
  ShardedIndex loaded;
  ASSERT_TRUE(loaded.MapFrozen(path_, &data_, &dist_, heap).ok());
  EXPECT_TRUE(loaded.built());
  EXPECT_EQ(loaded.num_shards(), 5);
  EXPECT_EQ(loaded.repetitions(), original.repetitions());
  EXPECT_DOUBLE_EQ(loaded.verify_threshold(), original.verify_threshold());
  for (size_t i = 0; i < queries_.size(); ++i) {
    auto query = queries_.Get(static_cast<VectorId>(i));
    ExpectSameMatch(loaded.Query(query), original.Query(query),
                    "query " + std::to_string(i));
    ExpectSameMatches(loaded.QueryAll(query, 0.0),
                      original.QueryAll(query, 0.0),
                      "query " + std::to_string(i));
  }
}

TEST_F(ShardedIndexIoTest, LoadRejectsDifferentDataset) {
  ShardedIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, ShardedOptions(3)).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());
  Rng rng(77);
  Dataset other = GenerateDataset(dist_, 300, &rng);
  ShardedIndex loaded;
  EXPECT_TRUE(loaded.MapFrozen(path_, &other, &dist_).IsInvalidArgument());
}

TEST_F(ShardedIndexIoTest, LoadRejectsGarbageAndTruncation) {
  {
    std::ofstream out(path_, std::ios::binary);
    out << "not an index";
  }
  ShardedIndex loaded;
  EXPECT_TRUE(loaded.MapFrozen(path_, &data_, &dist_).IsInvalidArgument());

  ShardedIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, ShardedOptions(3)).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  for (size_t keep : {size_t{0}, size_t{3}, size_t{40}, contents.size() / 2,
                      contents.size() - 1}) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(keep));
    out.close();
    ShardedIndex truncated;
    EXPECT_FALSE(truncated.MapFrozen(path_, &data_, &dist_).ok())
        << "prefix of " << keep << " bytes";
  }
}

}  // namespace
}  // namespace skewsearch
