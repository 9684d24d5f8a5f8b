// ShardedIndex: serial equivalence across shard and thread counts (the
// core contract: sharding is a layout decision, never a semantics
// decision), one instrumented query path at every shard count, work
// counters equal to a shard-by-shard replay, partition stability, and
// the Freeze/MapFrozen round trip and its rejection of foreign and
// damaged files (in the ShardedIndexIoTest names "Save" means Freeze and
// "Load" means MapFrozen). The equivalence rows check their cells of the
// differential oracle (index_oracle.h): each answers as the reference
// does.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "index_oracle.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "reference_index.h"
#include "sim/measures.h"
#include "test_paths.h"
#include "util/random.h"

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

// Builds at K = 1, 2 and 7, serially and on 4 threads, hold the serial
// build's shard arrays and counters, and answer as the reference does.
TEST_F(ShardedIndexTest, SerialEquivalenceAcrossShardAndThreadCounts) {
  test::CheckOracleCells({1, 2, 7}, test::kSerialBuild | test::kThreadedBuild);
}

// Every shard count records the same query metrics from the same query
// driver: one query.count per query and the three per-query phase
// entries in the calling thread's trace.
TEST_F(ShardedIndexTest, QueryRecordsMetricsAtEveryShardCount) {
  const std::vector<std::string_view> per_query = {
      "span.query.filters", "span.query.verify", "query.latency_ns"};
  obs::Counter* const queries =
      obs::MetricsRegistry::Global().GetCounter("query.count");
  for (int num_shards : {1, 4}) {
    ShardedIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, ShardedOptions(num_shards)).ok());
    SCOPED_TRACE("K=" + std::to_string(num_shards));
    for (VectorId i = 0; i < 5; ++i) {
      obs::ScopedTrace trace;
      const uint64_t before = queries->Value();
      index.Query(queries_.Get(i));
      EXPECT_EQ(queries->Value(), before + 1);
      std::vector<std::string_view> names;
      for (const obs::TraceEntry& entry : trace.entries()) {
        names.push_back(entry.name);
      }
      EXPECT_EQ(names, per_query);
    }
  }
}

/// A query's answer and work counters, rebuilt from public calls.
struct Replayed {
  std::vector<Match> matches;
  QueryStats stats;
};

/// Scans shard \p s's postings of \p key as the query driver does:
/// counts them as candidates, skips an id \p seen already holds, counts
/// a size skip or a verification, and hands each passing (id,
/// similarity) to \p on_pass, stopping when it returns true. Returns
/// whether it stopped.
template <typename OnPass>
bool ReplayScan(const ShardedIndex& index, const Dataset& data, int s,
                uint64_t key, std::span<const ItemId> query,
                double threshold, std::set<VectorId>* seen,
                QueryStats* stats, OnPass&& on_pass) {
  const Measure measure = index.family().options().verify_measure;
  const std::span<const VectorId> postings = index.shard_table(s).Lookup(key);
  stats->candidates += postings.size();
  for (VectorId id : postings) {
    if (!seen->insert(id).second) continue;
    const std::span<const ItemId> items = data.Get(id);
    if (items.empty()) continue;
    if (!SizesCanReach(measure, query.size(), items.size(), threshold)) {
      stats->size_skips++;
      continue;
    }
    stats->verifications++;
    const double sim = Similarity(measure, query, items);
    if (sim >= threshold && on_pass(id, sim)) return true;
  }
  return false;
}

/// Query(): per repetition, the family's keys; then each shard, with a
/// seen-set of its own, scans them up to its first pass. The least
/// (key position, id) wins, and the first repetition with a hit ends
/// the query.
Replayed ReplayQuery(const ShardedIndex& index, const Dataset& data,
                     std::span<const ItemId> query) {
  Replayed out;
  if (query.empty()) return out;
  const FilterFamily& family = index.family();
  std::vector<std::set<VectorId>> seen(
      static_cast<size_t>(index.num_shards()));
  std::vector<uint64_t> keys;
  for (int rep = 0; rep < family.repetitions() && out.matches.empty();
       ++rep) {
    keys.clear();
    family.ComputeFilters(query, static_cast<uint32_t>(rep), &keys);
    out.stats.filters += keys.size();
    size_t best_key = 0;
    for (int s = 0; s < index.num_shards(); ++s) {
      for (size_t ki = 0; ki < keys.size(); ++ki) {
        auto keep_least = [&](VectorId id, double sim) {
          if (out.matches.empty() ||
              std::pair(ki, id) < std::pair(best_key, out.matches[0].id)) {
            best_key = ki;
            out.matches = {Match{id, sim}};
          }
          return true;
        };
        if (ReplayScan(index, data, s, keys[ki], query,
                       family.verify_threshold(),
                       &seen[static_cast<size_t>(s)], &out.stats,
                       keep_least)) {
          break;
        }
      }
    }
  }
  for (const auto& ids : seen) out.stats.distinct_candidates += ids.size();
  return out;
}

/// QueryAll(): every key of every repetition, scanned in every shard;
/// the matches sorted by descending similarity, ties by id.
Replayed ReplayQueryAll(const ShardedIndex& index, const Dataset& data,
                        std::span<const ItemId> query, double threshold) {
  Replayed out;
  if (query.empty()) return out;
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  index.family().ComputeAllFilters(query, &keys, &offsets);
  out.stats.filters = keys.size();
  for (int s = 0; s < index.num_shards(); ++s) {
    std::set<VectorId> seen;
    for (uint64_t key : keys) {
      ReplayScan(index, data, s, key, query, threshold, &seen, &out.stats,
                 [&](VectorId id, double sim) {
                   out.matches.push_back({id, sim});
                   return false;
                 });
    }
    out.stats.distinct_candidates += seen.size();
  }
  std::sort(out.matches.begin(), out.matches.end(), test::ByRank);
  return out;
}

// The work counters at K > 1 equal a replay of the shard scan in which
// every shard keeps its own seen-set and scans to its own first pass,
// so the driver's shard scan cannot move them.
TEST_F(ShardedIndexTest, CountersEqualAShardByShardReplay) {
  // Every correlated query hits; halves of stored vectors add misses and
  // candidates whose sizes rule the threshold out.
  Dataset queries = queries_;
  for (VectorId id = 0; id < 20; ++id) {
    const std::span<const ItemId> items = data_.Get(id);
    queries.Add(items.first(items.size() / 2));
  }
  for (int num_shards : {1, 2, 7}) {
    ShardedIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, ShardedOptions(num_shards)).ok());
    const double threshold = index.verify_threshold();
    QueryStats totals;
    size_t hits = 0;
    for (VectorId i = 0; i < queries.size(); ++i) {
      const std::span<const ItemId> query = queries.Get(i);
      const std::string ctx =
          "K=" + std::to_string(num_shards) + " query " + std::to_string(i);
      QueryStats stats;
      const std::optional<Match> got = index.Query(query, &stats);
      const Replayed want = ReplayQuery(index, data_, query);
      test::ExpectSameMatches(
          want.matches,
          got ? std::vector<Match>{*got} : std::vector<Match>{}, ctx);
      test::ExpectSameCounters(want.stats, stats, ctx);
      AddQueryStats(&totals, stats);
      hits += got.has_value();

      QueryStats all_stats;
      const std::vector<Match> all = index.QueryAll(query, threshold,
                                                    &all_stats);
      const Replayed want_all =
          ReplayQueryAll(index, data_, query, threshold);
      test::ExpectSameMatches(want_all.matches, all, ctx + " (all)");
      test::ExpectSameCounters(want_all.stats, all_stats, ctx + " (all)");
      AddQueryStats(&totals, all_stats);
    }
    // The fixture exercises every counter the replay pins.
    EXPECT_GT(hits, 0u);
    EXPECT_LT(hits, queries.size());
    EXPECT_GT(totals.size_skips, 0u);
    EXPECT_GT(totals.verifications, 0u);
  }
}

// At K = 7, BatchQuery on 1 and 3 threads returns each query's Query
// answer and counters, which are the unsharded reference's.
TEST_F(ShardedIndexTest, BatchQueryMatchesUnshardedForAnyThreadCount) {
  test::CheckOracleCells({7}, test::kSerialBuild);
}

// Both adversarial configurations answer as the reference does at K = 1
// and 5.
TEST_F(ShardedIndexTest, AdversarialModeEquivalence) {
  test::CheckOracleCells({1, 5}, test::kSerialBuild, IndexMode::kAdversarial);
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

// The fully validated heap read of a K = 5 file, every posting
// re-checked for placement in the shard its id hashes to, answers as the
// reference does.
TEST_F(ShardedIndexIoTest, SaveLoadRoundTrip) {
  test::CheckOracleCells({5}, test::kHeapRead);
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
