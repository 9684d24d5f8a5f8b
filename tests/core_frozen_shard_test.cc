// The SKF2 frozen-shard path: a mapped index (MapFrozen), a fully
// verified mapping and a heap read of the same file (force_heap) answer
// every query as the reference does, across dataset shapes, seeds, one
// shard and several (their cells of the differential oracle,
// index_oracle.h); API errors; and committed build -> freeze -> map
// round-trip goldens that pin the format bytes.
// Regenerate goldens with SKEWSEARCH_REGEN_GOLDEN=1 after a deliberate
// format change (and update docs/FILE_FORMATS.md accordingly).

#include "core/frozen_shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/sharded_index.h"
#include "data/generators.h"
#include "index_oracle.h"
#include "reference_index.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

ShardedIndexOptions Options(uint64_t seed, int num_shards = 1) {
  ShardedIndexOptions options;
  options.index.mode = IndexMode::kCorrelated;
  options.index.alpha = 0.7;
  options.index.repetitions = 6;
  options.index.seed = seed * 1000003 + 17;
  options.num_shards = num_shards;
  return options;
}

/// Full validation (payload checksums + shard placement) of a mapping.
FrozenMapOptions Verified() {
  FrozenMapOptions options;
  options.verify_payload = true;
  return options;
}

class FrozenShardTest : public ::testing::Test {
 protected:
  std::string Tmp(const std::string& suffix) {
    return test::TempPath("frozen_shard", this, suffix);
  }
  void TearDown() override {
    for (const std::string& path : cleanup_) std::remove(path.c_str());
  }
  std::string Track(std::string path) {
    cleanup_.push_back(path);
    return path;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(FrozenShardTest, ApiErrors) {
  auto dist = TwoBlockProbabilities(80, 0.25, 3000, 0.01).value();
  Rng rng(2);
  Dataset data = GenerateDataset(dist, 120, &rng);

  ShardedIndex unbuilt;
  EXPECT_TRUE(unbuilt.Freeze(Tmp(".skf")).IsInvalidArgument());

  ShardedIndex built;
  ASSERT_TRUE(built.Build(&data, &dist, Options(2)).ok());
  std::string frozen = Track(Tmp(".skf"));
  ASSERT_TRUE(built.Freeze(frozen).ok());

  // Wrong dataset: rejected by the fingerprint before any view exists.
  Rng other_rng(3);
  Dataset other = GenerateDataset(dist, 120, &other_rng);
  ShardedIndex mapped;
  EXPECT_TRUE(mapped.MapFrozen(frozen, &other, &dist).IsInvalidArgument());
  EXPECT_FALSE(mapped.built());

  // The shard count always comes from the file.
  ShardedIndex sharded;
  ASSERT_TRUE(sharded.Build(&data, &dist, Options(2, 2)).ok());
  std::string sharded_frozen = Track(Tmp("_sharded.skf"));
  ASSERT_TRUE(sharded.Freeze(sharded_frozen).ok());
  ASSERT_TRUE(mapped.MapFrozen(sharded_frozen, &data, &dist).ok());
  EXPECT_EQ(mapped.num_shards(), 2);

  EXPECT_TRUE(
      mapped.MapFrozen(Tmp("_missing.skf"), &data, &dist).IsIOError());
}

// ---------------------------------------------------------------------
// The mapped view and the heap read of a one-shard file, on TwoBlock and
// Zipf data at two seeds: the view holds no posting heap of its own.
TEST_F(FrozenShardTest, MapMatchesHeapLoadAcrossShapesAndSeeds) {
  for (uint64_t seed : {7u, 21u}) {
    for (test::OracleConfig config : test::kOracleConfigs) {
      config.index.seed = seed;
      test::IndexOracle(config).Check(1, test::kMapped | test::kHeapRead);
    }
  }
}

// The same at three shards, with the fully verified mapping too.
TEST_F(FrozenShardTest, ShardedMapMatchesHeapLoad) {
  for (uint64_t seed : {3u, 13u}) {
    for (test::OracleConfig config : test::kOracleConfigs) {
      if (config.zipf) continue;
      config.index.seed = seed;
      test::IndexOracle(config).Check(
          3, test::kMapped | test::kVerifiedMap | test::kHeapRead);
    }
  }
}

// A forced heap read reports mapped() == false and answers alike.
TEST_F(FrozenShardTest, HeapFallbackServesIdenticalResults) {
  test::CheckOracleCells({1}, test::kHeapRead);
}

// Views are immutable shared state: BatchQuery on 1 and 3 threads over a
// mapping returns each query's Query answer and counters.
TEST_F(FrozenShardTest, BatchQueriesMatchAcrossThreadCounts) {
  test::CheckOracleCells({1, 3}, test::kMapped);
}

// Round-trip goldens: the exact bytes of a freeze of a fixed build are
// pinned under tests/golden/. A mismatch means the SKF2 format changed;
// that must be deliberate (bump the format notes in FILE_FORMATS.md and
// regenerate with SKEWSEARCH_REGEN_GOLDEN=1).

class FrozenGoldenTest : public FrozenShardTest {
 protected:
  /// The fixed build every golden derives from: deterministic dataset,
  /// deterministic options.
  void MakeFixedInstance(Dataset* data, ProductDistribution* dist) {
    *dist = TwoBlockProbabilities(90, 0.2, 2500, 0.01).value();
    Rng rng(12345);
    *data = GenerateDataset(*dist, 140, &rng);
  }
};

TEST_F(FrozenGoldenTest, SingleShardRoundTrip) {
  Dataset data;
  ProductDistribution dist;
  MakeFixedInstance(&data, &dist);
  ShardedIndex built;
  ASSERT_TRUE(built.Build(&data, &dist, Options(777)).ok());
  std::string frozen = Track(Tmp(".skf"));
  ASSERT_TRUE(built.Freeze(frozen).ok());
  test::CheckGolden(frozen, "frozen_single_v2.skf");

  // The committed golden itself must map and serve the same answers as
  // the fresh build (build -> freeze -> map round trip).
  ShardedIndex mapped;
  ASSERT_TRUE(
      mapped.MapFrozen(test::GoldenPath("frozen_single_v2.skf"), &data, &dist)
          .ok());
  test::ExpectSameMatches(built.BatchQuery(data), mapped.BatchQuery(data));
}

TEST_F(FrozenGoldenTest, ShardedRoundTrip) {
  Dataset data;
  ProductDistribution dist;
  MakeFixedInstance(&data, &dist);
  ShardedIndex built;
  ASSERT_TRUE(built.Build(&data, &dist, Options(777, 3)).ok());
  std::string frozen = Track(Tmp(".skf"));
  ASSERT_TRUE(built.Freeze(frozen).ok());
  test::CheckGolden(frozen, "frozen_sharded_v2.skf");

  ShardedIndex mapped;
  ASSERT_TRUE(mapped
                  .MapFrozen(test::GoldenPath("frozen_sharded_v2.skf"), &data,
                             &dist, Verified())
                  .ok());
  test::ExpectSameMatches(built.BatchQuery(data), mapped.BatchQuery(data));
}

}  // namespace
}  // namespace skewsearch
