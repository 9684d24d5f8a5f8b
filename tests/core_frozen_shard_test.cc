// Differential identity suite for the SKF2 frozen-shard path: a mapped
// index (MapFrozen) must answer every query byte-identically to the heap
// index it was frozen from (and to a heap read of the same file,
// FrozenMapOptions::force_heap), across dataset shapes, seeds, one shard
// and several — plus committed build -> freeze -> map round-trip goldens
// that pin the format bytes.
// Regenerate goldens with SKEWSEARCH_REGEN_GOLDEN=1 after a deliberate
// format change (and update docs/FILE_FORMATS.md accordingly).

#include "core/frozen_shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/sharded_index.h"
#include "data/generators.h"
#include "data/mann_profiles.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

struct Shape {
  const char* name;
  ProductDistribution dist;
  size_t n;
};

std::vector<Shape> AllShapes() {
  std::vector<Shape> shapes;
  shapes.push_back(
      {"Zipf", ZipfProbabilities(4000, 0.8, 0.4).value(), 200});
  shapes.push_back(
      {"TwoBlock", TwoBlockProbabilities(150, 0.25, 6000, 0.005).value(),
       200});
  return shapes;
}

/// A small Mann-style stand-in (piecewise-Zipf head/tail), sized for
/// test speed rather than fidelity.
Shape MannShape(uint64_t seed) {
  MannProfileSpec spec;
  spec.name = "TEST";
  spec.n = 180;
  spec.d = 1500;
  spec.avg_size = 10.0;
  spec.zipf_exponent = 0.9;
  spec.head_fraction = 0.15;
  spec.head_exponent = 0.4;
  spec.topic_strength = 0.0;
  spec.topic_size = 0;
  spec.heavy_tail = 0.0;
  Rng rng(seed);
  MannInstance inst = BuildMannInstance(spec, &rng).value();
  return {"Mann", std::move(inst.distribution), inst.data.size()};
}

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

/// The fully validated heap read of a frozen file.
FrozenMapOptions HeapRead() {
  FrozenMapOptions options = Verified();
  options.force_heap = true;
  return options;
}

/// Exhaustive self-join sweep through QueryAll: the canonical pair list
/// the heap and mapped indexes must agree on byte-for-byte.
std::vector<std::pair<VectorId, Match>> JoinSweep(const Dataset& data,
                                                  const ShardedIndex& a) {
  std::vector<std::pair<VectorId, Match>> pairs;
  for (VectorId id = 0; id < data.size(); ++id) {
    for (const Match& m :
         a.QueryAll(data.Get(id), a.verify_threshold())) {
      if (m.id != id) pairs.emplace_back(id, m);
    }
  }
  return pairs;
}

void ExpectIdenticalQueries(const Dataset& data, const ShardedIndex& heap,
                            const ShardedIndex& mapped) {
  size_t hits = 0;
  for (VectorId id = 0; id < data.size(); ++id) {
    auto query = data.Get(id);
    auto a = heap.Query(query);
    auto b = mapped.Query(query);
    ASSERT_EQ(a.has_value(), b.has_value()) << "query " << id;
    if (a) {
      EXPECT_EQ(a->id, b->id) << "query " << id;
      EXPECT_EQ(a->similarity, b->similarity) << "query " << id;
      ++hits;
    }
    EXPECT_EQ(heap.QueryAll(query, heap.verify_threshold()),
              mapped.QueryAll(query, mapped.verify_threshold()))
        << "query " << id;
  }
  // Self-queries must find themselves, so the comparison is never
  // vacuous.
  EXPECT_GT(hits, 0u);
  EXPECT_EQ(JoinSweep(data, heap), JoinSweep(data, mapped));
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

TEST_F(FrozenShardTest, MapMatchesHeapLoadAcrossShapesAndSeeds) {
  for (uint64_t seed : {7u, 21u}) {
    std::vector<Shape> shapes = AllShapes();
    shapes.push_back(MannShape(seed));
    for (Shape& shape : shapes) {
      SCOPED_TRACE(std::string(shape.name) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      Dataset data = GenerateDataset(shape.dist, shape.n, &rng);

      ShardedIndex built;
      ASSERT_TRUE(built.Build(&data, &shape.dist, Options(seed)).ok());
      std::string frozen = Track(Tmp(".skf"));
      ASSERT_TRUE(built.Freeze(frozen).ok());

      ShardedIndex heap;
      ASSERT_TRUE(heap.MapFrozen(frozen, &data, &shape.dist, HeapRead()).ok());
      ShardedIndex mapped;
      ASSERT_TRUE(mapped.MapFrozen(frozen, &data, &shape.dist).ok());
      ASSERT_TRUE(mapped.built());
      ASSERT_NE(mapped.frozen_file(), nullptr);
      // The view holds no posting heap of its own.
      EXPECT_EQ(mapped.shard_table(0).MemoryBytes(), 0u);
      EXPECT_LT(mapped.MemoryBytes(), built.MemoryBytes() / 4 + 1024);

      ExpectIdenticalQueries(data, heap, mapped);
      ExpectIdenticalQueries(data, built, mapped);
    }
  }
}

TEST_F(FrozenShardTest, ShardedMapMatchesHeapLoad) {
  for (uint64_t seed : {3u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto dist = TwoBlockProbabilities(120, 0.22, 5000, 0.006).value();
    Rng rng(seed);
    Dataset data = GenerateDataset(dist, 220, &rng);

    ShardedIndex built;
    ASSERT_TRUE(built.Build(&data, &dist, Options(seed, 3)).ok());
    std::string frozen = Track(Tmp(".skf"));
    ASSERT_TRUE(built.Freeze(frozen).ok());

    ShardedIndex heap;
    ASSERT_TRUE(heap.MapFrozen(frozen, &data, &dist, HeapRead()).ok());
    ShardedIndex mapped;
    ASSERT_TRUE(mapped.MapFrozen(frozen, &data, &dist).ok());
    ASSERT_EQ(mapped.num_shards(), 3);
    ASSERT_NE(mapped.frozen_file(), nullptr);

    ExpectIdenticalQueries(data, heap, mapped);
    ExpectIdenticalQueries(data, built, mapped);

    // The full-validation map (payload checksums + shard placement) must
    // accept a well-formed file and serve the same results.
    ShardedIndex verified;
    ASSERT_TRUE(verified.MapFrozen(frozen, &data, &dist, Verified()).ok());
    ExpectIdenticalQueries(data, heap, verified);
  }
}

TEST_F(FrozenShardTest, HeapFallbackServesIdenticalResults) {
  auto dist = TwoBlockProbabilities(100, 0.25, 4000, 0.008).value();
  Rng rng(5);
  Dataset data = GenerateDataset(dist, 180, &rng);
  ShardedIndex built;
  ASSERT_TRUE(built.Build(&data, &dist, Options(5)).ok());
  std::string frozen = Track(Tmp(".skf"));
  ASSERT_TRUE(built.Freeze(frozen).ok());

  ShardedIndex mapped;
  ASSERT_TRUE(mapped.MapFrozen(frozen, &data, &dist, HeapRead()).ok());
  ASSERT_NE(mapped.frozen_file(), nullptr);
  EXPECT_FALSE(mapped.frozen_file()->mapped());
  ExpectIdenticalQueries(data, built, mapped);
}

TEST_F(FrozenShardTest, BatchQueriesMatchAcrossThreadCounts) {
  auto dist = TwoBlockProbabilities(100, 0.25, 4000, 0.008).value();
  Rng rng(9);
  Dataset data = GenerateDataset(dist, 180, &rng);
  ShardedIndex built;
  ASSERT_TRUE(built.Build(&data, &dist, Options(9)).ok());
  std::string frozen = Track(Tmp(".skf"));
  ASSERT_TRUE(built.Freeze(frozen).ok());
  ShardedIndex mapped;
  ASSERT_TRUE(mapped.MapFrozen(frozen, &data, &dist).ok());

  auto serial = built.BatchQuery(data, 0);
  // Views are immutable shared state; concurrent probes must agree with
  // the serial heap answers exactly.
  auto parallel = mapped.BatchQuery(data, 3);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i].has_value(), parallel[i].has_value()) << i;
    if (serial[i]) {
      EXPECT_EQ(serial[i]->id, parallel[i]->id) << i;
      EXPECT_EQ(serial[i]->similarity, parallel[i]->similarity) << i;
    }
  }
}

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
  ExpectIdenticalQueries(data, built, mapped);
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
  ExpectIdenticalQueries(data, built, mapped);
}

}  // namespace
}  // namespace skewsearch
