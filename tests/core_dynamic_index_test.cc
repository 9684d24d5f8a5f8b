// DynamicIndex: online inserts/removes on top of the sharded layout —
// fresh-build equivalence with the static index, the shared query
// driver's metrics, insert-then-query recall, remove-then-query
// absence, compaction transparency, Save/Load round-trips including
// tombstone state, Load's rejection of damaged files, the committed SKD2
// golden, and one seeded property row that checks every shard rule
// (CheckInvariants) after each step of a random mutation sequence. The
// equivalence rows check their cells of the differential oracle
// (index_oracle.h): each state answers as the reference does.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/dynamic_index.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "index_oracle.h"
#include "maintenance/service.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

class DynamicIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(31);
    data_ = GenerateDataset(dist_, 250, &rng);
  }

  DynamicIndexOptions Options(int num_shards = 4,
                              double compact_fraction = 0.25) const {
    DynamicIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 10;
    options.index.seed = 515;
    options.num_shards = num_shards;
    options.compact_dead_fraction = compact_fraction;
    return options;
  }

  // Samples `count` non-empty vectors the filter family actually emits
  // paths for (a path-less vector is unfindable by design).
  std::vector<SparseVector> FreshVectors(const DynamicIndex& index,
                                         size_t count, uint64_t seed) {
    std::vector<SparseVector> out;
    Rng rng(seed);
    while (out.size() < count) {
      SparseVector v = dist_.Sample(&rng);
      if (v.span().empty()) continue;
      std::vector<uint64_t> keys;
      for (int rep = 0; rep < index.repetitions(); ++rep) {
        index.family().ComputeFilters(v.span(),
                                      static_cast<uint32_t>(rep), &keys);
      }
      if (!keys.empty()) out.push_back(std::move(v));
    }
    return out;
  }

  ProductDistribution dist_;
  Dataset data_;
};

bool ContainsId(const std::vector<Match>& matches, VectorId id) {
  for (const Match& m : matches) {
    if (m.id == id) return true;
  }
  return false;
}

// A fresh build at K = 1 and 4 answers QueryAll as the unsharded
// reference does, and Query as the static index at the same K, work
// counters included: it has no delta and no tombstones, so the online
// scan visits exactly the static postings in the same order.
TEST_F(DynamicIndexTest, FreshBuildMatchesUnshardedQueryAll) {
  test::CheckOracleCells({1, 4}, test::kSerialBuild | test::kOnlineFresh);
}

TEST_F(DynamicIndexTest, QueryRecordsMetrics) {
  // Every online entry point records the static index's query.*
  // vocabulary, at every shard count.
  const std::vector<std::string_view> per_query = {
      "span.query.filters", "span.query.verify", "query.latency_ns"};
  obs::Counter* const queries =
      obs::MetricsRegistry::Global().GetCounter("query.count");
  auto names_of = [](const obs::ScopedTrace& trace) {
    std::vector<std::string_view> names;
    for (const obs::TraceEntry& entry : trace.entries()) {
      names.push_back(entry.name);
    }
    return names;
  };
  CorrelatedQuerySampler sampler(&dist_, 0.7);
  Rng rng(41);
  Dataset batch;
  for (int t = 0; t < 5; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data_.size()));
    batch.Add(sampler.SampleCorrelated(data_.Get(target), &rng).span());
  }
  for (int num_shards : {1, 4}) {
    SCOPED_TRACE("K=" + std::to_string(num_shards));
    DynamicIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, Options(num_shards)).ok());
    // Delta postings and a tombstone, so the scans cover both.
    for (const SparseVector& v : FreshVectors(index, 5, 42)) {
      ASSERT_TRUE(index.Insert(v.span()).ok());
    }
    ASSERT_TRUE(index.Remove(7).ok());
    DynamicIndex::Snapshot snapshot = index.GetSnapshot();
    for (VectorId i = 0; i < batch.size(); ++i) {
      for (bool pinned : {false, true}) {
        obs::ScopedTrace trace;
        const uint64_t before = queries->Value();
        if (pinned) {
          snapshot.Query(batch.Get(i));
        } else {
          index.Query(batch.Get(i));
        }
        EXPECT_EQ(queries->Value(), before + 1);
        EXPECT_EQ(names_of(trace), per_query);
      }
    }
    {
      obs::ScopedTrace trace;
      const uint64_t before = queries->Value();
      index.BatchQuery(batch);  // serial: every query on this thread
      EXPECT_EQ(queries->Value(), before + batch.size());
      std::vector<std::string_view> expected;
      for (size_t i = 0; i < batch.size(); ++i) {
        expected.insert(expected.end(), per_query.begin(), per_query.end());
      }
      EXPECT_EQ(names_of(trace), expected);
    }
    obs::ScopedTrace trace;
    index.QueryAll(batch.Get(0), 0.0);
    snapshot.QueryAll(batch.Get(0), 0.0);
    EXPECT_EQ(names_of(trace), (std::vector<std::string_view>{
                                   "span.query.all", "span.query.all"}));
  }
}

TEST_F(DynamicIndexTest, InsertThenQueryFindsTheNewVector) {
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options()).ok());

  auto fresh = FreshVectors(index, 40, 33);
  std::vector<VectorId> ids;
  for (const SparseVector& v : fresh) {
    size_t num_filters = 0;
    auto id = index.Insert(v.span(), &num_filters);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_GE(*id, data_.size());
    EXPECT_GT(num_filters, 0u);
    EXPECT_TRUE(index.IsLive(*id));
    ids.push_back(*id);
  }
  EXPECT_EQ(index.size(), data_.size() + fresh.size());

  // An exact-duplicate query shares every filter key with the inserted
  // vector, so it must be surfaced in every repetition: recall 100%.
  for (size_t i = 0; i < fresh.size(); ++i) {
    auto hit = index.Query(fresh[i].span());
    ASSERT_TRUE(hit.has_value()) << "inserted vector " << i << " lost";
    EXPECT_GE(hit->similarity, index.verify_threshold());
    auto all = index.QueryAll(fresh[i].span(), 0.999);
    EXPECT_TRUE(ContainsId(all, ids[i]))
        << "inserted vector " << i << " not in QueryAll";
  }

  // Correlated (non-exact) queries against inserted vectors succeed with
  // the recall the repetition count provisions for.
  CorrelatedQuerySampler sampler(&dist_, 0.8);
  Rng rng(34);
  int found = 0;
  for (size_t i = 0; i < fresh.size(); ++i) {
    SparseVector q = sampler.SampleCorrelated(fresh[i].span(), &rng);
    auto all = index.QueryAll(q.span(), 0.0);
    found += ContainsId(all, ids[i]);
  }
  EXPECT_GE(found, static_cast<int>(fresh.size() * 7 / 10))
      << "correlated recall on inserted vectors: " << found << "/"
      << fresh.size();
}

TEST_F(DynamicIndexTest, RemoveThenQueryNeverReturnsIt) {
  // Compaction disabled so removal is pure tombstoning here.
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(4, 100.0)).ok());
  auto fresh = FreshVectors(index, 10, 35);
  std::vector<VectorId> inserted_ids;
  for (const SparseVector& v : fresh) {
    inserted_ids.push_back(*index.Insert(v.span()));
  }

  std::vector<VectorId> removed = {0, 3, 17, 42, 100, inserted_ids[0],
                                   inserted_ids[5]};
  for (VectorId id : removed) {
    ASSERT_TRUE(index.Remove(id).ok()) << "id " << id;
    EXPECT_FALSE(index.IsLive(id));
    EXPECT_TRUE(index.Remove(id).IsNotFound()) << "double remove " << id;
  }
  EXPECT_EQ(index.num_tombstones(), removed.size());
  EXPECT_EQ(index.size(), data_.size() + fresh.size() - removed.size());

  // Probing with the removed vectors themselves: the strongest possible
  // pull towards the tombstoned id — it must never come back.
  for (VectorId id : removed) {
    auto items = id < data_.size()
                     ? data_.Get(id)
                     : fresh[id == inserted_ids[0] ? 0 : 5].span();
    auto hit = index.Query(items);
    if (hit.has_value()) {
      EXPECT_NE(hit->id, id);
    }
    EXPECT_FALSE(ContainsId(index.QueryAll(items, 0.0), id));
  }
  // Unknown ids are clean errors.
  EXPECT_TRUE(index.Remove(1u << 30).IsNotFound());
}

// With every shard compacted the answers stay the reference's, live and
// after Save+Load; a maintenance pass fires the compaction once removals
// pass the dead-entry trigger, and drops the tombstones it covers.
TEST_F(DynamicIndexTest, CompactionPreservesResultsAndFires) {
  test::CheckOracleCells({2}, test::kOnlineCompacted | test::kSaveLoad);

  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(2, 0.25)).ok());
  MaintenanceService service;
  ASSERT_TRUE(service.Attach(&index).ok());
  for (VectorId id = 0; id < data_.size(); id += 2) {
    ASSERT_TRUE(index.Remove(id).ok());
  }
  const size_t tombstones = index.num_tombstones();
  EXPECT_EQ(index.num_compactions(), 0u);  // Remove() never compacts
  ASSERT_TRUE(service.RunOnce().ok());
  EXPECT_GT(index.num_compactions(), 0u);
  EXPECT_GT(service.stats().compactions, 0u);
  EXPECT_LT(index.num_tombstones(), tombstones);
  EXPECT_EQ(index.size(), data_.size() / 2);
}

// After inserts and removes, BatchQuery on 1 and 3 threads returns each
// query's Query answer and counters, which are the reference's.
TEST_F(DynamicIndexTest, BatchQueryMatchesSerial) {
  test::CheckOracleCells({4}, test::kOnlineMutated);
}

// Query and QueryAll accept items the distribution does not cover (the
// filter kernel never puts them on a path): 20 of the oracle's queries
// carry two, and every match re-verifies against the query.
TEST_F(DynamicIndexTest, QueriesWithItemsOutsideTheUniverseVerify) {
  test::CheckOracleCells({4}, test::kOnlineFresh | test::kOnlineMutated);
}

TEST_F(DynamicIndexTest, InsertValidation) {
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options()).ok());
  EXPECT_TRUE(index.Insert({}).status().IsInvalidArgument());
  std::vector<ItemId> unsorted = {5, 3, 9};
  EXPECT_TRUE(index.Insert(unsorted).status().IsInvalidArgument());
  std::vector<ItemId> out_of_universe = {
      1, static_cast<ItemId>(dist_.dimension())};
  EXPECT_TRUE(index.Insert(out_of_universe).status().IsInvalidArgument());
  DynamicIndex unbuilt;
  std::vector<ItemId> ok_items = {1, 2, 3};
  EXPECT_TRUE(unbuilt.Insert(ok_items).status().IsInvalidArgument());
  EXPECT_TRUE(unbuilt.Remove(0).IsInvalidArgument());
}

class DynamicIndexIoTest : public DynamicIndexTest {
 protected:
  void SetUp() override {
    DynamicIndexTest::SetUp();
    path_ = test::TempPath("dynamic_io", this, ".skidx");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Rewrites the file at path_ with its one occurrence of \p from
  /// replaced by \p to.
  void ReplaceOnce(const std::string& from, const std::string& to) {
    std::string contents = test::FileBytes(path_);
    const size_t at = contents.find(from);
    ASSERT_NE(at, std::string::npos);
    ASSERT_EQ(at, contents.rfind(from)) << "pattern not unique";
    contents.replace(at, from.size(), to);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  std::string path_;
};

/// The bytes of \p values, in order, as Save writes them.
template <typename... T>
std::string Bytes(const T&... values) {
  std::string bytes;
  (bytes.append(reinterpret_cast<const char*>(&values), sizeof(values)), ...);
  return bytes;
}

// Save+Load after inserts and removes keeps the shard count, size,
// liveness, tombstones and answers, and the id space continues: the next
// insert gets the next fresh id and is found.
TEST_F(DynamicIndexIoTest, SaveLoadRoundTripsTombstonesAndInserts) {
  test::CheckOracleCells({3}, test::kOnlineMutated | test::kSaveLoad);
}

TEST_F(DynamicIndexIoTest, LoadRejectsDifferentDatasetAndCorruption) {
  DynamicIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, Options(3)).ok());
  auto fresh = FreshVectors(original, 5, 44);
  for (const SparseVector& v : fresh) {
    ASSERT_TRUE(original.Insert(v.span()).ok());
  }
  ASSERT_TRUE(original.Remove(1).ok());
  ASSERT_TRUE(original.Save(path_).ok());

  Rng rng(45);
  Dataset other = GenerateDataset(dist_, 250, &rng);
  DynamicIndex loaded;
  EXPECT_TRUE(loaded.Load(path_, &other, &dist_).IsInvalidArgument());

  const std::string contents = test::FileBytes(path_);
  for (size_t keep = 0; keep < contents.size();
       keep += 1 + contents.size() / 37) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(keep));
    out.close();
    DynamicIndex truncated;
    EXPECT_FALSE(truncated.Load(path_, &data_, &dist_).ok())
        << "prefix of " << keep << " bytes";
  }

  // A base table whose next-to-last offset points past its ids. The
  // monotone check must see the last pair and reject the table before
  // Load walks its posting lists. The static index over the same data
  // and options freezes the same base tables, so the streamed bytes of
  // its shard 0 locate that table in the file.
  ShardedIndex reference;
  ASSERT_TRUE(reference.Build(&data_, &dist_, {Options().index, 3}).ok());
  const FilterTable& table = reference.shard_table(0);
  ASSERT_GE(table.num_keys(), 2u);
  std::stringstream streamed;
  ASSERT_TRUE(table.WriteTo(&streamed).ok());
  const size_t at = contents.find(streamed.str());
  ASSERT_NE(at, std::string::npos);
  // keys: u64 count + K u64; offsets: u64 count + (K + 1) u32.
  const size_t keys = table.num_keys();
  const size_t patch = at + 8 + keys * 8 + 8 + (keys - 1) * 4;
  const uint32_t overrun = static_cast<uint32_t>(table.num_pairs() + 4);
  std::string overrun_file = contents;
  std::memcpy(overrun_file.data() + patch, &overrun, sizeof(overrun));
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(overrun_file.data(),
            static_cast<std::streamsize>(overrun_file.size()));
  out.close();
  DynamicIndex overrun_load;
  Status s = overrun_load.Load(path_, &data_, &dist_);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("offsets"), std::string::npos) << s.ToString();
}

TEST_F(DynamicIndexIoTest, LoadRejectsRemovedBaseBlockContradictingPostings) {
  // Base id `gone` is removed; `live` shares its shard and is posted.
  const int shards = 2;
  DynamicIndex probe;
  ASSERT_TRUE(probe.Build(&data_, &dist_, Options(shards)).ok());
  const VectorId gone = 101;
  VectorId live = gone + 1;
  while (live < data_.size() &&
         (ShardedIndex::ShardOf(live, shards) !=
              ShardedIndex::ShardOf(gone, shards) ||
          !ContainsId(probe.QueryAll(data_.Get(live), 0.999), live))) {
    ++live;
  }
  ASSERT_LT(live, data_.size());

  // Saves the index after removing `gone` (then compacting its shard,
  // which drops its postings and its tombstone, when asked), and
  // rewrites the shard's removed-base block — u64 count 1, the u32 id,
  // then the inserted block's u64 count 0 — to list `live` instead, or
  // (with `drop`) nothing.
  auto patched_file = [&](bool compact, bool drop = false) {
    DynamicIndex index;
    EXPECT_TRUE(index.Build(&data_, &dist_, Options(shards)).ok());
    EXPECT_TRUE(index.Remove(gone).ok());
    if (compact) {
      EXPECT_TRUE(
          index.CompactShard(ShardedIndex::ShardOf(gone, shards)).ok());
    }
    EXPECT_TRUE(index.Save(path_).ok());
    DynamicIndex unpatched;
    EXPECT_TRUE(unpatched.Load(path_, &data_, &dist_).ok());
    ReplaceOnce(Bytes(uint64_t{1}, gone, uint64_t{0}),
                drop ? Bytes(uint64_t{0}, uint64_t{0})
                     : Bytes(uint64_t{1}, live, uint64_t{0}));
  };

  // Compacted: `live` would be listed removed yet still be served, and
  // `gone` would come back.
  patched_file(/*compact=*/true);
  DynamicIndex phantom;
  Status s = phantom.Load(path_, &data_, &dist_);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // Still tombstoned: `gone` could be removed, and its entries charged
  // dead, a second time — whether `live` takes its place or not.
  for (bool drop : {false, true}) {
    patched_file(/*compact=*/false, drop);
    DynamicIndex double_charge;
    s = double_charge.Load(path_, &data_, &dist_);
    EXPECT_TRUE(s.IsInvalidArgument()) << "drop " << drop << ": "
                                       << s.ToString();
  }
}

TEST_F(DynamicIndexIoTest, SaveLoadSaveIsByteIdentical) {
  // Every registry populated, after one compaction and one drift
  // rebuild: delta postings, tombstones, removed base ids (some of them
  // compacted away) and inserted vectors.
  const int shards = 3;
  DynamicIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, Options(shards, 100.0)).ok());
  auto fresh = FreshVectors(original, 40, 47);
  std::vector<VectorId> ids;
  for (size_t i = 0; i < 20; ++i) {
    ids.push_back(*original.Insert(fresh[i].span()));
  }
  for (VectorId id : {VectorId{3}, VectorId{9}, VectorId{60}, ids[2]}) {
    ASSERT_TRUE(original.Remove(id).ok());
  }
  ASSERT_TRUE(original.CompactShard(ShardedIndex::ShardOf(3, shards)).ok());
  ASSERT_TRUE(original.RebuildForSize(3 * original.size()).ok());
  for (size_t i = 20; i < fresh.size(); ++i) {
    ids.push_back(*original.Insert(fresh[i].span()));
  }
  for (VectorId id : {VectorId{4}, VectorId{70}, ids[8], ids[25]}) {
    ASSERT_TRUE(original.Remove(id).ok());
  }
  ASSERT_EQ(original.num_compactions(), 1u);
  ASSERT_EQ(original.num_rebuilds(), 1u);
  ASSERT_GT(original.Profile().delta_entries, 0u);
  ASSERT_EQ(original.num_tombstones(), 4u);
  ASSERT_TRUE(original.Save(path_).ok());

  DynamicIndex loaded;
  ASSERT_TRUE(loaded.Load(path_, &data_, &dist_).ok());
  const std::string resaved = path_ + ".resaved";
  ASSERT_TRUE(loaded.Save(resaved).ok());
  const std::string first = test::FileBytes(path_);
  const std::string second = test::FileBytes(resaved);
  std::remove(resaved.c_str());
  EXPECT_TRUE(first == second)
      << first.size() << " bytes saved, " << second.size() << " re-saved";
}

TEST_F(DynamicIndexIoTest, LoadRejectsRepeatedInsertedId) {
  ProductDistribution dist = ZipfProbabilities(400, 1.0, 0.5).value();
  Rng rng(7);
  Dataset data = GenerateDataset(dist, 300, &rng);
  DynamicIndexOptions options = Options(/*num_shards=*/1);
  options.index.alpha = 0.8;
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data, &dist, options).ok());
  std::vector<SparseVector> fresh;
  while (fresh.size() < 2) {
    SparseVector v = dist.Sample(&rng);
    if (!v.span().empty()) fresh.push_back(std::move(v));
  }
  for (const SparseVector& v : fresh) ASSERT_TRUE(index.Insert(v.span()).ok());
  ASSERT_TRUE(index.Save(path_).ok());

  // The one shard ends with its inserted block, ids ascending, then the
  // u64 live and dead entry counts. Give the second record (u32 id,
  // u64 count, items) the first record's id.
  std::string contents = test::FileBytes(path_);
  const size_t at =
      contents.size() - 16 - fresh[1].span().size() * sizeof(ItemId) - 8 -
      sizeof(VectorId);
  VectorId id = 0;
  std::memcpy(&id, contents.data() + at, sizeof(id));
  ASSERT_EQ(id, 301u);
  id = 300;
  std::memcpy(contents.data() + at, &id, sizeof(id));
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();

  DynamicIndex repeated;
  Status s = repeated.Load(path_, &data, &dist);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("duplicate inserted id"), std::string::npos)
      << s.ToString();
}

TEST_F(DynamicIndexIoTest, LoadRejectsOrphanDeltaPostings) {
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(/*num_shards=*/1)).ok());
  const auto fresh = FreshVectors(index, 2, 48);
  for (const SparseVector& v : fresh) ASSERT_TRUE(index.Insert(v.span()).ok());
  ASSERT_TRUE(index.Save(path_).ok());

  // The one shard ends with its inserted block (u64 count, then per
  // record a u32 id, a u64 item count and the items) and the u64 live
  // and dead entry counts. Cut the second record and count one: its
  // delta postings then name an id neither inserted nor tombstoned.
  std::string contents = test::FileBytes(path_);
  auto record_bytes = [](const SparseVector& v) {
    return sizeof(VectorId) + 8 + v.span().size() * sizeof(ItemId);
  };
  const size_t second = contents.size() - 16 - record_bytes(fresh[1]);
  const size_t count_at = second - record_bytes(fresh[0]) - 8;
  uint64_t count = 0;
  std::memcpy(&count, contents.data() + count_at, sizeof(count));
  ASSERT_EQ(count, 2u);
  count = 1;
  std::memcpy(contents.data() + count_at, &count, sizeof(count));
  contents.erase(second, record_bytes(fresh[1]));
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.close();

  DynamicIndex orphaned;
  Status s = orphaned.Load(path_, &data_, &dist_);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("neither inserted nor tombstoned"),
            std::string::npos)
      << s.ToString();
}

TEST_F(DynamicIndexIoTest, LoadRejectsRepeatedRemovedBaseId) {
  // Save lists a removed base id once. A block that lists it twice is
  // rejected as a repeat, like one in the other three registry blocks.
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(/*num_shards=*/1)).ok());
  const VectorId gone = 101;
  ASSERT_TRUE(index.Remove(gone).ok());
  ASSERT_TRUE(index.Save(path_).ok());
  // The removed-base block (u64 count, u32 ids), then the inserted
  // block's u64 count 0.
  ReplaceOnce(Bytes(uint64_t{1}, gone, uint64_t{0}),
              Bytes(uint64_t{2}, gone, gone, uint64_t{0}));

  DynamicIndex repeated;
  Status s = repeated.Load(path_, &data_, &dist_);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("duplicate removed-base id"), std::string::npos)
      << s.ToString();
}

TEST_F(DynamicIndexIoTest, LoadRejectsSwappedTombstoneEntryCounts) {
  // Two removed base ids with different entry counts. Swapping the
  // counts keeps their sum, and so the shard's dead entries; only the
  // per-id rule sees that each count belongs to the other id.
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(/*num_shards=*/1)).ok());
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  auto entries = [&](VectorId id) {
    index.family().ComputeAllFilters(data_.Get(id), &keys, &offsets);
    return static_cast<uint32_t>(keys.size());
  };
  const VectorId a = 20;
  VectorId b = a + 1;
  while (entries(b) == entries(a)) ++b;
  const uint32_t a_entries = entries(a), b_entries = entries(b);
  ASSERT_TRUE(index.Remove(a).ok());
  ASSERT_TRUE(index.Remove(b).ok());
  ASSERT_TRUE(index.Save(path_).ok());
  // The tombstone block: u64 count, then (u32 id, u32 entries) pairs.
  ReplaceOnce(Bytes(uint64_t{2}, a, a_entries, b, b_entries),
              Bytes(uint64_t{2}, a, b_entries, b, a_entries));

  DynamicIndex swapped;
  Status s = swapped.Load(path_, &data_, &dist_);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("tombstone entry count"), std::string::npos)
      << s.ToString();
}

TEST_F(DynamicIndexIoTest, GoldenFileRoundTripsByteForByte) {
  // A fixed three-shard index after inserts and removes on both sides of
  // one compaction and one drift rebuild, so every shard saves all four
  // registry blocks non-empty. tests/golden/online_v2.skd pins its
  // bytes; a mismatch means SKD2 changed.
  const int shards = 3;
  Rng rng(2026);
  const Dataset data = GenerateDataset(dist_, 120, &rng);
  DynamicIndexOptions options = Options(shards, 100.0);
  options.index.repetitions = 6;
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data, &dist_, options).ok());
  auto first_in = [&](int s, VectorId from) {
    while (ShardedIndex::ShardOf(from, shards) != s) ++from;
    return from;
  };
  const std::vector<SparseVector> fresh = FreshVectors(index, 24, 2027);
  std::vector<VectorId> ids;
  for (size_t i = 0; i < 12; ++i) ids.push_back(*index.Insert(fresh[i].span()));
  for (int s = 0; s < shards; ++s) {
    ASSERT_TRUE(index.Remove(first_in(s, 10)).ok());
  }
  ASSERT_TRUE(index.Remove(ids[3]).ok());
  ASSERT_TRUE(index.CompactShard(ShardedIndex::ShardOf(ids[3], shards)).ok());
  ASSERT_TRUE(index.RebuildForSize(2 * index.size()).ok());
  for (size_t i = 12; i < fresh.size(); ++i) {
    ids.push_back(*index.Insert(fresh[i].span()));
  }
  for (int s = 0; s < shards; ++s) {
    ASSERT_TRUE(index.Remove(first_in(s, 60)).ok());
    ASSERT_TRUE(index.Remove(first_in(s, ids[12])).ok());
  }
  for (int s = 0; s < shards; ++s) {
    EXPECT_GT(index.Health(s).delta_entries, 0u) << "shard " << s;
    EXPECT_EQ(index.Health(s).tombstones, 2u) << "shard " << s;
  }
  ASSERT_TRUE(index.Save(path_).ok());
  test::CheckGolden(path_, "online_v2.skd");

  // The committed file loads, keeps every shard rule, and saves back to
  // its own bytes.
  const std::string golden = test::GoldenPath("online_v2.skd");
  DynamicIndex loaded;
  ASSERT_TRUE(loaded.Load(golden, &data, &dist_).ok());
  const Status checked = loaded.CheckInvariants();
  EXPECT_TRUE(checked.ok()) << checked.ToString();
  ASSERT_TRUE(loaded.Save(path_).ok());
  EXPECT_TRUE(test::FileBytes(path_) == test::FileBytes(golden));
}

TEST_F(DynamicIndexIoTest, SingleByteEditsAreRejectedOrKeepEveryShardRule) {
  // SKD2 carries no checksum (docs/FILE_FORMATS.md), so a file with one
  // byte changed may load. Seeded single-byte edits of the golden file,
  // each an inversion or a low-bit flip at a random offset, must each
  // be rejected or load a state that keeps every shard rule, and both
  // outcomes must occur.
  Rng data_rng(2026);
  const Dataset data = GenerateDataset(dist_, 120, &data_rng);
  const std::string golden =
      test::FileBytes(test::GoldenPath("online_v2.skd"));
  Rng rng(2628);
  size_t rejected = 0;
  size_t loaded = 0;
  for (int edit = 0; edit < 400; ++edit) {
    std::string bytes = golden;
    const size_t at = static_cast<size_t>(rng.NextBounded(bytes.size()));
    bytes[at] = static_cast<char>(edit % 2 == 0 ? ~bytes[at] : bytes[at] ^ 1);
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    DynamicIndex index;
    if (!index.Load(path_, &data, &dist_).ok()) {
      rejected++;
      continue;
    }
    loaded++;
    const Status checked = index.CheckInvariants();
    EXPECT_TRUE(checked.ok()) << "edit " << edit << " at byte " << at << ": "
                              << checked.ToString();
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(loaded, 0u);
}

TEST_F(DynamicIndexIoTest, RandomMutationsKeepEveryShardRule) {
  // One seeded sequence per shard count of inserts, removes, shard
  // compactions, drift rebuilds and Save + Load round trips, with every
  // shard rule checked after each step. Each loaded file is saved again
  // and must give back its own bytes.
  constexpr int kSteps = 1000;
  const std::string resaved = path_ + ".resaved";
  for (int shards : {1, 3}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    auto index = std::make_unique<DynamicIndex>();
    ASSERT_TRUE(index->Build(&data_, &dist_, Options(shards, 100.0)).ok());
    std::vector<VectorId> live(data_.size());
    std::iota(live.begin(), live.end(), VectorId{0});
    Rng rng(2600 + static_cast<uint64_t>(shards));
    for (int step = 0; step < kSteps; ++step) {
      const uint64_t op = rng.NextBounded(100);
      if (op < 45) {
        SparseVector v = dist_.Sample(&rng);
        while (v.span().empty()) v = dist_.Sample(&rng);
        Result<VectorId> id = index->Insert(v.span());
        ASSERT_TRUE(id.ok()) << id.status().ToString();
        live.push_back(*id);
      } else if (op < 85) {
        const size_t at = static_cast<size_t>(rng.NextBounded(live.size()));
        ASSERT_TRUE(index->Remove(live[at]).ok());
        live[at] = live.back();
        live.pop_back();
      } else if (op < 94) {
        const int s = static_cast<int>(rng.NextBounded(shards));
        ASSERT_TRUE(index->CompactShard(s).ok());
      } else if (op < 97) {
        const size_t n = index->size();
        const size_t target = std::max<size_t>(2, n / 2 + rng.NextBounded(n));
        ASSERT_TRUE(index->RebuildForSize(target).ok());
      } else {
        ASSERT_TRUE(index->Save(path_).ok());
        auto loaded = std::make_unique<DynamicIndex>();
        ASSERT_TRUE(loaded->Load(path_, &data_, &dist_).ok());
        ASSERT_TRUE(loaded->Save(resaved).ok());
        ASSERT_TRUE(test::FileBytes(path_) == test::FileBytes(resaved))
            << "step " << step;
        index = std::move(loaded);
      }
      const Status checked = index->CheckInvariants();
      ASSERT_TRUE(checked.ok()) << "step " << step << ": " << checked.message();
    }
  }
  std::remove(resaved.c_str());
}

}  // namespace
}  // namespace skewsearch
