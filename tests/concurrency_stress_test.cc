// Concurrency stress: hammer one DynamicIndex (the online sharded index)
// with mixed reader / inserter / remover threads and assert linearizable
// visibility — no lost results (anything fully inserted before a query
// started is findable; stable base vectors never disappear) and no
// phantoms (anything fully removed before a query started is never
// returned). Designed to run under TSan (-DSKEWSEARCH_SANITIZE=thread).
//
// Publication protocol used by the assertions: each writer thread
// performs its mutations in a fixed order and publishes progress through
// an atomic counter with release semantics after each completed call;
// readers acquire the counter *before* issuing a query, so everything at
// indices below the snapshot is a completed-before mutation the query
// must respect.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/dynamic_index.h"
#include "data/generators.h"
#include "maintenance/service.h"
#include "util/random.h"

namespace skewsearch {
namespace {

constexpr size_t kBaseSize = 400;
constexpr size_t kNumInserts = 200;
constexpr size_t kNumRemoves = 120;  // base ids [0, kNumRemoves)
constexpr int kNumReaders = 3;

class ConcurrencyStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(61);
    data_ = GenerateDataset(dist_, kBaseSize, &rng);

    DynamicIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 6;
    options.index.seed = 616;
    options.num_shards = 4;
    options.compact_dead_fraction = 0.25;
    ASSERT_TRUE(index_.Build(&data_, &dist_, options).ok());

    // Stable probes: base vectors that are never removed and whose
    // exact-duplicate query finds a match on the quiesced index (a
    // vector the family emits no paths for is legitimately unfindable).
    for (VectorId id = kNumRemoves; id < kBaseSize; ++id) {
      if (index_.Query(data_.Get(id)).has_value()) {
        stable_probes_.push_back(id);
      }
    }
    ASSERT_GT(stable_probes_.size(), kBaseSize / 2);

    ExpectShardRules();

    // Insert stream: non-empty vectors with at least one filter path.
    Rng vrng(62);
    while (insert_stream_.size() < kNumInserts) {
      SparseVector v = dist_.Sample(&vrng);
      if (v.span().empty()) continue;
      std::vector<uint64_t> keys;
      for (int rep = 0; rep < index_.repetitions(); ++rep) {
        index_.family().ComputeFilters(v.span(),
                                       static_cast<uint32_t>(rep), &keys);
      }
      if (!keys.empty()) insert_stream_.push_back(std::move(v));
    }
  }

  /// Every shard rule holds; called at each quiescent point.
  void ExpectShardRules() {
    const Status checked = index_.CheckInvariants();
    EXPECT_TRUE(checked.ok()) << checked.ToString();
  }

  ProductDistribution dist_;
  Dataset data_;
  DynamicIndex index_;
  std::vector<VectorId> stable_probes_;
  std::vector<SparseVector> insert_stream_;
};

TEST_F(ConcurrencyStressTest, MixedReadersAndWritersNoLostNoPhantom) {
  std::atomic<size_t> inserted_upto{0};
  std::atomic<size_t> removed_upto{0};
  std::atomic<bool> writers_done{false};
  std::atomic<int> violations{0};
  std::vector<VectorId> inserted_ids(kNumInserts, 0);

  // removed_rank[id] = position of base id `id` in the removal stream,
  // SIZE_MAX when it is never removed (read-only during the run).
  std::vector<size_t> removed_rank(kBaseSize, static_cast<size_t>(-1));
  for (size_t k = 0; k < kNumRemoves; ++k) removed_rank[k] = k;

  std::thread inserter([&] {
    for (size_t i = 0; i < kNumInserts; ++i) {
      auto id = index_.Insert(insert_stream_[i].span());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      inserted_ids[i] = *id;
      inserted_upto.store(i + 1, std::memory_order_release);
    }
  });
  std::thread remover([&] {
    for (size_t k = 0; k < kNumRemoves; ++k) {
      Status s = index_.Remove(static_cast<VectorId>(k));
      ASSERT_TRUE(s.ok()) << "remove " << k << ": " << s.ToString();
      removed_upto.store(k + 1, std::memory_order_release);
    }
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < kNumReaders; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(700 + static_cast<uint64_t>(r));
      size_t iterations = 0;
      while (!writers_done.load(std::memory_order_acquire) ||
             iterations < 50) {
        ++iterations;
        // (1) No lost results: a stable base vector is always findable.
        VectorId probe = stable_probes_[static_cast<size_t>(
            rng.NextBounded(stable_probes_.size()))];
        const size_t removed_snapshot =
            removed_upto.load(std::memory_order_acquire);
        auto hit = index_.Query(data_.Get(probe));
        if (!hit.has_value()) {
          violations.fetch_add(1);
          ADD_FAILURE() << "lost result: stable probe " << probe
                        << " vanished";
          continue;
        }
        // (2) No phantoms: the returned id must not be a vector whose
        // Remove() completed before this query started.
        if (hit->id < kBaseSize &&
            removed_rank[hit->id] < removed_snapshot) {
          violations.fetch_add(1);
          ADD_FAILURE() << "phantom: query returned id " << hit->id
                        << " removed at rank " << removed_rank[hit->id]
                        << " < " << removed_snapshot;
        }
        // (3) No lost inserts: a vector whose Insert() completed before
        // this query started must be findable via its exact duplicate.
        const size_t inserted_snapshot =
            inserted_upto.load(std::memory_order_acquire);
        if (inserted_snapshot > 0) {
          size_t j = static_cast<size_t>(
              rng.NextBounded(inserted_snapshot));
          auto inserted_hit = index_.Query(insert_stream_[j].span());
          if (!inserted_hit.has_value()) {
            violations.fetch_add(1);
            ADD_FAILURE() << "lost result: inserted vector " << j
                          << " not findable";
          }
        }
      }
    });
  }

  inserter.join();
  remover.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(violations.load(), 0);
  ExpectShardRules();

  // Quiesced: full accounting and per-id postconditions.
  EXPECT_EQ(index_.size(), kBaseSize + kNumInserts - kNumRemoves);
  for (size_t k = 0; k < kNumRemoves; ++k) {
    EXPECT_FALSE(index_.IsLive(static_cast<VectorId>(k)));
  }
  for (size_t k = 0; k < kNumRemoves; k += 7) {
    auto all = index_.QueryAll(data_.Get(static_cast<VectorId>(k)), 0.0);
    for (const Match& m : all) {
      EXPECT_NE(m.id, static_cast<VectorId>(k)) << "phantom after quiesce";
    }
  }
  for (size_t i = 0; i < kNumInserts; i += 5) {
    EXPECT_TRUE(index_.IsLive(inserted_ids[i])) << i;
    auto all = index_.QueryAll(insert_stream_[i].span(), 0.999);
    bool found = false;
    for (const Match& m : all) found = found || m.id == inserted_ids[i];
    EXPECT_TRUE(found) << "inserted vector " << i << " lost after quiesce";
  }
}

// Concurrent inserters racing into the same shards; every insert must be
// visible afterwards and ids must be unique.
TEST_F(ConcurrencyStressTest, ParallelInsertersAllVisible) {
  constexpr int kWriters = 4;
  std::vector<std::vector<VectorId>> ids(kWriters);
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (size_t i = cursor.fetch_add(1); i < insert_stream_.size();
           i = cursor.fetch_add(1)) {
        auto id = index_.Insert(insert_stream_[i].span());
        ASSERT_TRUE(id.ok());
        ids[static_cast<size_t>(w)].push_back(*id);
      }
    });
  }
  for (auto& writer : writers) writer.join();
  ExpectShardRules();

  std::vector<VectorId> all_ids;
  for (const auto& chunk : ids) {
    all_ids.insert(all_ids.end(), chunk.begin(), chunk.end());
  }
  ASSERT_EQ(all_ids.size(), insert_stream_.size());
  std::sort(all_ids.begin(), all_ids.end());
  EXPECT_TRUE(std::adjacent_find(all_ids.begin(), all_ids.end()) ==
              all_ids.end())
      << "duplicate vector ids handed out";
  EXPECT_EQ(index_.size(), kBaseSize + insert_stream_.size());
  for (size_t i = 0; i < insert_stream_.size(); i += 3) {
    EXPECT_TRUE(index_.Query(insert_stream_[i].span()).has_value()) << i;
  }
}

// Readers racing a remover while the maintenance thread compacts the
// shards the removals dirty: the rebuilt shards must serve the same
// answers throughout.
TEST_F(ConcurrencyStressTest, ReadersRaceBackgroundCompaction) {
  MaintenanceService service;
  MaintenanceOptions options;
  options.poll_interval_ms = 1;
  options.drift_factor = 0.0;  // compaction only in this test
  ASSERT_TRUE(service.Attach(&index_, options).ok());
  ASSERT_TRUE(service.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> violations{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(900 + static_cast<uint64_t>(r));
      size_t iterations = 0;
      while (!done.load(std::memory_order_acquire) || iterations < 30) {
        ++iterations;
        VectorId probe = stable_probes_[static_cast<size_t>(
            rng.NextBounded(stable_probes_.size()))];
        if (!index_.Query(data_.Get(probe)).has_value()) {
          violations.fetch_add(1);
          ADD_FAILURE() << "stable probe " << probe
                        << " lost during compaction";
        }
      }
    });
  }
  // Remove aggressively so the maintenance thread compacts mid-read.
  for (size_t k = 0; k < kNumRemoves; ++k) {
    ASSERT_TRUE(index_.Remove(static_cast<VectorId>(k)).ok());
  }
  done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  service.Stop();
  ExpectShardRules();
  // A final deterministic pass: whatever the thread did not get to.
  ASSERT_TRUE(service.RunOnce().ok());
  service.Detach();
  ExpectShardRules();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_GT(index_.num_compactions(), 0u);
  EXPECT_TRUE(service.last_error().ok()) << service.last_error().ToString();
}

}  // namespace
}  // namespace skewsearch
