// Maintenance stress: the maintenance thread (background compaction +
// drift rebuild) racing readers, inserters and removers on one
// DynamicIndex. Designed to run under TSan
// (-DSKEWSEARCH_SANITIZE=thread): every epoch pin, snapshot publish and
// reclamation edge is exercised while rebuilds swap whole shard tables
// and parameter editions under live traffic.
//
// During the run, readers assert the two properties that must hold even
// across an edition change: (1) snapshot isolation — two identical
// queries against one pinned snapshot return byte-identical results no
// matter what maintenance does in between — and (2) no phantoms — a
// query never returns an id whose Remove() completed before the query
// started. Findability assertions (which depend on the filter family in
// effect) run after the index quiesces, against the final edition.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_index.h"
#include "data/generators.h"
#include "maintenance/service.h"
#include "reference_index.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace skewsearch {
namespace {

constexpr size_t kBaseSize = 300;
constexpr size_t kNumInserts = 420;  // pushes live past the 2x drift factor
constexpr size_t kNumRemoves = 100;  // base ids [0, kNumRemoves)
constexpr int kNumReaders = 3;

class MaintenanceStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(81);
    data_ = GenerateDataset(dist_, kBaseSize, &rng);

    DynamicIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 0;  // derived, so rebuilds re-provision L
    options.index.seed = 818;
    options.num_shards = 4;
    options.compact_dead_fraction = 0.20;
    ASSERT_TRUE(index_.Build(&data_, &dist_, options).ok());

    Rng vrng(82);
    while (insert_stream_.size() < kNumInserts) {
      SparseVector v = dist_.Sample(&vrng);
      if (!v.span().empty()) insert_stream_.push_back(std::move(v));
    }
  }

  bool HasPathsUnderCurrentFamily(std::span<const ItemId> items) {
    std::vector<uint64_t> keys;
    for (int rep = 0; rep < index_.repetitions(); ++rep) {
      index_.family().ComputeFilters(items, static_cast<uint32_t>(rep),
                                     &keys);
    }
    return !keys.empty();
  }

  /// Every shard rule holds; called once the index quiesces.
  void ExpectShardRules() {
    const Status checked = index_.CheckInvariants();
    EXPECT_TRUE(checked.ok()) << checked.ToString();
  }

  ProductDistribution dist_;
  Dataset data_;
  DynamicIndex index_;
  std::vector<SparseVector> insert_stream_;
};

TEST_F(MaintenanceStressTest, MaintenanceThreadRacesMixedTraffic) {
  MaintenanceService service;
  MaintenanceOptions maintenance;
  maintenance.poll_interval_ms = 1;
  maintenance.drift_factor = 2.0;
  maintenance.min_rebuild_n = 2;
  ASSERT_TRUE(service.Attach(&index_, maintenance).ok());
  ASSERT_TRUE(service.Start().ok());

  // removed_rank[id] = position of base id `id` in the removal stream,
  // SIZE_MAX when never removed (read-only during the run).
  std::vector<size_t> removed_rank(kBaseSize, static_cast<size_t>(-1));
  for (size_t k = 0; k < kNumRemoves; ++k) removed_rank[k] = k;

  std::atomic<size_t> removed_upto{0};
  std::atomic<bool> writers_done{false};
  std::atomic<int> violations{0};
  std::vector<VectorId> inserted_ids(kNumInserts, 0);

  std::thread inserter([&] {
    for (size_t i = 0; i < kNumInserts; ++i) {
      auto id = index_.Insert(insert_stream_[i].span());
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      inserted_ids[i] = *id;
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
      Rng rng(810 + static_cast<uint64_t>(r));
      size_t iterations = 0;
      while (!writers_done.load(std::memory_order_acquire) ||
             iterations < 40) {
        ++iterations;
        VectorId probe = static_cast<VectorId>(
            kNumRemoves + rng.NextBounded(kBaseSize - kNumRemoves));
        // (1) Snapshot isolation: one pinned snapshot answers the same
        // query identically even while compaction/rebuild proceed.
        DynamicIndex::Snapshot snapshot = index_.GetSnapshot();
        auto first = snapshot.QueryAll(data_.Get(probe), 0.0);
        auto second = snapshot.QueryAll(data_.Get(probe), 0.0);
        if (first.size() != second.size()) {
          violations.fetch_add(1);
          ADD_FAILURE() << "snapshot result drifted for probe " << probe;
        } else {
          for (size_t i = 0; i < first.size(); ++i) {
            if (first[i].id != second[i].id ||
                first[i].similarity != second[i].similarity) {
              violations.fetch_add(1);
              ADD_FAILURE() << "snapshot result drifted for probe "
                            << probe << " at entry " << i;
              break;
            }
          }
        }
        // (2) No phantoms: nothing removed before this query started
        // may come back, from the live view.
        const size_t removed_snapshot =
            removed_upto.load(std::memory_order_acquire);
        auto hit = index_.Query(data_.Get(probe));
        if (hit.has_value() && hit->id < kBaseSize &&
            removed_rank[hit->id] < removed_snapshot) {
          violations.fetch_add(1);
          ADD_FAILURE() << "phantom: id " << hit->id << " removed at rank "
                        << removed_rank[hit->id] << " < "
                        << removed_snapshot;
        }
      }
    });
  }

  inserter.join();
  remover.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& reader : readers) reader.join();

  service.Stop();
  ASSERT_TRUE(service.RunOnce().ok());  // deterministic final pass
  service.Detach();
  EXPECT_TRUE(service.last_error().ok()) << service.last_error().ToString();
  EXPECT_EQ(violations.load(), 0);
  ExpectShardRules();

  // The drift must actually have been exercised: live count ended at
  // kBaseSize + kNumInserts - kNumRemoves = 620 vs. derived 300.
  EXPECT_GT(index_.num_rebuilds(), 0u) << "drift rebuild never fired";
  // The rebuild re-derives for whatever the live count was when drift
  // tripped, which is strictly past the 2x factor.
  EXPECT_GT(index_.derived_n(), 2 * kBaseSize);
  EXPECT_LE(index_.derived_n(), kBaseSize + kNumInserts);
  EXPECT_GT(index_.edition_version(), 0u);

  // Quiesced: full accounting and per-id postconditions under the
  // *final* edition.
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
  size_t checked = 0;
  for (size_t i = 0; i < kNumInserts; i += 5) {
    EXPECT_TRUE(index_.IsLive(inserted_ids[i])) << i;
    if (!HasPathsUnderCurrentFamily(insert_stream_[i].span())) continue;
    ++checked;
    auto all = index_.QueryAll(insert_stream_[i].span(), 0.999);
    bool found = false;
    for (const Match& m : all) found = found || m.id == inserted_ids[i];
    EXPECT_TRUE(found) << "inserted vector " << i
                       << " lost across the rebuild";
  }
  EXPECT_GT(checked, 0u);

  // Quiesced + detached: every retired snapshot is reclaimable.
  index_.epochs().Collect();
  EXPECT_EQ(index_.epochs().limbo_size(), 0u);
}

// BatchQuery pins one epoch for the whole batch: run batches while the
// maintenance thread churns, and verify each batch is internally
// consistent with a serial pass over the same snapshot... which is
// exactly what the engine promises: identical results for any thread
// count. Also a TSan workout for the pool + epoch interaction.
TEST_F(MaintenanceStressTest, BatchQueryRacesMaintenance) {
  MaintenanceService service;
  MaintenanceOptions maintenance;
  maintenance.poll_interval_ms = 1;
  maintenance.drift_factor = 2.0;
  maintenance.min_rebuild_n = 2;
  ASSERT_TRUE(service.Attach(&index_, maintenance).ok());
  ASSERT_TRUE(service.Start().ok());

  Dataset queries;
  for (size_t i = 0; i < 60; ++i) {
    queries.Add(data_.Get(static_cast<VectorId>(
        kNumRemoves + i % (kBaseSize - kNumRemoves))));
  }

  std::atomic<bool> done{false};
  std::thread churn([&] {
    size_t i = 0;
    while (!done.load(std::memory_order_acquire) && i < kNumInserts) {
      ASSERT_TRUE(index_.Insert(insert_stream_[i].span()).ok());
      if (i < kNumRemoves) {
        ASSERT_TRUE(index_.Remove(static_cast<VectorId>(i)).ok());
      }
      ++i;
    }
  });

  ThreadPool pool(4);
  for (int round = 0; round < 6; ++round) {
    auto results = index_.BatchQuery(queries, &pool);
    ASSERT_EQ(results.size(), queries.size());
  }
  done.store(true, std::memory_order_release);
  churn.join();
  service.Stop();
  ASSERT_TRUE(service.RunOnce().ok());
  service.Detach();
  EXPECT_TRUE(service.last_error().ok()) << service.last_error().ToString();
  ExpectShardRules();

  // Quiesced: a parallel batch equals a serial one positionally.
  test::ExpectSameMatches(index_.BatchQuery(queries),
                          index_.BatchQuery(queries, &pool));
}

}  // namespace
}  // namespace skewsearch
