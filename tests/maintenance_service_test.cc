// MaintenanceService: the decoupled housekeeping policy. Covers the
// writer-stall fix (Remove only notifies, never compacts inline), the
// background thread compacting dirty shards, drift-triggered parameter
// re-derive + live rebuild (growth and shrink) with recall preserved,
// and snapshot isolation: a reader pinned across compaction and rebuild
// sees byte-identical results to completion.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_index.h"
#include "core/skewed_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "maintenance/service.h"
#include "reference_index.h"
#include "util/random.h"

namespace skewsearch {
namespace {

class MaintenanceServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(71);
    data_ = GenerateDataset(dist_, 250, &rng);
  }

  DynamicIndexOptions Options(int num_shards = 4,
                              double compact_fraction = 0.25) const {
    DynamicIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 10;
    options.index.seed = 717;
    options.num_shards = num_shards;
    options.compact_dead_fraction = compact_fraction;
    return options;
  }

  // Samples `count` non-empty vectors the index's *current* filter
  // family emits paths for.
  std::vector<SparseVector> FreshVectors(const DynamicIndex& index,
                                         size_t count, uint64_t seed) {
    std::vector<SparseVector> out;
    Rng rng(seed);
    while (out.size() < count) {
      SparseVector v = dist_.Sample(&rng);
      if (v.span().empty()) continue;
      std::vector<uint64_t> keys;
      for (int rep = 0; rep < index.repetitions(); ++rep) {
        index.family().ComputeFilters(v.span(), static_cast<uint32_t>(rep),
                                      &keys);
      }
      if (!keys.empty()) out.push_back(std::move(v));
    }
    return out;
  }

  // True iff the index's current family emits at least one path for
  // `items` (a path-less vector is legitimately unfindable).
  bool HasPaths(const DynamicIndex& index, std::span<const ItemId> items) {
    std::vector<uint64_t> keys;
    for (int rep = 0; rep < index.repetitions(); ++rep) {
      index.family().ComputeFilters(items, static_cast<uint32_t>(rep),
                                    &keys);
    }
    return !keys.empty();
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

// A writer crossing the threshold must return without compacting; the
// listener is notified instead and the service does the work.
TEST_F(MaintenanceServiceTest, RemoveNotifiesInsteadOfCompactingInline) {
  struct CountingListener : MaintenanceListener {
    void OnShardDirty(int /*shard*/) override { notifications.fetch_add(1); }
    std::atomic<int> notifications{0};
  };
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(2, 0.05)).ok());
  CountingListener listener;
  index.SetMaintenanceListener(&listener);
  for (VectorId id = 0; id < 60; ++id) {
    ASSERT_TRUE(index.Remove(id).ok());
  }
  EXPECT_EQ(index.num_compactions(), 0u) << "Remove() compacted inline";
  EXPECT_GT(listener.notifications.load(), 0);
  EXPECT_EQ(index.num_tombstones(), 60u);  // nothing dropped yet
  index.SetMaintenanceListener(nullptr);

  // The service performs the queued work and clears covered tombstones.
  MaintenanceService service;
  ASSERT_TRUE(service.Attach(&index).ok());
  ASSERT_TRUE(service.RunOnce().ok());
  EXPECT_GT(index.num_compactions(), 0u);
  EXPECT_EQ(index.num_tombstones(), 0u);
  EXPECT_EQ(index.size(), data_.size() - 60);
}

TEST_F(MaintenanceServiceTest, BackgroundThreadCompactsDirtyShards) {
  DynamicIndex index, reference;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(4, 0.10)).ok());
  ASSERT_TRUE(reference.Build(&data_, &dist_, Options(4, 100.0)).ok());
  MaintenanceService service;
  MaintenanceOptions options;
  options.poll_interval_ms = 1;
  options.drift_factor = 0.0;  // isolate compaction
  ASSERT_TRUE(service.Attach(&index, options).ok());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(service.running());

  for (VectorId id = 0; id < 100; ++id) {
    ASSERT_TRUE(index.Remove(id).ok());
    ASSERT_TRUE(reference.Remove(id).ok());
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (index.num_compactions() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  service.Stop();
  EXPECT_FALSE(service.running());
  EXPECT_GT(index.num_compactions(), 0u);
  EXPECT_TRUE(service.last_error().ok()) << service.last_error().ToString();
  EXPECT_GT(service.stats().scans, 0u);

  // Compaction is invisible to queries: same answers as the
  // tombstone-only reference.
  CorrelatedQuerySampler sampler(&dist_, 0.7);
  Rng rng(72);
  for (int t = 0; t < 25; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data_.size()));
    SparseVector q = sampler.SampleCorrelated(data_.Get(target), &rng);
    test::ExpectSameMatches(reference.QueryAll(q.span(), 0.0),
                            index.QueryAll(q.span(), 0.0),
                            "query " + std::to_string(t));
  }
}

TEST_F(MaintenanceServiceTest, DriftRebuildRederivesParameters) {
  // Derived repetitions (repetitions = 0) so the rebuild visibly
  // re-provisions L = ceil(boost * ln n) for the grown live count.
  DynamicIndexOptions options = Options(3, 100.0);
  options.index.repetitions = 0;
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, options).ok());
  const int reps_before = index.repetitions();
  const size_t derived_before = index.derived_n();
  EXPECT_EQ(derived_before, data_.size());
  EXPECT_EQ(index.edition_version(), 0u);

  // Grow the live count past the 2x drift factor.
  auto fresh = FreshVectors(index, 2 * data_.size() + 10, 73);
  std::vector<VectorId> inserted_ids;
  for (const SparseVector& v : fresh) {
    auto id = index.Insert(v.span());
    ASSERT_TRUE(id.ok());
    inserted_ids.push_back(*id);
  }
  const size_t live = index.size();
  ASSERT_GT(live, 2 * derived_before);

  MaintenanceService service;
  MaintenanceOptions maintenance;
  maintenance.drift_factor = 2.0;
  maintenance.min_rebuild_n = 2;
  ASSERT_TRUE(service.Attach(&index, maintenance).ok());
  ASSERT_TRUE(service.RunOnce().ok());

  EXPECT_EQ(index.num_rebuilds(), 1u);
  EXPECT_EQ(service.stats().rebuilds, 1u);
  EXPECT_EQ(index.derived_n(), live);
  EXPECT_EQ(index.edition_version(), 1u);
  EXPECT_GT(index.repetitions(), reps_before)
      << "ln n grew by more than a repetition's worth";
  EXPECT_EQ(index.size(), live) << "rebuild changed the live set";

  // Once re-derived, the same live count must not re-trigger.
  ASSERT_TRUE(service.RunOnce().ok());
  EXPECT_EQ(index.num_rebuilds(), 1u);

  // Recall is preserved across the rebuild: every vector the *new*
  // family emits paths for is findable by its exact duplicate.
  for (size_t i = 0; i < fresh.size(); i += 7) {
    if (!HasPaths(index, fresh[i].span())) continue;
    auto all = index.QueryAll(fresh[i].span(), 0.999);
    EXPECT_TRUE(ContainsId(all, inserted_ids[i]))
        << "inserted vector " << i << " lost by the rebuild";
  }
  for (VectorId id = 0; id < data_.size(); id += 11) {
    if (!HasPaths(index, data_.Get(id))) continue;
    auto all = index.QueryAll(data_.Get(id), 0.999);
    EXPECT_TRUE(ContainsId(all, id))
        << "base vector " << id << " lost by the rebuild";
  }

  // Correlated recall meets the same bar the pre-rebuild index is held
  // to elsewhere in the suite.
  CorrelatedQuerySampler sampler(&dist_, 0.8);
  Rng rng(74);
  int found = 0, probed = 0;
  for (size_t i = 0; i < fresh.size(); i += 3) {
    SparseVector q = sampler.SampleCorrelated(fresh[i].span(), &rng);
    ++probed;
    found += ContainsId(index.QueryAll(q.span(), 0.0), inserted_ids[i]);
  }
  EXPECT_GE(found, probed * 7 / 10)
      << "correlated recall after rebuild: " << found << "/" << probed;
}

TEST_F(MaintenanceServiceTest, ShrinkDriftRebuildFiresToo) {
  DynamicIndexOptions options = Options(3, 100.0);
  options.index.repetitions = 0;
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, options).ok());
  // Remove down to a third of the build-time n.
  for (VectorId id = 0; id < (2 * data_.size()) / 3; ++id) {
    ASSERT_TRUE(index.Remove(id).ok());
  }
  const size_t live = index.size();
  MaintenanceService service;
  MaintenanceOptions maintenance;
  maintenance.dead_ratio = 100.0;  // isolate the drift path
  maintenance.drift_factor = 2.0;
  maintenance.min_rebuild_n = 2;
  ASSERT_TRUE(service.Attach(&index, maintenance).ok());
  ASSERT_TRUE(service.RunOnce().ok());
  EXPECT_EQ(index.num_rebuilds(), 1u);
  EXPECT_EQ(index.derived_n(), live);
  EXPECT_EQ(index.size(), live);
  // The rebuild regenerated postings for the survivors only; the
  // removed ids stay gone.
  for (VectorId id = 0; id < (2 * data_.size()) / 3; id += 13) {
    EXPECT_FALSE(index.IsLive(id));
    EXPECT_FALSE(ContainsId(index.QueryAll(data_.Get(id), 0.0), id));
  }
  for (VectorId id = static_cast<VectorId>((2 * data_.size()) / 3);
       id < data_.size(); id += 7) {
    if (!HasPaths(index, data_.Get(id))) continue;
    EXPECT_TRUE(ContainsId(index.QueryAll(data_.Get(id), 0.999), id));
  }
}

// The acceptance criterion: for a fixed snapshot epoch, results are
// byte-identical before, during and after background compaction and a
// drift rebuild.
TEST_F(MaintenanceServiceTest, SnapshotIsolationAcrossCompactionAndRebuild) {
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options(4, 0.25)).ok());
  auto fresh = FreshVectors(index, 30, 75);
  for (const SparseVector& v : fresh) {
    ASSERT_TRUE(index.Insert(v.span()).ok());
  }

  CorrelatedQuerySampler sampler(&dist_, 0.7);
  Rng rng(76);
  std::vector<SparseVector> probes;
  for (int t = 0; t < 20; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data_.size()));
    probes.push_back(sampler.SampleCorrelated(data_.Get(target), &rng));
  }

  DynamicIndex::Snapshot snapshot = index.GetSnapshot();
  ASSERT_TRUE(snapshot.valid());
  const size_t size_at_pin = snapshot.size();
  std::vector<std::vector<Match>> before;
  for (const SparseVector& q : probes) {
    before.push_back(snapshot.QueryAll(q.span(), 0.0));
  }

  // Mutate heavily: removals that trigger compaction, then a rebuild.
  MaintenanceService service;
  MaintenanceOptions maintenance;
  maintenance.drift_factor = 1.01;  // any change counts as drift
  maintenance.min_rebuild_n = 2;
  ASSERT_TRUE(service.Attach(&index, maintenance).ok());
  for (VectorId id = 0; id < 120; ++id) {
    ASSERT_TRUE(index.Remove(id).ok());
  }
  ASSERT_TRUE(service.RunOnce().ok());
  EXPECT_GT(index.num_compactions() + index.num_rebuilds(), 0u);

  // The pinned snapshot still answers from the pre-mutation state.
  EXPECT_EQ(snapshot.size(), size_at_pin);
  for (size_t t = 0; t < probes.size(); ++t) {
    test::ExpectSameMatches(before[t],
                            snapshot.QueryAll(probes[t].span(), 0.0),
                            "pinned snapshot, probe " + std::to_string(t));
  }
  // A removed id the old snapshot could return must *still* be
  // returnable from it (reads-at-epoch semantics), but never from a
  // fresh view.
  for (size_t t = 0; t < probes.size(); ++t) {
    auto now = index.QueryAll(probes[t].span(), 0.0);
    for (const Match& m : now) {
      EXPECT_FALSE(m.id < 120) << "fresh view returned a removed id";
    }
  }

  // Releasing the snapshot lets the retired tables be reclaimed.
  snapshot = DynamicIndex::Snapshot();
  index.epochs().Collect();
  EXPECT_EQ(index.epochs().limbo_size(), 0u);
}

TEST_F(MaintenanceServiceTest, ServiceLifecycleAndValidation) {
  MaintenanceService service;
  EXPECT_TRUE(service.RunOnce().IsInvalidArgument());
  EXPECT_TRUE(service.Start().IsInvalidArgument());
  EXPECT_TRUE(service.Attach(nullptr).IsInvalidArgument());

  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options()).ok());
  MaintenanceOptions bad;
  bad.poll_interval_ms = 0;
  EXPECT_TRUE(service.Attach(&index, bad).IsInvalidArgument());
  ASSERT_TRUE(service.Attach(&index).ok());
  ASSERT_TRUE(service.Start().ok());
  EXPECT_TRUE(service.Start().ok());  // idempotent
  service.Stop();
  service.Stop();  // idempotent
  ASSERT_TRUE(service.RunOnce().ok());  // manual drive still works
  service.Detach();
  EXPECT_TRUE(service.RunOnce().IsInvalidArgument());

  // Index-side validation of the maintenance entry points.
  EXPECT_TRUE(index.CompactShard(-1).IsInvalidArgument());
  EXPECT_TRUE(index.CompactShard(index.num_shards()).IsInvalidArgument());
  EXPECT_TRUE(index.RebuildForSize(1).IsInvalidArgument());
  DynamicIndex unbuilt;
  EXPECT_TRUE(unbuilt.CompactShard(0).IsInvalidArgument());
  EXPECT_TRUE(unbuilt.RebuildForSize(100).IsInvalidArgument());
}

}  // namespace
}  // namespace skewsearch
