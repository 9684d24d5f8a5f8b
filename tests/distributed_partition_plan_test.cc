#include "distributed/partition_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace skewsearch {
namespace {

/// A frozen table with `light` singleton keys plus `heavy` keys holding
/// `heavy_size` postings each.
FilterTable MakeTable(size_t light, size_t heavy, size_t heavy_size) {
  std::vector<Posting> postings;
  uint64_t next_key = 1;
  for (size_t k = 0; k < light; ++k) postings.push_back({next_key++, 0});
  for (size_t k = 0; k < heavy; ++k) {
    uint64_t key = next_key++;
    for (size_t i = 0; i < heavy_size; ++i) {
      postings.push_back({key, static_cast<VectorId>(i)});
    }
  }
  return FilterTable::Build(std::move(postings));
}

std::vector<int> Owners(const PartitionPlan& plan, uint64_t key) {
  std::vector<int> owners;
  plan.RouteKey(key, &owners);
  return owners;
}

TEST(DistributedPartitionPlanTest, SingleWorkerOwnsEverything) {
  FilterTable table = MakeTable(50, 3, 100);
  PartitionPlannerOptions options;
  options.workers = 1;
  options.heavy_threshold = 10;
  auto plan = PartitionPlanner::PlanFromTable(table, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->workers, 1);
  for (size_t k = 0; k < table.num_keys(); ++k) {
    std::vector<int> owners = Owners(*plan, table.key_at(k));
    ASSERT_FALSE(owners.empty());
    for (int owner : owners) EXPECT_EQ(owner, 0);
  }
  // Heavy keys are still classified (split count 1), and all estimated
  // load lands on the only worker.
  EXPECT_EQ(plan->num_heavy_keys(), 3u);
  ASSERT_EQ(plan->estimated_load.size(), 1u);
  EXPECT_DOUBLE_EQ(plan->estimated_load[0],
                   static_cast<double>(table.num_pairs()));
}

TEST(DistributedPartitionPlanTest, MoreWorkersThanDistinctKeys) {
  FilterTable table = MakeTable(4, 0, 0);
  PartitionPlannerOptions options;
  options.workers = 16;
  options.heavy_threshold = 1000;
  auto plan = PartitionPlanner::PlanFromTable(table, options);
  ASSERT_TRUE(plan.ok());
  // Every key routes to exactly one in-range worker; empty workers are
  // legal (there are more of them than keys).
  std::set<int> used;
  for (size_t k = 0; k < table.num_keys(); ++k) {
    std::vector<int> owners = Owners(*plan, table.key_at(k));
    ASSERT_EQ(owners.size(), 1u);
    EXPECT_GE(owners[0], 0);
    EXPECT_LT(owners[0], 16);
    used.insert(owners[0]);
  }
  EXPECT_LE(used.size(), 4u);
  EXPECT_EQ(plan->num_heavy_keys(), 0u);
}

TEST(DistributedPartitionPlanTest, SingleMegaKeySplitsAcrossAllWorkers) {
  // All-heavy profile: one key holds every posting entry. Without
  // splitting, worker scaling would be impossible — the planner must
  // spread the key across all W workers.
  FilterTable table = MakeTable(0, 1, 10000);
  PartitionPlannerOptions options;
  options.workers = 8;
  options.heavy_threshold = 100;
  auto plan = PartitionPlanner::PlanFromTable(table, options);
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan->num_heavy_keys(), 1u);
  std::vector<int> owners = Owners(*plan, table.key_at(0));
  EXPECT_EQ(owners.size(), 8u);
  std::set<int> distinct(owners.begin(), owners.end());
  EXPECT_EQ(distinct.size(), 8u) << "slice owners must be distinct";
  // Load spreads evenly.
  for (double load : plan->estimated_load) {
    EXPECT_DOUBLE_EQ(load, 10000.0 / 8.0);
  }
}

TEST(DistributedPartitionPlanTest, AllLightKeysHashOnceAndCoverEveryKey) {
  FilterTable table = MakeTable(2000, 0, 0);
  PartitionPlannerOptions options;
  options.workers = 7;
  options.heavy_threshold = 50;  // nothing reaches it
  auto plan = PartitionPlanner::PlanFromTable(table, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->num_heavy_keys(), 0u);
  EXPECT_EQ(plan->replicated_slices(), 0u);
  double total = 0.0;
  std::set<int> used;
  for (size_t k = 0; k < table.num_keys(); ++k) {
    std::vector<int> owners = Owners(*plan, table.key_at(k));
    ASSERT_EQ(owners.size(), 1u) << "light keys are hashed exactly once";
    used.insert(owners[0]);
  }
  for (double load : plan->estimated_load) total += load;
  EXPECT_DOUBLE_EQ(total, 2000.0);
  // 2000 hashed keys over 7 workers: every worker should see some.
  EXPECT_EQ(used.size(), 7u);
}

TEST(DistributedPartitionPlanTest, HeavySplitCountTracksEstimate) {
  FilterTable table = MakeTable(0, 1, 250);
  PartitionPlannerOptions options;
  options.workers = 8;
  options.heavy_threshold = 100;  // ceil(250/100) = 3 slices
  auto plan = PartitionPlanner::PlanFromTable(table, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(Owners(*plan, table.key_at(0)).size(), 3u);
}

TEST(DistributedPartitionPlanTest, AutoThresholdSplitsDominantKey) {
  // heavy_threshold 0 derives total/(4W); a key holding half of all
  // entries must end up split.
  FilterTable table = MakeTable(1000, 1, 1000);
  PartitionPlannerOptions options;
  options.workers = 4;
  options.heavy_threshold = 0;
  auto plan = PartitionPlanner::PlanFromTable(table, options);
  ASSERT_TRUE(plan.ok());
  EXPECT_GT(plan->heavy_threshold, 0u);
  EXPECT_GE(plan->num_heavy_keys(), 1u);
  EXPECT_GT(Owners(*plan, table.key_at(1000)).size(), 1u);
}

TEST(DistributedPartitionPlanTest, PlanIsDeterministic) {
  FilterTable table = MakeTable(500, 5, 300);
  PartitionPlannerOptions options;
  options.workers = 6;
  options.heavy_threshold = 50;
  auto a = PartitionPlanner::PlanFromTable(table, options);
  auto b = PartitionPlanner::PlanFromTable(table, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->heavy.size(), b->heavy.size());
  for (const auto& [key, owners] : a->heavy) {
    auto it = b->heavy.find(key);
    ASSERT_NE(it, b->heavy.end());
    EXPECT_EQ(owners, it->second);
  }
  EXPECT_EQ(a->estimated_load, b->estimated_load);
}

TEST(DistributedPartitionPlanTest, RejectsBadOptions) {
  FilterTable table = MakeTable(10, 0, 0);
  PartitionPlannerOptions options;
  options.workers = 0;
  EXPECT_FALSE(PartitionPlanner::PlanFromTable(table, options).ok());
}

TEST(DistributedPartitionPlanTest, RejectsUnfrozenTable) {
  const FilterTable unbuilt;  // default-constructed, never built
  PartitionPlannerOptions options;
  EXPECT_FALSE(PartitionPlanner::PlanFromTable(unbuilt, options).ok());
}

}  // namespace
}  // namespace skewsearch
