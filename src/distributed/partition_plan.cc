#include "distributed/partition_plan.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "hashing/mix.h"

namespace skewsearch {

namespace {

constexpr int kMaxWorkers = 1 << 12;

}  // namespace

int PartitionPlan::HomeOf(uint64_t key) const {
  // Keys are already avalanche hashes, but a plain modulus would tie the
  // routing to the low bits the FilterTable also sorts by; remix like
  // ShardedIndex::ShardOf does for ids.
  return static_cast<int>(Mix64(key) % static_cast<uint64_t>(workers));
}

void PartitionPlan::RouteKey(uint64_t key, std::vector<int>* out) const {
  if (broadcast) {
    for (int w = 0; w < workers; ++w) out->push_back(w);
    return;
  }
  auto it = heavy.find(key);
  if (it == heavy.end()) {
    out->push_back(HomeOf(key));
    return;
  }
  out->insert(out->end(), it->second.begin(), it->second.end());
}

PartitionPlan PartitionPlan::Broadcast(int workers) {
  PartitionPlan plan;
  plan.workers = workers;
  plan.heavy_threshold = 0;
  plan.broadcast = true;
  plan.estimated_load.assign(static_cast<size_t>(workers), 0.0);
  return plan;
}

size_t PartitionPlan::replicated_slices() const {
  size_t total = 0;
  for (const auto& [key, owners] : heavy) total += owners.size();
  return total;
}

Result<PartitionPlan> PartitionPlanner::PlanFromTable(
    const FilterTable& table, const PartitionPlannerOptions& options) {
  if (options.workers < 1 || options.workers > kMaxWorkers) {
    return Status::InvalidArgument("workers must be in [1, 4096]");
  }
  if (!table.frozen()) {
    return Status::InvalidArgument("PlanFromTable needs a frozen table");
  }
  const int workers = options.workers;

  PartitionPlan plan;
  plan.workers = workers;
  plan.heavy_threshold = options.heavy_threshold;
  if (plan.heavy_threshold == 0) {
    plan.heavy_threshold = std::max<size_t>(
        16, static_cast<size_t>(static_cast<double>(table.num_pairs()) /
                                (4.0 * static_cast<double>(workers))));
  }
  plan.estimated_load.assign(static_cast<size_t>(workers), 0.0);

  // Light keys first: their placement is fixed by hash, so their load is
  // a given that heavy placement must balance around.
  const double threshold = static_cast<double>(plan.heavy_threshold);
  std::vector<std::pair<uint64_t, double>> heavies;
  for (size_t k = 0; k < table.num_keys(); ++k) {
    const uint64_t key = table.key_at(k);
    const double count = static_cast<double>(table.postings_at(k).size());
    if (count >= threshold) {
      heavies.emplace_back(key, count);
    } else {
      plan.estimated_load[static_cast<size_t>(plan.HomeOf(key))] += count;
    }
  }

  // Heavy keys largest-first (LPT), each split into c near-equal slices
  // placed on the c least-loaded distinct workers — popped from a
  // min-heap keyed (load, worker), so placement costs O(c log W) per
  // key instead of a full worker sort. Ties break on the key and on the
  // worker index, so the plan is a pure function of its input.
  std::sort(heavies.begin(), heavies.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  using LoadSlot = std::pair<double, int>;
  std::priority_queue<LoadSlot, std::vector<LoadSlot>,
                      std::greater<LoadSlot>>
      least_loaded;
  for (int w = 0; w < workers; ++w) {
    least_loaded.emplace(plan.estimated_load[static_cast<size_t>(w)], w);
  }
  for (const auto& [key, count] : heavies) {
    const int slices = static_cast<int>(std::min<double>(
        workers, std::ceil(count / threshold)));
    std::vector<int> owners;
    owners.reserve(static_cast<size_t>(slices));
    const double share = count / static_cast<double>(slices);
    for (int j = 0; j < slices; ++j) {
      owners.push_back(least_loaded.top().second);
      least_loaded.pop();
    }
    for (int owner : owners) {
      double& load = plan.estimated_load[static_cast<size_t>(owner)];
      load += share;
      least_loaded.emplace(load, owner);
    }
    plan.heavy.emplace(key, std::move(owners));
  }
  return plan;
}

}  // namespace skewsearch
