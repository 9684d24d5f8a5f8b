// Copyright 2026 The skewsearch Authors.
// Minimal walkthrough of the distributed all-pairs join: estimate the
// item frequencies from the data, plan a skew-aware key partition,
// hand each worker its posting slices, probe, and merge — printing the
// per-worker duplication stats along the way, and cross-checking the
// result against the one-shot join (W = 1).

#include <cstdio>

#include "core/similarity_join.h"
#include "data/estimate.h"
#include "data/generators.h"
#include "distributed/distributed_join.h"
#include "util/random.h"

using namespace skewsearch;  // NOLINT

int main() {
  // A skewed dataset with planted near-duplicates.
  auto dist_model = ZipfProbabilities(/*d=*/5000, /*exponent=*/1.0,
                                      /*p_head=*/0.4);
  if (!dist_model.ok()) return 1;
  Rng rng(2026);
  Dataset data;
  for (int i = 0; i < 1200; ++i) data.Add(dist_model->Sample(&rng));
  for (int i = 0; i < 60; ++i) data.Add(data.GetVector(i * 11));
  if (!data.SetDimension(5000).ok()) return 1;

  // The paper's Section 9 move, via data/estimate.h: the planner (and
  // the index) can run off frequencies counted from the data itself.
  auto dist = EstimateFrequencies(data);
  if (!dist.ok()) return 1;

  DistributedJoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = 0.8;
  options.threshold = 0.8;
  options.workers = 4;

  // Plan + build the workers (in a real deployment this is where each
  // worker machine receives its posting slices and referenced vectors).
  DistributedJoin join;
  Status built = join.Build(&data, &*dist, options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
    return 1;
  }
  const PartitionPlan& plan = join.plan();
  std::printf("plan: %d workers, heavy threshold %zu postings, "
              "%zu heavy keys in %zu slices\n",
              plan.workers, plan.heavy_threshold, plan.num_heavy_keys(),
              plan.replicated_slices());

  // Probe with every vector and merge the per-worker pair streams.
  DistributedJoinStats stats;
  auto pairs = join.SelfJoin(&stats);
  if (!pairs.ok()) {
    std::fprintf(stderr, "join failed: %s\n",
                 pairs.status().ToString().c_str());
    return 1;
  }
  std::printf("self-join at B >= %.2f: %zu pairs "
              "(%zu cross-worker duplicates merged away)\n",
              options.threshold, pairs->size(),
              stats.cross_worker_duplicates);
  std::printf("duplication factor %.2f (vectors shipped / dataset), "
              "probe fan-out %.2f workers per probe\n",
              stats.duplication_factor, stats.probe_fanout);
  std::printf("\n  worker  keys  entries  vectors  probes  pairs\n");
  for (const WorkerLoad& load : stats.workers) {
    std::printf("  %6d %5zu %8zu %8zu %7zu %6zu\n", load.worker, load.keys,
                load.entries, load.vectors, load.probes, load.pairs);
  }

  // The engine's contract: the output does not depend on W, so the
  // one-shot join's single worker returns the same pairs.
  JoinOptions one_worker;
  one_worker.index = options.index;
  one_worker.threshold = options.threshold;
  auto expected = SelfSimilarityJoin(data, *dist, one_worker);
  if (!expected.ok()) return 1;
  bool identical = expected->size() == pairs->size();
  for (size_t i = 0; identical && i < pairs->size(); ++i) {
    identical = (*expected)[i].left == (*pairs)[i].left &&
                (*expected)[i].right == (*pairs)[i].right &&
                (*expected)[i].similarity == (*pairs)[i].similarity;
  }
  std::printf("\nidentical to the one-shot join (W = 1): %s\n",
              identical ? "yes" : "NO");
  return identical ? 0 : 1;
}
