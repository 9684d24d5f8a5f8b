// Quickstart: build the skew-adaptive index over vectors from a known
// skewed distribution and answer correlated queries.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "core/rho.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "util/random.h"

int main() {
  using namespace skewsearch;

  // 1. A skewed product distribution: 100 frequent dimensions (p = 0.25)
  //    and 20000 rare ones (p = 0.005). E|x| = 25 + 100 = 125.
  auto dist = TwoBlockProbabilities(100, 0.25, 20000, 0.005).value();

  // 2. Sample a dataset of n = 1000 vectors.
  Rng rng(/*seed=*/42);
  Dataset data = GenerateDataset(dist, 1000, &rng);
  std::printf("dataset: n=%zu, d=%zu, avg |x| = %.1f\n", data.size(),
              data.dimension(), data.AverageSize());

  // 3. Build the index for alpha-correlated queries.
  const double alpha = 0.7;
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = alpha;
  Status status = index.Build(&data, &dist, {options, 1});
  if (!status.ok()) {
    std::printf("build failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("index: %d repetitions, %.1f filters/element, %.2f MB\n",
              index.repetitions(),
              index.build_stats().avg_filters_per_element,
              static_cast<double>(index.MemoryBytes()) / 1e6);

  // The analytic query exponent for this instance (Theorem 1).
  std::printf("analytic rho = %.3f (query cost ~ n^rho)\n",
              CorrelatedRho(dist, alpha).value());

  // 4. Issue queries correlated with stored vectors.
  CorrelatedQuerySampler sampler(&dist, alpha);
  int found = 0;
  const int kQueries = 20;
  for (int t = 0; t < kQueries; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data.size()));
    SparseVector query = sampler.SampleCorrelated(data.Get(target), &rng);
    QueryStats stats;
    if (auto hit = index.Query(query.span(), &stats)) {
      ++found;
      std::printf(
          "query %2d -> vector %4u (similarity %.2f, %zu candidates "
          "touched)%s\n",
          t, hit->id, hit->similarity, stats.candidates,
          hit->id == target ? "" : "  [different but qualifying match]");
    } else {
      std::printf("query %2d -> no match above %.2f\n", t,
                  index.verify_threshold());
    }
  }
  std::printf("recall: %d/%d\n", found, kQueries);
  return 0;
}
