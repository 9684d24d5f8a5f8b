// Similarity join between two relations (the paper's "Similarity joins"
// application): R = incoming noisy product listings, S = catalog. The join
// pairs every listing with catalog entries above a similarity threshold,
// using index-probe semantics: preprocess S once in ~|S|^{1+rho}, then
// probe with each r in R at ~|S|^rho.

#include <cstdio>

#include "core/similarity_join.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "data/io.h"
#include "util/random.h"

int main() {
  using namespace skewsearch;

  // Catalog S: 3000 entries over a skewed attribute/token space.
  auto dist = TwoBlockProbabilities(120, 0.25, 25000, 0.004).value();
  Rng rng(99);
  Dataset catalog = GenerateDataset(dist, 3000, &rng);

  // Listings R: 400 noisy versions of random catalog entries (alpha-
  // correlated bit noise) plus 200 junk listings matching nothing.
  const double alpha = 0.8;
  CorrelatedQuerySampler noise(&dist, alpha);
  Dataset listings;
  std::vector<VectorId> truth;  // listing index -> catalog id (or -1)
  for (int i = 0; i < 400; ++i) {
    VectorId source = static_cast<VectorId>(rng.NextBounded(catalog.size()));
    listings.Add(noise.SampleCorrelated(catalog.Get(source), &rng));
    truth.push_back(source);
  }
  for (int i = 0; i < 200; ++i) {
    listings.Add(dist.Sample(&rng));
    truth.push_back(static_cast<VectorId>(-1));
  }
  (void)listings.SetDimension(dist.dimension());
  std::printf("catalog |S| = %zu, listings |R| = %zu (400 real + 200 junk)\n",
              catalog.size(), listings.size());

  JoinOptions options;
  options.index.mode = IndexMode::kCorrelated;
  options.index.alpha = alpha;
  options.index.repetition_boost = 2.5;
  DistributedJoinStats stats;
  auto result = SimilarityJoin(listings, catalog, dist, options, &stats);
  if (!result.ok()) {
    std::printf("join failed: %s\n", result.status().ToString().c_str());
    return 1;
  }

  size_t correct = 0, junk_hits = 0;
  for (const JoinPair& pr : *result) {
    if (truth[pr.left] == pr.right) {
      ++correct;
    } else if (truth[pr.left] == static_cast<VectorId>(-1)) {
      ++junk_hits;
    }
  }
  std::printf(
      "join: %zu pairs (build %.2fs, probe %.2fs, %zu candidates)\n",
      result->size(), stats.build_seconds + stats.plan_seconds,
      stats.probe_seconds, stats.candidates);
  std::printf("  real listings matched to their catalog entry: %zu/400\n",
              correct);
  std::printf("  junk listings matched to anything: %zu/200\n", junk_hits);
  std::printf("  per-probe candidate work: %.1f (vs %zu for a full scan)\n",
              static_cast<double>(stats.candidates) /
                  static_cast<double>(listings.size()),
              catalog.size());
  return 0;
}
