// Data cleaning: identify different representations of the same object —
// the paper's opening motivation. Records are token sets (e.g. words of a
// customer address); noisy duplicates share most but not all tokens. We
// estimate item frequencies from the data itself (Section 9), build the
// adversarial-mode index, and report duplicate clusters.

#include <cstdio>
#include <string>
#include <vector>

#include "core/similarity_join.h"
#include "data/estimate.h"
#include "data/generators.h"
#include "util/random.h"

int main() {
  using namespace skewsearch;

  // Synthetic "records": a Zipfian token universe (few very common tokens
  // like street suffixes, many rare ones like surnames), 1500 base
  // records, 150 of which get a noisy duplicate with ~15% token churn.
  auto vocab = ZipfProbabilities(30000, 1.0, 0.4).value();
  auto dist = ScaleToAverageSize(vocab, 12.0).value();
  Rng rng(7);

  Dataset records;
  std::vector<std::pair<VectorId, VectorId>> truth;
  for (int i = 0; i < 1500; ++i) records.Add(dist.Sample(&rng));
  for (int i = 0; i < 150; ++i) {
    VectorId original = static_cast<VectorId>(rng.NextBounded(1500));
    std::vector<ItemId> ids;
    for (ItemId token : records.Get(original)) {
      if (rng.NextBernoulli(0.85)) ids.push_back(token);  // keep ~85%
    }
    while (rng.NextBernoulli(0.5)) {  // a couple of typo tokens
      ids.push_back(static_cast<ItemId>(rng.NextBounded(30000)));
    }
    VectorId dup = records.Add(SparseVector::FromIds(std::move(ids)));
    truth.push_back({original, dup});
  }
  (void)records.SetDimension(30000);
  std::printf("records: %zu (with %zu planted noisy duplicates)\n",
              records.size(), truth.size());

  // Estimate token frequencies from the corpus (no model knowledge).
  auto estimated = EstimateFrequencies(records);
  if (!estimated.ok()) {
    std::printf("estimate failed: %s\n",
                estimated.status().ToString().c_str());
    return 1;
  }

  // Self-join: all pairs with Braun-Blanquet similarity >= 0.6.
  JoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = 0.6;
  options.index.repetition_boost = 3.0;
  options.threshold = 0.6;
  DistributedJoinStats stats;
  auto pairs = SelfSimilarityJoin(records, *estimated, options, &stats);
  if (!pairs.ok()) {
    std::printf("join failed: %s\n", pairs.status().ToString().c_str());
    return 1;
  }

  size_t truth_found = 0;
  for (const auto& [original, dup] : truth) {
    for (const auto& pr : *pairs) {
      if ((pr.left == original && pr.right == dup) ||
          (pr.left == dup && pr.right == original)) {
        ++truth_found;
        break;
      }
    }
  }
  std::printf("join produced %zu candidate duplicate pairs "
              "(%zu candidates verified, %.2fs build + %.2fs probe)\n",
              pairs->size(), stats.verifications,
              stats.build_seconds + stats.plan_seconds, stats.probe_seconds);
  std::printf("planted duplicates recovered: %zu/%zu (%.0f%%)\n",
              truth_found, truth.size(),
              100.0 * static_cast<double>(truth_found) /
                  static_cast<double>(truth.size()));
  std::printf("example pairs:\n");
  for (size_t k = 0; k < std::min<size_t>(5, pairs->size()); ++k) {
    const auto& pr = (*pairs)[k];
    std::printf("  record %4u ~ record %4u  (similarity %.2f)\n", pr.left,
                pr.right, pr.similarity);
  }
  return 0;
}
