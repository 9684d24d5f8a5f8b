// Integration: full user pipelines — generate -> persist -> reload ->
// estimate frequencies from the data (§9) -> build -> query/join.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "core/rho.h"
#include "core/similarity_join.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/estimate.h"
#include "data/generators.h"
#include "data/io.h"
#include "data/mann_profiles.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

TEST(PipelineTest, PersistReloadEstimateBuildQuery) {
  std::string path;
  path = test::TempPath("pipeline_data", &path, ".txt");
  const double alpha = 0.75;
  auto truth = TwoBlockProbabilities(200, 0.25, 8000, 0.01).value();
  Rng rng(1);
  Dataset original = GenerateDataset(truth, 400, &rng);
  ASSERT_TRUE(WriteTransactions(original, path).ok());

  auto loaded = ReadTransactions(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), original.size());
  ASSERT_TRUE(loaded->SetDimension(truth.dimension()).ok());

  // Section 9: estimate p_i from the data instead of using the truth.
  auto estimated = EstimateFrequencies(*loaded);
  ASSERT_TRUE(estimated.ok());

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = alpha;
  options.repetition_boost = 2.5;
  ASSERT_TRUE(index.Build(&*loaded, &*estimated, {options, 1}).ok());

  CorrelatedQuerySampler sampler(&truth, alpha);
  int found = 0;
  const int kQueries = 40;
  for (int t = 0; t < kQueries; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(loaded->size()));
    SparseVector q = sampler.SampleCorrelated(loaded->Get(target), &rng);
    auto hit = index.Query(q.span());
    if (hit && hit->id == target) ++found;
  }
  // Estimated probabilities should barely cost recall (paper §9).
  EXPECT_GE(found, kQueries * 3 / 4);
  std::remove(path.c_str());
}

TEST(PipelineTest, MannProfileEndToEnd) {
  // Build a Mann stand-in, estimate its frequencies, index it, and dedup.
  auto spec = FindMannProfile("BMS-POS").value();
  spec.n = 400;
  Rng rng(2);
  auto inst = BuildMannInstance(spec, &rng);
  ASSERT_TRUE(inst.ok());

  auto est = EstimateFrequencies(inst->data);
  ASSERT_TRUE(est.ok());

  // Plant duplicates, then self-join.
  Dataset data = inst->data;
  for (VectorId id = 0; id < 10; ++id) data.Add(data.GetVector(id * 7));
  ASSERT_TRUE(data.SetDimension(est->dimension()).ok());

  JoinOptions join_options;
  join_options.index.mode = IndexMode::kAdversarial;
  join_options.index.b1 = 0.85;
  join_options.index.repetition_boost = 3.0;
  join_options.threshold = 0.85;
  auto pairs = SelfSimilarityJoin(data, *est, join_options);
  ASSERT_TRUE(pairs.ok());
  // At least most of the planted duplicate pairs surface.
  size_t planted_found = 0;
  for (const auto& p : *pairs) {
    if (p.right >= 400 && p.left == (p.right - 400) * 7) ++planted_found;
  }
  EXPECT_GE(planted_found, 7u);
}

TEST(PipelineTest, JoinAgainstSeparateQuerySet) {
  auto dist = UniformProbabilities(1200, 0.05).value();
  Rng rng(3);
  Dataset s = GenerateDataset(dist, 250, &rng);
  // R = noisy copies of a subset of S.
  CorrelatedQuerySampler sampler(&dist, 0.9);
  Dataset r;
  for (VectorId id = 0; id < 40; ++id) {
    r.Add(sampler.SampleCorrelated(s.Get(id * 3), &rng));
  }
  ASSERT_TRUE(r.SetDimension(1200).ok());

  JoinOptions join_options;
  join_options.index.mode = IndexMode::kCorrelated;
  join_options.index.alpha = 0.9;
  join_options.index.repetition_boost = 2.5;
  join_options.threshold = 0.55;
  auto pairs = SimilarityJoin(r, s, dist, join_options);
  ASSERT_TRUE(pairs.ok());
  size_t expected_pairs = 0;
  for (const auto& p : *pairs) {
    if (p.right == p.left * 3) ++expected_pairs;
  }
  EXPECT_GE(expected_pairs, 30u);
}

TEST(PipelineTest, EstimatedAndTrueDistributionsAgreeOnRho) {
  // The rho computed from estimated frequencies should be close to the
  // truth — the quantity that governs performance end to end.
  auto truth = TwoBlockProbabilities(100, 0.3, 5000, 0.01).value();
  Rng rng(4);
  Dataset data = GenerateDataset(truth, 2000, &rng);
  auto est = EstimateFrequencies(data);
  ASSERT_TRUE(est.ok());
  double rho_true = CorrelatedRho(truth, 0.7).value();
  double rho_est = CorrelatedRho(*est, 0.7).value();
  EXPECT_NEAR(rho_est, rho_true, 0.05);
}

}  // namespace
}  // namespace skewsearch
