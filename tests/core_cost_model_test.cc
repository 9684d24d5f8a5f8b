#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/dynamic_index.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

TEST(CostModelTest, Validates) {
  auto dist = UniformProbabilities(100, 0.1).value();
  CostModelOptions options;
  options.n = 1;
  EXPECT_FALSE(PredictFilterGeneration(dist, options).ok());
  options.n = 1000;
  options.budget_bins = 2;
  EXPECT_FALSE(PredictFilterGeneration(dist, options).ok());
  options.budget_bins = 512;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.0;
  EXPECT_FALSE(PredictFilterGeneration(dist, options).ok());
  options.mode = IndexMode::kAdversarial;
  options.b1 = 1.0;
  EXPECT_FALSE(PredictFilterGeneration(dist, options).ok());
}

TEST(CostModelTest, DepthProfileConsistent) {
  auto dist = TwoBlockProbabilities(200, 0.25, 10000, 0.005).value();
  CostModelOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.delta = 0.1;
  options.n = 2048;
  auto prediction = PredictFilterGeneration(dist, options).value();
  double total = 0.0;
  for (double v : prediction.filters_by_depth) total += v;
  EXPECT_NEAR(total, prediction.expected_filters,
              1e-9 * (1.0 + prediction.expected_filters));
  EXPECT_GT(prediction.expected_filters, 0.0);
  EXPECT_GT(prediction.expected_nodes, 0.0);
  EXPECT_GE(prediction.expected_draws, prediction.expected_nodes);
  EXPECT_GT(prediction.mean_filter_depth, 1.0);
}

TEST(CostModelTest, RareItemsShortenPredictedPaths) {
  // Under extreme skew most filters end through a rare item quickly;
  // uniform at the same m must predict deeper filters.
  auto skewed = TwoBlockProbabilities(120, 0.25, 60000, 0.0005).value();
  auto uniform = UniformProbabilities(240, 0.25).value();  // same m = 60
  CostModelOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.delta = 0.1;
  options.n = 4096;
  auto s = PredictFilterGeneration(skewed, options).value();
  auto u = PredictFilterGeneration(uniform, options).value();
  EXPECT_LT(s.mean_filter_depth, u.mean_filter_depth);
}

TEST(CostModelTest, MonotoneInDelta) {
  auto dist = TwoBlockProbabilities(150, 0.25, 10000, 0.005).value();
  CostModelOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.n = 2048;
  double prev = 0.0;
  for (double delta : {0.0, 0.1, 0.2, 0.4}) {
    options.delta = delta;
    double filters =
        PredictFilterGeneration(dist, options)->expected_filters;
    EXPECT_GT(filters, prev) << "delta " << delta;
    prev = filters;
  }
}

TEST(CostModelTest, MatchesMeasuredBuildWithinBand) {
  // The annealed prediction should land within a small factor of the
  // measured filters/element of an actual build (without-replacement and
  // finite-size effects cause mild deviations).
  auto dist = TwoBlockProbabilities(200, 0.25, 10000, 0.005).value();
  const size_t n = 1024;
  Rng rng(5);
  Dataset data = GenerateDataset(dist, n, &rng);
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.delta = 0.1;
  options.repetitions = 6;
  ShardedIndex index;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  double measured = index.build_stats().avg_filters_per_element;
  double predicted = PredictFiltersPerElement(dist, options, n).value();
  EXPECT_GT(predicted, measured / 2.5);
  EXPECT_LT(predicted, measured * 2.5);
}

TEST(CostModelTest, AdversarialModeMatchesMeasuredBand) {
  auto dist = TwoBlockProbabilities(300, 0.2, 20000, 0.004).value();
  const size_t n = 1024;
  Rng rng(6);
  Dataset data = GenerateDataset(dist, n, &rng);
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  options.repetitions = 6;
  ShardedIndex index;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  double measured = index.build_stats().avg_filters_per_element;
  double predicted = PredictFiltersPerElement(dist, options, n).value();
  EXPECT_GT(predicted, measured / 3.0);
  EXPECT_LT(predicted, measured * 3.0);
}

TEST(OnlineCostModelTest, CandidateFactorBasics) {
  OnlineIndexProfile profile;
  EXPECT_DOUBLE_EQ(PredictOnlineCandidateFactor(profile), 1.0);
  profile.base_entries = 900;
  profile.delta_entries = 100;
  EXPECT_DOUBLE_EQ(PredictOnlineCandidateFactor(profile), 1.0);  // no dead
  profile.dead_entries = 500;
  EXPECT_DOUBLE_EQ(PredictOnlineCandidateFactor(profile), 2.0);
  profile.dead_entries = 750;  // monotone in the dead fraction
  EXPECT_DOUBLE_EQ(PredictOnlineCandidateFactor(profile), 4.0);
  profile.dead_entries = 1000;  // fully tombstoned: degenerate guard
  EXPECT_DOUBLE_EQ(PredictOnlineCandidateFactor(profile), 1.0);
}

TEST(OnlineCostModelTest, PredictOnlineQueryCostScalesAndValidates) {
  auto dist = TwoBlockProbabilities(150, 0.25, 10000, 0.005).value();
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.delta = 0.1;
  OnlineIndexProfile profile;
  profile.base_entries = 800;
  profile.delta_entries = 200;
  profile.dead_entries = 250;
  auto prediction =
      PredictOnlineQueryCost(dist, options, 2048, profile).value();
  EXPECT_DOUBLE_EQ(prediction.dead_fraction, 0.25);
  EXPECT_DOUBLE_EQ(prediction.delta_fraction, 0.2);
  EXPECT_DOUBLE_EQ(prediction.candidate_factor, 1000.0 / 750.0);
  EXPECT_GT(prediction.expected_filters, 0.0);

  profile.dead_entries = 2000;  // more dead than entries: corrupt input
  EXPECT_TRUE(PredictOnlineQueryCost(dist, options, 2048, profile)
                  .status()
                  .IsInvalidArgument());
}

TEST(OnlineCostModelTest, FactorMatchesMeasuredScanOverhead) {
  // Two online indexes over the same stream; one compacted. The
  // candidate counts a query batch measures must differ by roughly the
  // predicted layout factor (dead postings are scanned, then skipped).
  auto dist = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
  Rng rng(91);
  Dataset data = GenerateDataset(dist, 400, &rng);
  DynamicIndexOptions options;
  options.index.mode = IndexMode::kCorrelated;
  options.index.alpha = 0.7;
  options.index.repetitions = 8;
  options.index.seed = 919;
  options.num_shards = 3;
  options.compact_dead_fraction = 100.0;  // keep tombstones in place
  DynamicIndex uncompacted, compacted;
  ASSERT_TRUE(uncompacted.Build(&data, &dist, options).ok());
  ASSERT_TRUE(compacted.Build(&data, &dist, options).ok());
  for (VectorId id = 0; id < data.size(); id += 2) {
    ASSERT_TRUE(uncompacted.Remove(id).ok());
    ASSERT_TRUE(compacted.Remove(id).ok());
  }
  for (int s = 0; s < compacted.num_shards(); ++s) {
    ASSERT_TRUE(compacted.CompactShard(s).ok());
  }

  const OnlineIndexProfile profile = uncompacted.Profile();
  EXPECT_GT(profile.dead_entries, 0u);
  const double predicted = PredictOnlineCandidateFactor(profile);
  EXPECT_GT(predicted, 1.0);

  CorrelatedQuerySampler sampler(&dist, 0.7);
  Rng qrng(92);
  size_t candidates_uncompacted = 0, candidates_compacted = 0;
  for (int t = 0; t < 60; ++t) {
    VectorId target = static_cast<VectorId>(qrng.NextBounded(data.size()));
    SparseVector q = sampler.SampleCorrelated(data.Get(target), &qrng);
    QueryStats a, b;
    uncompacted.QueryAll(q.span(), 0.0, &a);
    compacted.QueryAll(q.span(), 0.0, &b);
    candidates_uncompacted += a.candidates;
    candidates_compacted += b.candidates;
  }
  ASSERT_GT(candidates_compacted, 0u);
  const double measured = static_cast<double>(candidates_uncompacted) /
                          static_cast<double>(candidates_compacted);
  EXPECT_NEAR(measured, predicted, 0.3 * predicted)
      << "measured " << measured << " vs predicted " << predicted;
}

TEST(CostModelTest, FiltersGrowWithN) {
  // E|F(x)| ~ n^rho: predictions must increase with n.
  auto dist = TwoBlockProbabilities(150, 0.25, 10000, 0.005).value();
  CostModelOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.6;
  options.delta = 0.1;
  double prev = 0.0;
  for (size_t n : {256, 1024, 4096, 16384}) {
    options.n = n;
    double filters =
        PredictFilterGeneration(dist, options)->expected_filters;
    EXPECT_GT(filters, prev * 0.99) << "n " << n;
    prev = filters;
  }
}

}  // namespace
}  // namespace skewsearch
