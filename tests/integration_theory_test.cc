// Integration: empirical checks of the paper's analytic claims —
// Lemma 10's similarity separation, filter-count scaling against the
// rho equations, and the skew advantage over classic Chosen Path.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/chosen_path.h"
#include "core/rho.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "sim/measures.h"
#include "stats/exponent_fit.h"
#include "util/random.h"

namespace skewsearch {
namespace {

TEST(Lemma10Test, SimilaritySeparation) {
  // With sum p_i = C ln n large, B(x, q) >= alpha/1.3 for the correlated
  // pair and <= alpha/1.5 for uncorrelated pairs, w.h.p.
  const double alpha = 0.6;
  auto dist = UniformProbabilities(6000, 0.04).value();  // m = 240
  Rng rng(1);
  CorrelatedQuerySampler sampler(&dist, alpha);
  int correlated_ok = 0, uncorrelated_ok = 0;
  const int kTrials = 120;
  for (int t = 0; t < kTrials; ++t) {
    SparseVector x = dist.Sample(&rng);
    SparseVector q = sampler.SampleCorrelated(x.span(), &rng);
    SparseVector z = dist.Sample(&rng);
    if (BraunBlanquet(x.span(), q.span()) >= alpha / 1.3) ++correlated_ok;
    if (BraunBlanquet(z.span(), q.span()) <= alpha / 1.5) ++uncorrelated_ok;
  }
  EXPECT_GE(correlated_ok, kTrials * 95 / 100);
  EXPECT_GE(uncorrelated_ok, kTrials * 95 / 100);
}

TEST(FilterScalingTest, FilterCountTracksRhoEquation) {
  // E|F(x)| should grow roughly like n^rho (up to the delta and log-factor
  // slack). We fit the measured exponent over a geometric n-grid and check
  // it is within a generous band of the analytic rho.
  const double alpha = 0.7;
  auto dist = TwoBlockProbabilities(200, 0.25, 10000, 0.005).value();
  double rho = CorrelatedRho(dist, alpha).value();

  std::vector<double> ns, filters;
  for (size_t n : {128, 256, 512, 1024}) {
    Rng rng(100 + n);
    Dataset data = GenerateDataset(dist, n, &rng);
    ShardedIndex index;
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = alpha;
    options.repetitions = 4;  // fixed so filters/element is comparable
    options.delta = 0.1;
    ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
    ns.push_back(static_cast<double>(n));
    filters.push_back(index.build_stats().avg_filters_per_element + 1.0);
  }
  auto fit = FitPowerLaw(ns, filters);
  ASSERT_TRUE(fit.ok());
  // Generous band: the delta boost adds ~ln(1+delta) and small-n effects
  // are real; the point is the measured exponent is in the right regime
  // (clearly sublinear, clearly correlated with the equation's rho).
  EXPECT_LT(fit->exponent, rho + 0.35);
  EXPECT_GT(fit->exponent, rho - 0.35);
}

TEST(SkewAdvantageTest, SkewReducesOurFilterWork) {
  // Figure 1's operational meaning at test scale: holding m = sum p_i,
  // alpha, n and delta fixed, our index generates measurably fewer
  // filters/candidates on a skewed distribution than on a uniform one,
  // consistently with rho(skewed) < rho(uniform). (The head-to-head
  // Chosen Path comparison needs larger n to beat constants and lives in
  // bench/scaling_exponent; the analytic comparison is in core_rho_test.)
  const double alpha = 2.0 / 3.0;
  const size_t n = 600;
  auto uniform = UniformProbabilities(300, 0.25).value();  // m = 75
  auto skewed =
      TwoBlockProbabilities(150, 0.25, 37500, 0.001).value();  // m = 75
  double rho_uniform = CorrelatedRho(uniform, alpha).value();
  double rho_skewed = CorrelatedRho(skewed, alpha).value();
  ASSERT_LT(rho_skewed, rho_uniform - 0.05);

  auto measure = [&](const ProductDistribution& dist, uint64_t seed) {
    Rng rng(seed);
    Dataset data = GenerateDataset(dist, n, &rng);
    ShardedIndex index;
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = alpha;
    options.repetitions = 10;
    options.delta = 0.1;
    EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
    CorrelatedQuerySampler sampler(&dist, alpha);
    size_t candidates = 0, filters = 0;
    int found = 0;
    const int kQueries = 40;
    for (int t = 0; t < kQueries; ++t) {
      VectorId target = static_cast<VectorId>(rng.NextBounded(n));
      SparseVector q = sampler.SampleCorrelated(data.Get(target), &rng);
      QueryStats stats;
      auto hits = index.QueryAll(q.span(), alpha / 1.3, &stats);
      candidates += stats.candidates;
      filters += stats.filters;
      for (const auto& m : hits) found += (m.id == target);
    }
    EXPECT_GE(found, kQueries * 6 / 10);
    return std::make_pair(filters, candidates);
  };

  auto [uniform_filters, uniform_cands] = measure(uniform, 7);
  auto [skewed_filters, skewed_cands] = measure(skewed, 8);
  EXPECT_LT(skewed_filters, uniform_filters);
  EXPECT_LT(skewed_cands, uniform_cands);
}

TEST(AdaptiveQueryTest, EasyQueriesTouchFewerCandidates) {
  // Theorem 2's adaptivity: on the same adversarial index, queries whose
  // items are rare (small rho(q)) generate fewer candidates than queries
  // made of frequent items (large rho(q)).
  auto dist = TwoBlockProbabilities(150, 0.3, 30000, 0.002).value();
  Rng rng(9);
  const size_t n = 500;
  Dataset data = GenerateDataset(dist, n, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.5;
  options.repetitions = 8;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());

  // Frequent-only queries vs mixed queries of the same size.
  size_t frequent_cands = 0, mixed_cands = 0;
  for (int t = 0; t < 25; ++t) {
    std::vector<ItemId> freq_ids, mixed_ids;
    for (ItemId i = 0; i < 60; ++i) {
      freq_ids.push_back((i * 2 + static_cast<ItemId>(t)) % 150);
      mixed_ids.push_back((i % 30) * 2);  // 30 frequent
    }
    for (ItemId i = 0; i < 30; ++i) {
      mixed_ids.push_back(150 + static_cast<ItemId>(t) * 50 + i);  // 30 rare
    }
    QueryStats s1, s2;
    index.QueryAll(SparseVector::FromIds(freq_ids).span(), 2.0, &s1);
    index.QueryAll(SparseVector::FromIds(mixed_ids).span(), 2.0, &s2);
    frequent_cands += s1.candidates;
    mixed_cands += s2.candidates;
  }
  EXPECT_LT(mixed_cands, frequent_cands);
}

TEST(StopRuleTest, FarPairsRarelyCollide) {
  // The probability stop rule caps Pr[v in F(x)] at 1/n per filter, so an
  // unrelated query's expected candidate count stays near |F(q)| * O(1).
  auto dist = UniformProbabilities(2500, 0.04).value();
  Rng rng(11);
  const size_t n = 800;
  Dataset data = GenerateDataset(dist, n, &rng);
  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.repetitions = 6;
  options.delta = 0.1;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
  double total_candidates = 0, total_filters = 0;
  const int kQueries = 30;
  for (int t = 0; t < kQueries; ++t) {
    SparseVector q = dist.Sample(&rng);  // unrelated to the data
    QueryStats stats;
    index.QueryAll(q.span(), 2.0, &stats);
    total_candidates += static_cast<double>(stats.candidates);
    total_filters += static_cast<double>(stats.filters);
  }
  // Average bucket load per probed filter stays O(1)-ish.
  EXPECT_LT(total_candidates, 20.0 * (total_filters + kQueries));
}

}  // namespace
}  // namespace skewsearch
