#include "core/similarity_join.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "data/generators.h"
#include "join_oracle.h"
#include "util/random.h"

namespace skewsearch {
namespace {

JoinOptions AdversarialJoinOptions(double b1) {
  JoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = b1;
  options.index.repetition_boost = 3.0;
  options.threshold = b1;
  return options;
}

TEST(SimilarityJoinTest, SelfJoinRecoversMostTruePairs) {
  // Plant near-duplicate pairs in noise and compare against the exact
  // brute-force join.
  auto dist = UniformProbabilities(3000, 0.02).value();  // E|x| = 60
  Rng rng(1);
  Dataset data;
  for (int i = 0; i < 150; ++i) data.Add(dist.Sample(&rng));
  // Plant 10 duplicates of existing vectors (similarity 1).
  for (int i = 0; i < 10; ++i) data.Add(data.GetVector(i * 3));
  ASSERT_TRUE(data.SetDimension(3000).ok());

  BruteForceSearcher brute(&data);
  auto truth = brute.SelfJoinAbove(0.8);
  ASSERT_GE(truth.size(), 10u);

  DistributedJoinStats stats;
  auto pairs =
      SelfSimilarityJoin(data, dist, AdversarialJoinOptions(0.8), &stats);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(stats.pairs, pairs->size());

  std::set<std::pair<VectorId, VectorId>> got;
  for (const auto& p : *pairs) {
    EXPECT_LT(p.left, p.right);
    EXPECT_GE(p.similarity, 0.8);
    got.insert({p.left, p.right});
  }
  // No false positives relative to the exact join.
  std::set<std::pair<VectorId, VectorId>> expect;
  for (const auto& p : truth) expect.insert({p.left, p.right});
  for (const auto& p : got) EXPECT_TRUE(expect.count(p));
  // Recall at least 80%.
  size_t hit = 0;
  for (const auto& p : expect) hit += got.count(p);
  EXPECT_GE(hit * 10, expect.size() * 8);
}

TEST(SimilarityJoinTest, RSJoinIdsReferToCorrectSides) {
  auto dist = UniformProbabilities(1000, 0.04).value();
  Rng rng(2);
  Dataset right = GenerateDataset(dist, 80, &rng);
  Dataset left;
  // Left = copies of right's first 5 vectors.
  for (VectorId id = 0; id < 5; ++id) left.Add(right.GetVector(id));
  ASSERT_TRUE(left.SetDimension(1000).ok());

  auto pairs =
      SimilarityJoin(left, right, dist, AdversarialJoinOptions(0.9));
  ASSERT_TRUE(pairs.ok());
  // Each left vector should match its twin on the right.
  std::set<std::pair<VectorId, VectorId>> got;
  for (const auto& p : *pairs) got.insert({p.left, p.right});
  size_t twins = 0;
  for (VectorId id = 0; id < 5; ++id) {
    twins += got.count({id, id});
  }
  EXPECT_GE(twins, 4u);
}

TEST(SimilarityJoinTest, ThresholdDefaultsToIndexVerify) {
  auto dist = UniformProbabilities(500, 0.05).value();
  Rng rng(3);
  Dataset data = GenerateDataset(dist, 60, &rng);
  JoinOptions options = AdversarialJoinOptions(0.9);
  options.threshold = -1.0;  // derive from index
  auto pairs = SelfSimilarityJoin(data, dist, options);
  ASSERT_TRUE(pairs.ok());
  for (const auto& p : *pairs) EXPECT_GE(p.similarity, 0.9);
}

TEST(SimilarityJoinTest, PropagatesBuildErrors) {
  auto dist = UniformProbabilities(10, 0.2).value();
  Dataset tiny;
  tiny.Add(SparseVector::Of({1}));
  JoinOptions options = AdversarialJoinOptions(0.5);
  auto pairs = SelfSimilarityJoin(tiny, dist, options);
  EXPECT_FALSE(pairs.ok());
  EXPECT_TRUE(pairs.status().IsInvalidArgument());
}

TEST(SimilarityJoinTest, StatsPopulated) {
  auto dist = UniformProbabilities(800, 0.05).value();
  Rng rng(4);
  Dataset data = GenerateDataset(dist, 100, &rng);
  DistributedJoinStats stats;
  auto pairs =
      SelfSimilarityJoin(data, dist, AdversarialJoinOptions(0.9), &stats);
  ASSERT_TRUE(pairs.ok());
  EXPECT_GE(stats.build_seconds, 0.0);
  EXPECT_GE(stats.probe_seconds, 0.0);
  EXPECT_GT(stats.candidates + stats.verifications, 0u);
  EXPECT_EQ(stats.workers.size(), 1u);  // the default: one worker
}

TEST(SimilarityJoinTest, OutputSortedByLeftThenRight) {
  auto dist = UniformProbabilities(600, 0.05).value();
  Rng rng(5);
  Dataset data;
  for (int i = 0; i < 50; ++i) data.Add(dist.Sample(&rng));
  for (int i = 0; i < 8; ++i) data.Add(data.GetVector(i));  // dups
  ASSERT_TRUE(data.SetDimension(600).ok());
  auto pairs = SelfSimilarityJoin(data, dist, AdversarialJoinOptions(0.9));
  ASSERT_TRUE(pairs.ok());
  for (size_t i = 1; i < pairs->size(); ++i) {
    const auto& a = (*pairs)[i - 1];
    const auto& b = (*pairs)[i];
    EXPECT_TRUE(a.left < b.left || (a.left == b.left && a.right < b.right));
  }
}

TEST(OneShotJoinTest, MatchesReferenceJoin) {
  // The one-shot calls run one engine at W = max(1, workers), on a
  // frozen file's shards, or against localhost join-workers. Whatever
  // the setting, the self-join and the R-S join return the reference
  // join's pairs, similarity bits included.
  test::JoinOracle(test::ZipfJoinConfig(17, 120))
      .Check(test::kEveryW | test::kAutoHeavy | test::kForcedHeavy |
             test::kBuild | test::kFrozen3 | test::kOneShot |
             test::kOneShotTcp | test::kClean | test::kEveryJoin);
}

}  // namespace
}  // namespace skewsearch
