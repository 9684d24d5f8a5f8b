// Copyright 2026 The skewsearch Authors.
// The reference join every join test compares against: a serial QueryAll
// per probe against the K = 1 ShardedIndex, keeping only ids above the
// probe in a self-join, sorted by (left, right). It shares no code with
// the join engine past the posting table build, so an engine that drops,
// duplicates or misverifies a pair disagrees with it.

#ifndef SKEWSEARCH_TESTS_REFERENCE_JOIN_H_
#define SKEWSEARCH_TESTS_REFERENCE_JOIN_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/sharded_index.h"
#include "core/similarity_join.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace test {

/// The adversarial-mode options the join suites share.
inline JoinOptions AdversarialJoinOptions(double b1, uint64_t seed) {
  JoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = b1;
  options.index.repetition_boost = 3.0;
  options.index.seed = seed;
  options.threshold = b1;
  return options;
}

/// \p n Zipf vectors over 2,000 items, then n / 10 copies of vectors
/// 0, 3, 6, ..., so a join at b1 0.8 has pairs.
inline Dataset ZipfDataWithDuplicates(uint64_t seed, size_t n,
                                      ProductDistribution* dist_out) {
  auto dist = ZipfProbabilities(2000, 1.0, 0.4).value();
  Rng rng(seed);
  Dataset data;
  for (size_t i = 0; i < n; ++i) data.Add(dist.Sample(&rng));
  for (size_t i = 0; i < n / 10; ++i) {
    data.Add(data.GetVector(static_cast<VectorId>(i * 3)));
  }
  EXPECT_TRUE(data.SetDimension(2000).ok());
  *dist_out = std::move(dist);
  return data;
}

/// \p n two-block vectors over 1,560 items, then n / 10 copies of
/// vectors 0, 5, 10, ...
inline Dataset TwoBlockDataWithDuplicates(uint64_t seed, size_t n,
                                          ProductDistribution* dist_out) {
  auto dist = TwoBlockProbabilities(60, 0.25, 1500, 0.01).value();
  Rng rng(seed);
  Dataset data;
  for (size_t i = 0; i < n; ++i) data.Add(dist.Sample(&rng));
  for (size_t i = 0; i < n / 10; ++i) {
    data.Add(data.GetVector(static_cast<VectorId>(i * 5)));
  }
  EXPECT_TRUE(data.SetDimension(1560).ok());
  *dist_out = std::move(dist);
  return data;
}

/// Probes an index over \p right with every vector of \p left, or with
/// \p right itself when \p left is null (a self-join, pairs i < j).
/// Reads `index` and `threshold` of \p options.
inline Result<std::vector<JoinPair>> ReferenceJoin(
    const Dataset* left, const Dataset& right,
    const ProductDistribution& dist, const DistributedJoinOptions& options) {
  ShardedIndexOptions sharded;
  sharded.index = options.index;
  sharded.num_shards = 1;
  ShardedIndex index;
  SKEWSEARCH_RETURN_NOT_OK(index.Build(&right, &dist, sharded));
  const double threshold = options.threshold >= 0.0
                               ? options.threshold
                               : index.verify_threshold();
  const Dataset& probes = left != nullptr ? *left : right;
  std::vector<JoinPair> pairs;
  for (VectorId probe = 0; probe < probes.size(); ++probe) {
    for (const Match& match : index.QueryAll(probes.Get(probe), threshold)) {
      if (left == nullptr && match.id <= probe) continue;
      pairs.push_back({probe, match.id, match.similarity});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const JoinPair& a, const JoinPair& b) {
              return a.left != b.left ? a.left < b.left : a.right < b.right;
            });
  return pairs;
}

/// The reference self-join over \p data.
inline Result<std::vector<JoinPair>> ReferenceSelfJoin(
    const Dataset& data, const ProductDistribution& dist,
    const DistributedJoinOptions& options) {
  return ReferenceJoin(nullptr, data, dist, options);
}

/// Pair for pair, similarity bits included.
inline void ExpectSamePairs(const std::vector<JoinPair>& expected,
                            const std::vector<JoinPair>& got) {
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].left, got[i].left) << "pair " << i;
    EXPECT_EQ(expected[i].right, got[i].right) << "pair " << i;
    EXPECT_EQ(expected[i].similarity, got[i].similarity) << "pair " << i;
  }
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_REFERENCE_JOIN_H_
