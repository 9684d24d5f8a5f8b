// Integration: end-to-end recall of the paper's index across distribution
// shapes and correlation levels — the empirical counterpart of Theorems 1
// and 2. Parameterized sweeps (TEST_P) act as property tests.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>

#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

enum class Shape { kUniform, kTwoBlock, kExtremeSkew };

struct RecallCase {
  Shape shape;
  double alpha;
  const char* name;
};

std::string CaseName(const ::testing::TestParamInfo<RecallCase>& info) {
  return info.param.name;
}

// gtest prints a parameter it has no printer for as raw bytes, and the
// name's bytes are an address, so the test's listed name would change
// from build to build.
void PrintTo(const RecallCase& c, std::ostream* os) { *os << c.name; }

ProductDistribution MakeDistribution(Shape shape) {
  switch (shape) {
    case Shape::kUniform:
      // m = 90.
      return UniformProbabilities(1800, 0.05).value();
    case Shape::kTwoBlock:
      // m = 60 + 60 = 120.
      return TwoBlockProbabilities(240, 0.25, 12000, 0.005).value();
    case Shape::kExtremeSkew:
      // m = 40 + 64: a few frequent dims, a long rare tail.
      return TwoBlockProbabilities(100, 0.4, 64000, 0.001).value();
  }
  return UniformProbabilities(10, 0.1).value();
}

class CorrelatedRecallTest : public ::testing::TestWithParam<RecallCase> {};

TEST_P(CorrelatedRecallTest, RecallAboveEightyPercent) {
  const RecallCase& param = GetParam();
  ProductDistribution dist = MakeDistribution(param.shape);
  Rng rng(0xfeed + static_cast<uint64_t>(param.shape) * 131 +
          static_cast<uint64_t>(param.alpha * 100));
  Dataset data = GenerateDataset(dist, 400, &rng);

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = param.alpha;
  options.repetition_boost = 2.5;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());

  CorrelatedQuerySampler sampler(&dist, param.alpha);
  const int kQueries = 50;
  int found = 0;
  for (int t = 0; t < kQueries; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data.size()));
    SparseVector q = sampler.SampleCorrelated(data.Get(target), &rng);
    auto hit = index.Query(q.span());
    if (hit && hit->id == target) ++found;
  }
  EXPECT_GE(found, kQueries * 8 / 10)
      << "recall " << found << "/" << kQueries;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CorrelatedRecallTest,
    ::testing::Values(
        RecallCase{Shape::kUniform, 0.85, "UniformHighAlpha"},
        RecallCase{Shape::kUniform, 0.65, "UniformMidAlpha"},
        RecallCase{Shape::kTwoBlock, 0.85, "TwoBlockHighAlpha"},
        RecallCase{Shape::kTwoBlock, 0.65, "TwoBlockMidAlpha"},
        RecallCase{Shape::kExtremeSkew, 0.85, "ExtremeSkewHighAlpha"},
        RecallCase{Shape::kExtremeSkew, 0.65, "ExtremeSkewMidAlpha"}),
    CaseName);

class AdversarialRecallTest
    : public ::testing::TestWithParam<RecallCase> {};

TEST_P(AdversarialRecallTest, NearDuplicatesFound) {
  const RecallCase& param = GetParam();
  ProductDistribution dist = MakeDistribution(param.shape);
  Rng rng(0xabcd + static_cast<uint64_t>(param.shape) * 17);
  Dataset data = GenerateDataset(dist, 400, &rng);

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = 0.7;
  options.repetition_boost = 2.5;
  ASSERT_TRUE(index.Build(&data, &dist, {options, 1}).ok());

  // Queries: stored vectors with ~20% of their items replaced — similarity
  // ~0.8 > b1, adversarially constructed rather than distribution-drawn.
  const int kQueries = 50;
  int found = 0;
  for (int t = 0; t < kQueries; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data.size()));
    auto items = data.Get(target);
    if (items.size() < 10) {
      ++found;  // too small to perturb meaningfully; skip as success
      continue;
    }
    std::vector<ItemId> q_ids(items.begin(), items.end());
    size_t replace = q_ids.size() / 5;
    for (size_t k = 0; k < replace; ++k) {
      q_ids[k] = static_cast<ItemId>(dist.dimension() - 1 - k);
    }
    SparseVector q = SparseVector::FromIds(std::move(q_ids));
    auto hit = index.Query(q.span());
    if (hit.has_value()) ++found;  // any >= b1 match is a valid answer
  }
  EXPECT_GE(found, kQueries * 8 / 10);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AdversarialRecallTest,
    ::testing::Values(RecallCase{Shape::kUniform, 0, "Uniform"},
                      RecallCase{Shape::kTwoBlock, 0, "TwoBlock"},
                      RecallCase{Shape::kExtremeSkew, 0, "ExtremeSkew"}),
    CaseName);

TEST(RecallBoostTest, MoreRepetitionsMonotonicallyHelp) {
  auto dist = TwoBlockProbabilities(240, 0.25, 12000, 0.005).value();
  Rng rng(0x5151);
  Dataset data = GenerateDataset(dist, 300, &rng);
  CorrelatedQuerySampler sampler(&dist, 0.6);

  auto recall_with_reps = [&](int reps) {
    ShardedIndex index;
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = 0.6;
    options.repetitions = reps;
    EXPECT_TRUE(index.Build(&data, &dist, {options, 1}).ok());
    Rng qrng(0x7777);
    int found = 0;
    const int kQueries = 60;
    for (int t = 0; t < kQueries; ++t) {
      VectorId target = static_cast<VectorId>(qrng.NextBounded(data.size()));
      SparseVector q = sampler.SampleCorrelated(data.Get(target), &qrng);
      auto hit = index.Query(q.span());
      if (hit && hit->id == target) ++found;
    }
    return found;
  };

  int r1 = recall_with_reps(1);
  int r8 = recall_with_reps(8);
  int r24 = recall_with_reps(24);
  EXPECT_GE(r8, r1);
  EXPECT_GE(r24, r8);
  EXPECT_GE(r24, 48);  // 80% with generous repetitions
}

}  // namespace
}  // namespace skewsearch
