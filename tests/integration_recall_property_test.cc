// Randomized recall property test: a seeded sweep over skew profiles
// (two-block, Zipf, Mann stand-ins) x both IndexModes, asserting that
// empirical recall against BruteForceSearch ground truth stays above the
// Lemma 5-derived bound.
//
// Lemma 5 gives each repetition success probability >= 1/ln n for a
// qualifying (query, target) pair; with L independent repetitions the
// index succeeds with probability >= 1 - (1 - 1/ln n)^L. The assertion
// allows kSlack below that for finite-sample noise (~50 eligible queries
// per run) and model approximation; every failure message prints the
// reproducing seed.

#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "core/rho.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "data/mann_profiles.h"
#include "sim/brute_force.h"
#include "util/random.h"

namespace skewsearch {
namespace {

enum class Profile { kTwoBlock, kZipf, kMann };

struct PropertyCase {
  Profile profile;
  IndexMode mode;
  const char* name;
};

std::string CaseName(const ::testing::TestParamInfo<PropertyCase>& info) {
  return info.param.name;
}

// gtest prints a parameter it has no printer for as raw bytes, and the
// name's bytes are an address, so the test's listed name would change
// from build to build.
void PrintTo(const PropertyCase& c, std::ostream* os) { *os << c.name; }

constexpr size_t kDatasetSize = 350;
constexpr int kQueries = 60;
constexpr double kAlpha = 0.8;
constexpr double kB1 = 0.7;
constexpr double kRepetitionBoost = 2.5;
constexpr double kSlack = 0.15;

struct Instance {
  ProductDistribution dist;
  Dataset data;
};

Instance MakeInstance(Profile profile, uint64_t seed) {
  Instance inst;
  Rng rng(seed);
  switch (profile) {
    case Profile::kTwoBlock:
      inst.dist = TwoBlockProbabilities(240, 0.25, 12000, 0.005).value();
      break;
    case Profile::kZipf:
      // Scaled so E|x| ~ 55 (C ~ 9): the paper's model has C ln n items
      // per set, and far below that regime Lemma 5's premise (enough
      // mass for paths to form) simply doesn't hold.
      inst.dist = ScaleToAverageSize(
                      ZipfProbabilities(3000, 0.9, 0.4).value(), 55.0)
                      .value();
      break;
    case Profile::kMann: {
      // A Mann stand-in frequency profile with the topic model switched
      // off: the recall bound assumes the product-distribution model, so
      // the sweep uses its piecewise-Zipf marginals with independent
      // sampling (dependence robustness is Table 1's business, not
      // Lemma 5's).
      MannProfileSpec spec = FindMannProfile("KOSARAK").value();
      spec.n = kDatasetSize;
      spec.topic_strength = 0.0;
      MannInstance mann = BuildMannInstance(spec, &rng).value();
      inst.dist = std::move(mann.distribution);
      inst.data = std::move(mann.data);
      return inst;
    }
  }
  inst.data = GenerateDataset(inst.dist, kDatasetSize, &rng);
  return inst;
}

/// The Lemma 5 success bound for this index's actual repetition count.
double Lemma5Bound(size_t n, int repetitions) {
  const double per_rep = 1.0 / std::log(static_cast<double>(n));
  return 1.0 - std::pow(1.0 - per_rep, repetitions);
}

class RecallPropertyTest : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(RecallPropertyTest, RecallStaysAboveLemma5Bound) {
  const PropertyCase& param = GetParam();
  const uint64_t base_seed =
      0x9000 + static_cast<uint64_t>(param.profile) * 1009 +
      (param.mode == IndexMode::kAdversarial ? 31 : 0);

  for (uint64_t round = 0; round < 3; ++round) {
    const uint64_t seed = base_seed + round * 7919;
    Instance inst = MakeInstance(param.profile, seed);

    SkewedIndexOptions options;
    options.mode = param.mode;
    options.alpha = kAlpha;
    options.b1 = kB1;
    options.repetition_boost = kRepetitionBoost;
    options.seed = seed ^ 0x5eed;
    ShardedIndex index;
    ASSERT_TRUE(index.Build(&inst.data, &inst.dist, {options, 1}).ok());

    const double bound =
        Lemma5Bound(inst.data.size(), index.repetitions()) - kSlack;
    // Lemma 5 bounds recall for pairs of genuinely alpha-correlated (or
    // b1-similar) strength; queries whose best brute-force partner only
    // scrapes the verify threshold are outside its promise, so
    // eligibility demands a partner at the similarity an alpha-correlated
    // pair is expected to have (Lemma 10's b1(D, alpha)).
    const double eligibility_threshold =
        param.mode == IndexMode::kCorrelated
            ? std::max(index.verify_threshold(),
                       0.9 * ExpectedCorrelatedSimilarity(inst.dist, kAlpha))
            : index.verify_threshold();
    BruteForceSearcher brute(&inst.data);
    CorrelatedQuerySampler sampler(&inst.dist, kAlpha);
    Rng qrng(seed * 31 + 17);

    int eligible = 0;
    int found = 0;
    for (int t = 0; t < kQueries; ++t) {
      SparseVector query;
      if (param.mode == IndexMode::kCorrelated) {
        VectorId target =
            static_cast<VectorId>(qrng.NextBounded(inst.data.size()));
        query = sampler.SampleCorrelated(inst.data.Get(target), &qrng);
      } else {
        // Adversarial: a stored vector with ~15% of its items replaced,
        // keeping similarity comfortably above b1.
        VectorId target =
            static_cast<VectorId>(qrng.NextBounded(inst.data.size()));
        auto items = inst.data.Get(target);
        std::vector<ItemId> ids(items.begin(), items.end());
        size_t replace = ids.size() / 7;
        for (size_t k = 0; k < replace; ++k) {
          ids[k] = static_cast<ItemId>(inst.dist.dimension() - 1 - k);
        }
        query = SparseVector::FromIds(std::move(ids));
      }
      // Ground truth: only queries brute force can answer at the
      // eligibility threshold count toward recall (Lemma 5 promises
      // nothing for the rest).
      auto truth = brute.AboveThreshold(query.span(), eligibility_threshold);
      if (truth.empty()) continue;
      ++eligible;
      found += index.Query(query.span()).has_value();
    }
    ASSERT_GT(eligible, kQueries / 3)
        << param.name << ": too few eligible queries; seed " << seed;
    const double recall =
        static_cast<double>(found) / static_cast<double>(eligible);
    EXPECT_GE(recall, bound)
        << param.name << ": recall " << found << "/" << eligible << " = "
        << recall << " fell below the Lemma 5 bound " << bound
        << "; reproduce with seed " << seed << " (round " << round << ")";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SkewProfiles, RecallPropertyTest,
    ::testing::Values(
        PropertyCase{Profile::kTwoBlock, IndexMode::kCorrelated,
                     "TwoBlockCorrelated"},
        PropertyCase{Profile::kTwoBlock, IndexMode::kAdversarial,
                     "TwoBlockAdversarial"},
        PropertyCase{Profile::kZipf, IndexMode::kCorrelated,
                     "ZipfCorrelated"},
        PropertyCase{Profile::kZipf, IndexMode::kAdversarial,
                     "ZipfAdversarial"},
        PropertyCase{Profile::kMann, IndexMode::kCorrelated,
                     "MannCorrelated"},
        PropertyCase{Profile::kMann, IndexMode::kAdversarial,
                     "MannAdversarial"}),
    CaseName);

}  // namespace
}  // namespace skewsearch
