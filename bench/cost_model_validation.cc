// Validates the analytic cost model (core/cost_model.h — Lemma 6's
// recursion evaluated numerically) against measured index builds across
// distributions, deltas, and n: predicted vs measured filters/element.
// A model that tracks measurements lets users size indexes without
// building them.

#include <cstdio>

#include "bench_util.h"
#include "core/cost_model.h"
#include "core/sharded_index.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

struct Scenario {
  const char* name;
  ProductDistribution dist;
  IndexMode mode;
  double alpha_or_b1;
};

void Run() {
  bench::Banner("Cost model: predicted vs measured filters per element");
  std::vector<Scenario> scenarios;
  scenarios.push_back({"uniform m=60, corr a=0.7",
                       UniformProbabilities(240, 0.25).value(),
                       IndexMode::kCorrelated, 0.7});
  scenarios.push_back({"two-block skew, corr a=0.7",
                       TwoBlockProbabilities(150, 0.25, 15000, 0.0015).value(),
                       IndexMode::kCorrelated, 0.7});
  scenarios.push_back({"two-block skew, corr a=0.5",
                       TwoBlockProbabilities(150, 0.25, 15000, 0.0015).value(),
                       IndexMode::kCorrelated, 0.5});
  scenarios.push_back({"two-block skew, adv b1=0.5",
                       TwoBlockProbabilities(150, 0.25, 15000, 0.0015).value(),
                       IndexMode::kAdversarial, 0.5});
  scenarios.push_back({"harmonic d=30000, adv b1=0.5",
                       HarmonicProbabilities(30000).value(),
                       IndexMode::kAdversarial, 0.5});

  bench::Table table({"scenario", "n", "predicted", "measured",
                      "pred/meas"});
  int within_2x = 0, total = 0;
  for (const Scenario& scenario : scenarios) {
    for (size_t n : {512, 2048}) {
      SkewedIndexOptions options;
      options.mode = scenario.mode;
      options.alpha = scenario.alpha_or_b1;
      options.b1 = scenario.alpha_or_b1;
      options.delta = 0.1;
      options.repetitions = 6;
      Rng rng(0xc057 + n);
      Dataset data = GenerateDataset(scenario.dist, n, &rng);
      ShardedIndex index;
      if (!index.Build(&data, &scenario.dist, {options, 1}).ok()) continue;
      double measured = index.build_stats().avg_filters_per_element;
      auto predicted =
          PredictFiltersPerElement(scenario.dist, options, n);
      if (!predicted.ok()) continue;
      double ratio = measured > 0.0 ? *predicted / measured : 0.0;
      ++total;
      if (ratio > 0.5 && ratio < 2.0) ++within_2x;
      table.AddRow({scenario.name, Fmt(n), Fmt(*predicted, 2),
                    Fmt(measured, 2), Fmt(ratio, 2)});
    }
  }
  table.Print();
  std::printf("  %d/%d predictions within 2x of measurement\n", within_2x,
              total);
  bench::Note("deviations reflect the model's annealed approximation");
  bench::Note("(expectation over x and hashes; no without-replacement");
  bench::Note("correction) — Lemma 6 is an upper-bound argument, and the");
  bench::Note("model inherits that character.");
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::Run();
  return 0;
}
