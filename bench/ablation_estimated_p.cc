// Ablation for the paper's Section 9 open question: how much does the
// index lose when the item probabilities p_i are *estimated from the
// dataset* instead of known exactly? We compare recall, query cost, and
// the solved exponent for ground-truth vs estimated distributions, at
// several dataset sizes (estimation quality improves with n).

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/rho.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/estimate.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

void Run() {
  const double alpha = 0.7;
  auto truth = TwoBlockProbabilities(150, 0.25, 20000, 0.004).value();
  double rho_truth = CorrelatedRho(truth, alpha).value();

  bench::Banner("Ablation: known vs estimated item probabilities (Sec. 9)");
  bench::Note("truth: 150 dims at 0.25 + 20000 at 0.004, alpha = 0.7, "
              "rho(truth) = " + Fmt(rho_truth, 3));
  bench::Table table({"n", "rho(estimated)", "recall known", "recall est",
                      "cand/q known", "cand/q est"});

  for (size_t n : {256, 1024, 4096}) {
    Rng rng(0xab1a + n);
    Dataset data = GenerateDataset(truth, n, &rng);
    auto estimated = EstimateFrequencies(data);
    if (!estimated.ok()) continue;
    double rho_est = CorrelatedRho(*estimated, alpha).value();

    auto measure = [&](const ProductDistribution& dist, uint64_t seed,
                       double* recall, double* cost) {
      ShardedIndex index;
      SkewedIndexOptions options;
      options.mode = IndexMode::kCorrelated;
      options.alpha = alpha;
      options.repetitions = 8;
      options.delta = 0.1;
      options.seed = seed;
      if (!index.Build(&data, &dist, {options, 1}).ok()) {
        *recall = -1;
        *cost = -1;
        return;
      }
      CorrelatedQuerySampler sampler(&truth, alpha);
      Rng qrng(seed ^ 0x123);
      const int kQueries = 50;
      int found = 0;
      double candidates = 0;
      for (int t = 0; t < kQueries; ++t) {
        VectorId target = static_cast<VectorId>(qrng.NextBounded(n));
        SparseVector q = sampler.SampleCorrelated(data.Get(target), &qrng);
        QueryStats s;
        auto h = index.Query(q.span(), &s);
        found += (h && h->id == target);
        candidates += static_cast<double>(s.candidates);
      }
      *recall = static_cast<double>(found) / kQueries;
      *cost = candidates / kQueries;
    };

    double rk, ck, re, ce;
    measure(truth, 0x1111, &rk, &ck);
    measure(*estimated, 0x2222, &re, &ce);
    table.AddRow({Fmt(n), Fmt(rho_est, 3), Fmt(rk, 2), Fmt(re, 2),
                  Fmt(ck, 1), Fmt(ce, 1)});
  }
  table.Print();
  bench::Note("expected shape (paper's conjecture in Sec. 9): estimated");
  bench::Note("probabilities converge to the truth, so recall and cost with");
  bench::Note("estimation approach the known-p numbers as n grows.");
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::Run();
  return 0;
}
