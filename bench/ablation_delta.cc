// Ablation on the sampling boost delta of the correlated policy
// (Section 6). The paper proves correctness with delta = 3/sqrt(alpha*C)
// but remarks "a smaller constant is likely sufficient in practice" — this
// bench quantifies the trade-off: larger delta buys per-repetition success
// probability at the price of n^{ln(1+delta)} extra filters.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

void Run() {
  const double alpha = 2.0 / 3.0;
  const size_t n = 2048;
  auto dist = TwoBlockProbabilities(200, 0.25, 20000, 0.005).value();
  Rng rng(0xde17a);
  Dataset data = GenerateDataset(dist, n, &rng);
  const double c_constant = dist.CForN(n);
  const double paper_delta = 3.0 / std::sqrt(alpha * c_constant);

  bench::Banner("Ablation: sampling boost delta (Sec. 6)");
  bench::Note("C = " + Fmt(c_constant, 1) +
              ", paper delta = 3/sqrt(alpha C) = " + Fmt(paper_delta, 2));
  bench::Table table({"delta", "reps", "filters/elem", "recall", "cand/q",
                      "build s"});

  for (double delta : {0.0, 0.05, 0.1, 0.2, 0.3, paper_delta}) {
    // Fixed *small* repetition count isolates the per-repetition success
    // probability, which is what delta buys.
    ShardedIndex index;
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = alpha;
    options.repetitions = 2;
    options.delta = delta;
    if (!index.Build(&data, &dist, {options, 1}).ok()) continue;

    CorrelatedQuerySampler sampler(&dist, alpha);
    Rng qrng(0x9999);
    const int kQueries = 60;
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
    table.AddRow({Fmt(delta, 2) + (delta == paper_delta ? " (paper)" : ""),
                  Fmt(index.repetitions()),
                  Fmt(index.build_stats().avg_filters_per_element, 1),
                  Fmt(static_cast<double>(found) / kQueries, 2),
                  Fmt(candidates / kQueries, 1),
                  Fmt(index.build_stats().build_seconds, 2)});
  }
  table.Print();
  bench::Note("expected shape: recall rises with delta and saturates well");
  bench::Note("below the paper's conservative value, while filters/element");
  bench::Note("and candidate cost keep growing — supporting the paper's");
  bench::Note("'smaller constant suffices in practice' remark.");
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::Run();
  return 0;
}
