// Ablation for the paper's Section 9 dependence discussion: the analysis
// assumes independent bits; real data (SPOTIFY) violates this and "has
// recently been observed to be a difficult case for a variant of the
// Chosen Path algorithm". We plant topic-model dependence of increasing
// strength (heavy-tailed topic activation, the Table 1 mechanism), build
// the index from *estimated marginals* (all it can see), and measure how
// recall and candidate cost degrade.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/estimate.h"
#include "data/generators.h"
#include "stats/independence.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

void Run() {
  const double alpha = 0.7;
  const size_t n = 2048;
  auto background = TwoBlockProbabilities(150, 0.2, 20000, 0.003).value();

  bench::Banner("Ablation: dependence robustness (Sec. 9 / SPOTIFY case)");
  bench::Note("dependence via heavy-tailed topic activation; exponent 0 =");
  bench::Note("independent, smaller exponent = heavier co-occurrence.");
  bench::Table table({"tail exponent", "indep ratio |I|=2",
                      "indep ratio |I|=3", "recall", "cand/q",
                      "filters/elem"});

  for (double tail : {0.0, 2.5, 1.8, 1.3}) {
    Rng rng(0xdede + static_cast<uint64_t>(tail * 100));
    Dataset data;
    if (tail == 0.0) {
      data = GenerateDataset(background, n, &rng);
    } else {
      TopicModelOptions topic_options;
      topic_options.num_topics = 48;
      topic_options.topic_size = 24;
      topic_options.include_prob = 0.6;
      topic_options.heavy_tail_exponent = tail;
      TopicModelGenerator gen(background, topic_options, &rng);
      data = gen.Generate(n, &rng);
    }
    auto r2 = ExactIndependenceRatio(data, 2);
    auto r3 = ExactIndependenceRatio(data, 3);
    auto estimated = EstimateFrequencies(data);
    if (!estimated.ok()) continue;

    ShardedIndex index;
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = alpha;
    options.repetitions = 8;
    options.delta = 0.1;
    if (!index.Build(&data, &*estimated, {options, 1}).ok()) continue;

    // Queries correlated with stored vectors via the bit-copy definition
    // (applied to the *empirical* data, not the generating model).
    CorrelatedQuerySampler sampler(&*estimated, alpha);
    const int kQueries = 50;
    int found = 0;
    double candidates = 0;
    for (int t = 0; t < kQueries; ++t) {
      VectorId target = static_cast<VectorId>(rng.NextBounded(n));
      SparseVector q = sampler.SampleCorrelated(data.Get(target), &rng);
      QueryStats s;
      auto h = index.Query(q.span(), &s);
      found += (h && h->id == target);
      candidates += static_cast<double>(s.candidates);
    }
    table.AddRow({tail == 0.0 ? "independent" : Fmt(tail, 1),
                  r2.ok() ? Fmt(r2->ratio, 2) : "-",
                  r3.ok() ? Fmt(r3->ratio, 2) : "-",
                  Fmt(static_cast<double>(found) / kQueries, 2),
                  Fmt(candidates / kQueries, 1),
                  Fmt(index.build_stats().avg_filters_per_element, 1)});
  }
  table.Print();
  bench::Note("expected shape: recall stays usable under mild dependence");
  bench::Note("(paper: 'correlations weak enough that the analysis is");
  bench::Note("indicative'), while candidate cost inflates as co-occurring");
  bench::Note("items make far vectors collide more than independence");
  bench::Note("predicts — the SPOTIFY effect.");
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::Run();
  return 0;
}
