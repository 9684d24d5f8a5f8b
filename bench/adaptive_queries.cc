// Theorem 2's query adaptivity: on one fixed adversarial index, the query
// cost exponent rho(q) depends on the *query's own* frequency profile —
// queries over rare items are cheap, queries over frequent items are
// expensive. We compose queries with a varying rare-item fraction, solve
// the per-query equation sum_{i in q} p_i^rho = b1 |q|, and check that
// measured candidate counts increase monotonically with the analytic
// rho(q).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/rho.h"
#include "core/sharded_index.h"
#include "data/generators.h"
#include "stats/summary.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

void Run() {
  const double b1 = 0.5;
  const size_t n = 4096;
  // 200 frequent dims at 0.3, 60000 rare at 0.002.
  auto dist = TwoBlockProbabilities(200, 0.3, 60000, 0.002).value();
  Rng rng(0xada9);
  Dataset data = GenerateDataset(dist, n, &rng);

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kAdversarial;
  options.b1 = b1;
  options.repetitions = 6;
  if (!index.Build(&data, &dist, {options, 1}).ok()) {
    std::printf("build failed\n");
    return;
  }

  bench::Banner("Theorem 2 adaptivity: one index, queries of varying mix");
  bench::Note("query size fixed at 80 items; rare fraction varies.");
  bench::Table table({"rare fraction", "analytic rho(q)",
                      "candidates/q (mean)", "candidates/q (p90)"});

  std::vector<double> rhos, costs;
  for (double rare_fraction : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const size_t kQuerySize = 80;
    size_t rare_count =
        static_cast<size_t>(rare_fraction * static_cast<double>(kQuerySize));
    size_t freq_count = kQuerySize - rare_count;

    // Analytic rho(q) for this composition.
    std::vector<ProbabilityGroup> groups;
    if (freq_count > 0) {
      groups.push_back({0.3, static_cast<double>(freq_count)});
    }
    if (rare_count > 0) {
      groups.push_back({0.002, static_cast<double>(rare_count)});
    }
    double rho_q = AdversarialQueryRhoGrouped(groups, b1).value();

    std::vector<double> per_query;
    const int kQueries = 40;
    for (int t = 0; t < kQueries; ++t) {
      std::vector<ItemId> ids;
      while (ids.size() < freq_count) {
        ItemId candidate = static_cast<ItemId>(rng.NextBounded(200));
        if (std::find(ids.begin(), ids.end(), candidate) == ids.end()) {
          ids.push_back(candidate);
        }
      }
      while (ids.size() < kQuerySize) {
        ItemId candidate =
            static_cast<ItemId>(200 + rng.NextBounded(60000));
        if (std::find(ids.begin(), ids.end(), candidate) == ids.end()) {
          ids.push_back(candidate);
        }
      }
      QueryStats stats;
      // Threshold 2.0: enumerate candidates without returning matches.
      index.QueryAll(SparseVector::FromIds(ids).span(), 2.0, &stats);
      per_query.push_back(static_cast<double>(stats.candidates));
    }
    Summary summary = Summarize(per_query);
    rhos.push_back(rho_q);
    costs.push_back(summary.mean);
    table.AddRow({Fmt(rare_fraction, 2), Fmt(rho_q, 3),
                  Fmt(summary.mean, 1), Fmt(summary.p90, 1)});
  }
  table.Print();

  bool monotone = true;
  for (size_t i = 1; i < costs.size(); ++i) {
    // rho decreases with rare fraction; costs must not increase.
    if (rhos[i] > rhos[i - 1] + 1e-9) monotone = false;
    if (costs[i] > costs[i - 1] * 1.25 + 2.0) monotone = false;
  }
  std::printf(
      "  shape: analytic rho(q) decreases with rare fraction and measured "
      "cost follows: %s\n",
      monotone ? "MATCHES" : "MISMATCH");
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::Run();
  return 0;
}
