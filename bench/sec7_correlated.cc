// Reproduces the Section 7.2 worked examples (correlated queries).
//
// (i) Extreme skew: 4*C*log n bits at pa = 1/4 plus n^{0.9}*C*log n bits
//     at pb = n^{-0.9}, alpha = 2/3. Paper: our expected query time is
//     O(n^eps) for every eps > 0; prefix filtering takes Omega(n^{0.1}).
// (ii) Theta(1) probabilities (the Figure 1 regime): pa = p, pb = p/8 —
//     prefix filtering has no nontrivial guarantee, Chosen Path pays
//     rho_CP, and we pay the strictly smaller Theorem 1 rho.

#include <cmath>
#include <cstdio>
#include <vector>

#include "baselines/chosen_path.h"
#include "baselines/prefix_filter.h"
#include "bench_util.h"
#include "core/rho.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "stats/exponent_fit.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

void AnalyticPart() {
  bench::Banner("Section 7.2, Part A: analytic exponents (alpha = 2/3)");
  bench::Table table({"instance", "method", "paper", "solved"});
  // (i) extreme skew, evaluated at asymptotic n via grouped solver.
  auto extreme_ours = [](double n) {
    double c_log_n = 20.0 * std::log(n);
    double pb = std::pow(n, -0.9);
    std::vector<ProbabilityGroup> g{{0.25, 4.0 * c_log_n},
                                    {pb, c_log_n / pb}};
    return CorrelatedRhoGrouped(g, 2.0 / 3.0).value();
  };
  table.AddRow({"(i) extreme skew", "ours", "O(n^eps), rho -> 0",
                Fmt(extreme_ours(1e96), 3) + " (at n=1e96)"});
  table.AddRow({"(i) extreme skew", "prefix filter", "Omega(n^0.1)", "-"});
  // (ii) Theta(1) case, p = 0.25.
  std::vector<ProbabilityGroup> theta{{0.25, 500.0}, {0.25 / 8, 500.0}};
  double ours2 = CorrelatedRhoGrouped(theta, 2.0 / 3.0).value();
  double m = 500.0 * 0.25 + 500.0 * 0.25 / 8;
  double b1 = (500.0 * 0.25 * ConditionalProbability(0.25, 2.0 / 3.0) +
               500.0 * (0.25 / 8) *
                   ConditionalProbability(0.25 / 8, 2.0 / 3.0)) /
              m;
  double b2 = (500.0 * 0.0625 + 500.0 * 0.25 * 0.25 / 64) / m;
  table.AddRow({"(ii) p, p/8 at p=1/4", "ours", "below Chosen Path",
                Fmt(ours2, 3)});
  table.AddRow({"(ii) p, p/8 at p=1/4", "chosen path", "Figure 1 blue",
                Fmt(ChosenPathRho(b1, b2), 3)});
  table.AddRow({"(ii) p, p/8 at p=1/4", "prefix filter",
                "rho = 1 (all p Theta(1))", "-"});
  table.Print();
}

void MeasuredExtreme() {
  bench::Banner(
      "Section 7.2, Part B: measured, extreme skew (alpha = 2/3)");
  const double alpha = 2.0 / 3.0;
  std::vector<double> ns, ours_cost, prefix_cost;
  bench::Table table(
      {"n", "d", "ours cand/q", "prefix cand/q", "ours recall",
       "prefix recall"});
  for (size_t n : {512, 1024, 2048, 4096, 8192}) {
    const double log_n = std::log(static_cast<double>(n));
    const double c_log_n = 4.0 * log_n;
    const double pb = std::pow(static_cast<double>(n), -0.9);
    const size_t d_a = static_cast<size_t>(4.0 * c_log_n / 0.25);
    const size_t d_b = static_cast<size_t>(c_log_n / pb);
    auto dist = TwoBlockProbabilities(d_a, 0.25, d_b, pb).value();
    Rng rng(0xc077 + n);
    Dataset data = GenerateDataset(dist, n, &rng);

    ShardedIndex ours;
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = alpha;
    options.repetitions = 8;
    options.delta = 0.1;
    if (!ours.Build(&data, &dist, {options, 1}).ok()) continue;

    PrefixFilterIndex prefix;
    PrefixFilterOptions prefix_options;
    prefix_options.b1 = alpha / 1.3;
    if (!prefix.Build(&data, prefix_options).ok()) continue;

    CorrelatedQuerySampler sampler(&dist, alpha);
    const int kQueries = 50;
    double oc = 0, pc = 0;
    int of = 0, pf = 0;
    for (int t = 0; t < kQueries; ++t) {
      VectorId target = static_cast<VectorId>(rng.NextBounded(n));
      SparseVector q = sampler.SampleCorrelated(data.Get(target), &rng);
      QueryStats s;
      auto h1 = ours.Query(q.span(), &s);
      if (h1 && h1->id == target) ++of;
      oc += static_cast<double>(s.candidates);
      auto h2 = prefix.Query(q.span(), &s);
      if (h2 && h2->id == target) ++pf;
      pc += static_cast<double>(s.candidates);
    }
    ns.push_back(static_cast<double>(n));
    ours_cost.push_back(oc / kQueries + 1.0);
    prefix_cost.push_back(pc / kQueries + 1.0);
    table.AddRow({Fmt(n), Fmt(d_a + d_b), Fmt(oc / kQueries, 1),
                  Fmt(pc / kQueries, 1),
                  Fmt(static_cast<double>(of) / kQueries, 2),
                  Fmt(static_cast<double>(pf) / kQueries, 2)});
  }
  table.Print();
  auto fo = FitPowerLaw(ns, ours_cost);
  auto fp = FitPowerLaw(ns, prefix_cost);
  if (fo.ok() && fp.ok()) {
    std::printf(
        "  fitted exponents: ours rho_hat = %+.3f, prefix rho_hat = %+.3f\n",
        fo->exponent, fp->exponent);
    std::printf("  paper shape: ours ~ n^eps (near-flat), prefix ~ n^0.1 "
                "(growing): %s\n",
                fo->exponent < fp->exponent ? "MATCHES" : "MISMATCH");
  }
}

void MeasuredTheta() {
  bench::Banner(
      "Section 7.2, Part B: measured, Theta(1) two-block (Figure 1 regime)");
  const double alpha = 2.0 / 3.0;
  const double p = 0.25;
  std::vector<double> ns, ours_cost, cp_cost;
  bench::Table table({"n", "ours cand/q", "cp cand/q", "ours recall",
                      "cp recall"});
  for (size_t n : {512, 1024, 2048, 4096}) {
    // m = 60: 120 dims at p and 960 at p/8.
    auto dist = TwoBlockProbabilities(120, p, 960, p / 8).value();
    Rng rng(0x7e7a + n);
    Dataset data = GenerateDataset(dist, n, &rng);

    ShardedIndex ours;
    SkewedIndexOptions options;
    options.mode = IndexMode::kCorrelated;
    options.alpha = alpha;
    options.repetitions = 8;
    options.delta = 0.05;
    if (!ours.Build(&data, &dist, {options, 1}).ok()) continue;

    ChosenPathIndex cp;
    ChosenPathOptions cp_options;
    cp_options.b1 = ExpectedCorrelatedSimilarity(dist, alpha);
    cp_options.b2 = ExpectedUncorrelatedSimilarity(dist) * 1.5;
    cp_options.repetitions = 8;
    cp_options.verify_threshold = alpha / 1.3;
    if (!cp.Build(&data, &dist, cp_options).ok()) continue;

    CorrelatedQuerySampler sampler(&dist, alpha);
    const int kQueries = 50;
    double oc = 0, cc = 0;
    int of = 0, cf = 0;
    for (int t = 0; t < kQueries; ++t) {
      VectorId target = static_cast<VectorId>(rng.NextBounded(n));
      SparseVector q = sampler.SampleCorrelated(data.Get(target), &rng);
      QueryStats s;
      auto h1 = ours.Query(q.span(), &s);
      if (h1 && h1->id == target) ++of;
      oc += static_cast<double>(s.candidates);
      auto h2 = cp.Query(q.span(), &s);
      if (h2 && h2->id == target) ++cf;
      cc += static_cast<double>(s.candidates);
    }
    ns.push_back(static_cast<double>(n));
    ours_cost.push_back(oc / kQueries + 1.0);
    cp_cost.push_back(cc / kQueries + 1.0);
    table.AddRow({Fmt(n), Fmt(oc / kQueries, 1), Fmt(cc / kQueries, 1),
                  Fmt(static_cast<double>(of) / kQueries, 2),
                  Fmt(static_cast<double>(cf) / kQueries, 2)});
  }
  table.Print();
  auto fo = FitPowerLaw(ns, ours_cost);
  auto fc = FitPowerLaw(ns, cp_cost);
  if (fo.ok() && fc.ok()) {
    std::printf(
        "  fitted exponents: ours rho_hat = %+.3f, chosen path rho_hat = "
        "%+.3f\n",
        fo->exponent, fc->exponent);
    std::printf("  paper shape (Figure 1): ours grows more slowly: %s\n",
                fo->exponent <= fc->exponent + 0.05 ? "MATCHES"
                                                    : "MISMATCH");
  }
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::AnalyticPart();
  skewsearch::MeasuredExtreme();
  skewsearch::MeasuredTheta();
  return 0;
}
