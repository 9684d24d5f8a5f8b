// Reproduces the Section 7.1 worked examples (adversarial queries).
//
// Setup (paper): query q has two types of bits — half set with probability
// pa = 1/4 and half with pb = n^{-0.9}; sum_i p_i = |q| = Theta(log n).
//
//   (a) b1 = 1/3:  Chosen Path rho_CP >= log(1/3)/log(1/8) ~ 0.528,
//                  ours rho = log(2/3)/log(1/4) + o(1)   ~ 0.293,
//                  prefix filtering: no nontrivial guarantee.
//   (b) b1 = 2/3:  ours rho -> 0 (query time O(n^eps)),
//                  rho_CP = log(2/3)/log(1/8) ~ 0.194,
//                  prefix filtering needs Omega(n^0.1).
//
// Part A solves the exponent equations (at asymptotic n, via grouped
// solvers). Part B builds the actual indexes on sampled data over an
// n-grid, measures candidates/query, and fits the empirical exponent.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "baselines/chosen_path.h"
#include "baselines/prefix_filter.h"
#include "bench_util.h"
#include "core/rho.h"
#include "core/sharded_index.h"
#include "data/generators.h"
#include "stats/exponent_fit.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using bench::Fmt;

void AnalyticPart() {
  bench::Banner("Section 7.1, Part A: analytic exponents");
  bench::Table table(
      {"instance", "method", "paper rho", "solved rho (n->inf)"});

  auto ours_at = [](double b1, double n) {
    double pb = std::pow(n, -0.9);
    std::vector<ProbabilityGroup> groups{{0.25, 500.0}, {pb, 500.0}};
    return AdversarialQueryRhoGrouped(groups, b1).value();
  };
  table.AddRow({"(a) b1=1/3", "ours", "0.293", Fmt(ours_at(1.0 / 3, 1e12), 3)});
  table.AddRow({"(a) b1=1/3", "chosen path", "0.528",
                Fmt(ChosenPathRho(1.0 / 3, 1.0 / 8), 3)});
  table.AddRow({"(a) b1=1/3", "prefix filter", "no guarantee (rho ~ 1)", "-"});
  table.AddRow({"(b) b1=2/3", "ours", "-> 0",
                Fmt(ours_at(2.0 / 3, 1e120), 3) + " (at n=1e120)"});
  table.AddRow({"(b) b1=2/3", "chosen path", "0.194",
                Fmt(ChosenPathRho(2.0 / 3, 1.0 / 8), 3)});
  table.AddRow({"(b) b1=2/3", "prefix filter", "Omega(n^0.1)", "-"});
  table.Print();

  bench::Note("convergence of ours in (b): rho(n) ~ Theta(1/log n):");
  bench::Table conv({"n", "rho_ours(b1=2/3)"});
  for (double n : {1e6, 1e12, 1e24, 1e48, 1e96}) {
    conv.AddRow({bench::FmtSci(n, 0), Fmt(ours_at(2.0 / 3, n), 4)});
  }
  conv.Print();
}

// --- Part B: measured ---------------------------------------------------

struct Workload {
  ProductDistribution dist;
  Dataset data;
  size_t d_frequent;
};

Workload MakeWorkload(size_t n, Rng* rng) {
  const double log_n = std::log(static_cast<double>(n));
  const double half_m = 3.0 * log_n;  // C = 3 per half
  const double pb = std::pow(static_cast<double>(n), -0.9);
  const size_t d_a = static_cast<size_t>(half_m / 0.25);
  const size_t d_b = static_cast<size_t>(half_m / pb);
  Workload w{TwoBlockProbabilities(d_a, 0.25, d_b, pb).value(), Dataset(),
             d_a};
  w.data = GenerateDataset(w.dist, n, rng);
  return w;
}

// Builds a query sharing `share` of x's items, replacements drawn from the
// same frequency block so the query profile matches the paper's setup.
SparseVector MakeQuery(const Workload& w, std::span<const ItemId> x,
                       double share, Rng* rng) {
  std::vector<ItemId> ids;
  SparseVector base = SparseVector::FromSorted(
      std::vector<ItemId>(x.begin(), x.end()));
  for (ItemId item : x) {
    if (rng->NextBernoulli(share)) {
      ids.push_back(item);
    } else {
      // Replace by a fresh unused item of the same type.
      for (int attempt = 0; attempt < 64; ++attempt) {
        ItemId fresh =
            item < w.d_frequent
                ? static_cast<ItemId>(rng->NextBounded(w.d_frequent))
                : static_cast<ItemId>(
                      w.d_frequent +
                      rng->NextBounded(w.dist.dimension() - w.d_frequent));
        if (!base.Contains(fresh) &&
            std::find(ids.begin(), ids.end(), fresh) == ids.end()) {
          ids.push_back(fresh);
          break;
        }
      }
    }
  }
  return SparseVector::FromIds(std::move(ids));
}

void MeasuredPart(double b1, const char* label) {
  bench::Banner(std::string("Section 7.1, Part B: measured, ") + label);
  const double share = b1 + 0.07;  // queries comfortably above threshold
  std::vector<double> ns, ours_cost, prefix_cost, cp_cost;
  bench::Table table({"n", "ours cand/q", "prefix cand/q", "cp cand/q",
                      "ours recall", "prefix recall", "cp recall"});
  for (size_t n : {512, 1024, 2048, 4096, 8192}) {
    Rng rng(0x5ec7a + n);
    Workload w = MakeWorkload(n, &rng);

    ShardedIndex ours;
    SkewedIndexOptions our_options;
    our_options.mode = IndexMode::kAdversarial;
    our_options.b1 = b1;
    our_options.repetitions = 6;
    if (!ours.Build(&w.data, &w.dist, {our_options, 1}).ok()) continue;

    PrefixFilterIndex prefix;
    PrefixFilterOptions prefix_options;
    prefix_options.b1 = b1;
    if (!prefix.Build(&w.data, prefix_options).ok()) continue;

    bool with_cp = n <= 4096;  // CP filter count explodes at b1=1/3
    ChosenPathIndex cp;
    if (with_cp) {
      ChosenPathOptions cp_options;
      cp_options.b1 = b1;
      cp_options.b2 = 0.125;
      cp_options.repetitions = 4;
      with_cp = cp.Build(&w.data, &w.dist, cp_options).ok();
    }

    const int kQueries = 50;
    double oc = 0, pc = 0, cc = 0;
    int of = 0, pf = 0, cf = 0;
    for (int t = 0; t < kQueries; ++t) {
      VectorId target = static_cast<VectorId>(rng.NextBounded(n));
      SparseVector q = MakeQuery(w, w.data.Get(target), share, &rng);
      QueryStats s;
      if (ours.Query(q.span(), &s)) ++of;
      oc += static_cast<double>(s.candidates);
      if (prefix.Query(q.span(), &s)) ++pf;
      pc += static_cast<double>(s.candidates);
      if (with_cp) {
        if (cp.Query(q.span(), &s)) ++cf;
        cc += static_cast<double>(s.candidates);
      }
    }
    ns.push_back(static_cast<double>(n));
    ours_cost.push_back(oc / kQueries + 1.0);
    prefix_cost.push_back(pc / kQueries + 1.0);
    if (with_cp) cp_cost.push_back(cc / kQueries + 1.0);
    table.AddRow({Fmt(n), Fmt(oc / kQueries, 1), Fmt(pc / kQueries, 1),
                  with_cp ? Fmt(cc / kQueries, 1) : "-",
                  Fmt(static_cast<double>(of) / kQueries, 2),
                  Fmt(static_cast<double>(pf) / kQueries, 2),
                  with_cp ? Fmt(static_cast<double>(cf) / kQueries, 2) : "-"});
  }
  table.Print();

  auto report_fit = [&](const char* name, const std::vector<double>& xs,
                        const std::vector<double>& costs) {
    if (costs.size() < 2) return;
    std::vector<double> nn(xs.begin(), xs.begin() + costs.size());
    auto fit = FitPowerLaw(nn, costs);
    if (fit.ok()) {
      std::printf("  fitted exponent %-13s rho_hat = %+.3f (R^2 = %.2f)\n",
                  name, fit->exponent, fit->r_squared);
    }
  };
  report_fit("ours:", ns, ours_cost);
  report_fit("prefix:", ns, prefix_cost);
  report_fit("chosen path:", ns, cp_cost);
}

}  // namespace
}  // namespace skewsearch

int main() {
  skewsearch::AnalyticPart();
  skewsearch::MeasuredPart(1.0 / 3.0, "example (a), b1 = 1/3");
  skewsearch::MeasuredPart(2.0 / 3.0, "example (b), b1 = 2/3");
  std::printf(
      "\n  expected shape: ours' fitted exponent well below prefix's in "
      "(b)\n  and below chosen path's in (a); prefix grows ~n^0.1 in (b) "
      "per the paper.\n");
  return 0;
}
