// Copyright 2026 The skewsearch Authors.
// Microbenchmark: sorted-set intersection kernels (the verification
// inner loop of every query and join).
//
// Times the scalar merge reference against the runtime-selected SIMD
// kernel (sim/intersect.h) and the galloping path across size and
// overlap regimes, asserts the kernels agree with the reference on
// every timed input, and (with --require-speedup X) fails unless the
// SIMD kernel beats the scalar reference by at least X on the balanced
// regimes — the CI Release leg passes 1.5.
//
// A verification regime shaped like a self-join's (join-topics: lists
// of about 40 items that mostly share a few, 3% of them enough to pass)
// times IntersectSizeAtLeast at need 0 and at the MinOverlap of
// Braun-Blanquet 0.615, where most pairs stop early. Under every kernel
// the CPU has, the threshold-aware count must be exact when it reaches
// its need and below it otherwise; kernels_agree folds that in.
//
// Flags: --json FILE            write metrics JSON (see bench_util.h)
//        --require-speedup X    exit nonzero unless min balanced
//                               speedup >= X

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "data/sparse_vector.h"
#include "sim/intersect.h"
#include "sim/measures.h"
#include "util/random.h"

namespace skewsearch {
namespace {

std::vector<ItemId> MakeSorted(size_t count, ItemId universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<ItemId> ids;
  ids.reserve(count);
  while (ids.size() < count) {
    ids.push_back(static_cast<ItemId>(rng.NextBounded(universe)));
  }
  SparseVector v = SparseVector::FromIds(std::move(ids));
  return v.ids();
}

// A pair of the verification regime: a holds about 36-44 items of a
// 4,000-item universe, and b about as many, `shared` of them from a.
struct Pair {
  std::vector<ItemId> a;
  std::vector<ItemId> b;
  size_t need = 0;  // MinOverlap at Braun-Blanquet 0.615
};

std::vector<Pair> VerificationPairs(size_t count, uint64_t seed) {
  constexpr ItemId kUniverse = 4000;
  Rng rng(seed);
  std::vector<Pair> pairs(count);
  for (Pair& pair : pairs) {
    const size_t size_a = 36 + rng.NextBounded(9);
    const size_t size_b = 36 + rng.NextBounded(9);
    pair.a = MakeSorted(size_a, kUniverse, rng.NextUint64());
    // Three pairs in a hundred share most of their items, the rest a
    // few: about the self-join's verify yield.
    const size_t shared = rng.NextBounded(100) < 3
                              ? size_b - rng.NextBounded(4)
                              : 1 + rng.NextBounded(6);
    std::vector<ItemId> b = pair.a;
    rng.Shuffle(&b);
    b.resize(std::min(shared, b.size()));
    while (b.size() < size_b) {
      b.push_back(static_cast<ItemId>(rng.NextBounded(kUniverse)));
    }
    pair.b = SparseVector::FromIds(std::move(b)).ids();
    pair.need = MinOverlap(Measure::kBraunBlanquet, pair.a.size(),
                           pair.b.size(), 0.615);
  }
  return pairs;
}

// True when IntersectSizeAtLeast(a, b, need) keeps its contract under
// every kernel the CPU has at need 0, \p need, c and c + 1 (c the merge's
// count): c when c >= need, a count below need otherwise. Restores the
// active kernel.
bool AtLeastAgrees(std::span<const ItemId> a, std::span<const ItemId> b,
                   size_t need) {
  const size_t count = IntersectSizeMerge(a, b);
  const IntersectKernel active = ActiveIntersectKernel();
  bool agree = true;
  for (IntersectKernel kernel : {IntersectKernel::kScalar,
                                 IntersectKernel::kSse2,
                                 IntersectKernel::kAvx2}) {
    if (SetIntersectKernel(kernel) != kernel) continue;
    for (size_t at : {size_t{0}, need, count, count + 1}) {
      const size_t got = IntersectSizeAtLeast(a, b, at);
      agree = agree && (count >= at ? got == count : got < at);
    }
  }
  SetIntersectKernel(active);
  return agree;
}

int Run(int argc, char** argv) {
  double require_speedup = 0.0;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--require-speedup") == 0) {
      require_speedup = std::atof(argv[i + 1]);
    }
  }

  bench::Banner("Sorted-set intersection kernels");
  bench::Note(std::string("active kernel: ") +
              IntersectKernelName(ActiveIntersectKernel()));
  bench::JsonReporter reporter("micro_intersect");

  // Balanced regimes: equal-size lists at a universe giving ~6%
  // overlap. These route to the block kernels, the case the SIMD path
  // exists for.
  bench::Table table({"size", "overlap", "scalar_ns", "kernel_ns", "speedup",
                      "galloping_ns"});
  double min_balanced_speedup = 0.0;
  bool first = true;
  bool all_agree = true;
  for (size_t size : {256u, 1024u, 4096u, 16384u}) {
    auto a = MakeSorted(size, static_cast<ItemId>(size * 16), 2 * size + 1);
    auto b = MakeSorted(size, static_cast<ItemId>(size * 16), 2 * size + 2);
    const size_t expect = IntersectSizeScalar(a, b);
    all_agree = all_agree && IntersectSize(a, b) == expect &&
                IntersectSizeGalloping(a, b) == expect &&
                AtLeastAgrees(a, b, expect / 2);
    const double scalar_ns =
        bench::NsPerOp([&] { bench::DoNotOptimize(IntersectSizeScalar(a, b)); });
    const double kernel_ns =
        bench::NsPerOp([&] { bench::DoNotOptimize(IntersectSize(a, b)); });
    const double gallop_ns = bench::NsPerOp(
        [&] { bench::DoNotOptimize(IntersectSizeGalloping(a, b)); });
    const double speedup = scalar_ns / kernel_ns;
    min_balanced_speedup =
        first ? speedup : std::min(min_balanced_speedup, speedup);
    first = false;
    table.AddRow({bench::Fmt(size), bench::Fmt(expect), bench::Fmt(scalar_ns, 1),
                  bench::Fmt(kernel_ns, 1), bench::Fmt(speedup, 2),
                  bench::Fmt(gallop_ns, 1)});
    const std::string tag = std::to_string(size);
    reporter.Metric("intersect_size_" + tag, static_cast<double>(expect),
                    /*stable=*/true, "elements");
    reporter.Metric("scalar_ns_" + tag, scalar_ns, /*stable=*/false, "ns");
    reporter.Metric("kernel_ns_" + tag, kernel_ns, /*stable=*/false, "ns");
    reporter.Metric("speedup_" + tag, speedup, /*stable=*/false, "x");
  }
  table.Print();

  // Asymmetric regime: tiny probe against a large posting list — the
  // galloping route IntersectSize takes on skewed inputs.
  bench::Table asym({"small", "large", "kernel_ns", "galloping_ns"});
  for (size_t large : {4096u, 65536u}) {
    auto a = MakeSorted(32, static_cast<ItemId>(large * 4), 7);
    auto b = MakeSorted(large, static_cast<ItemId>(large * 4), 8);
    all_agree =
        all_agree && IntersectSize(a, b) == IntersectSizeScalar(a, b);
    const double kernel_ns =
        bench::NsPerOp([&] { bench::DoNotOptimize(IntersectSize(a, b)); });
    const double gallop_ns = bench::NsPerOp(
        [&] { bench::DoNotOptimize(IntersectSizeGalloping(a, b)); });
    asym.AddRow({bench::Fmt(size_t{32}), bench::Fmt(large),
                 bench::Fmt(kernel_ns, 1),
                 bench::Fmt(gallop_ns, 1)});
    reporter.Metric("asym_kernel_ns_" + std::to_string(large), kernel_ns,
                    /*stable=*/false, "ns");
  }
  asym.Print();

  // Verification regime: one call per pair, as a self-join worker
  // verifies its candidates.
  const std::vector<Pair> pairs = VerificationPairs(1024, 17);
  size_t passing = 0;
  for (const Pair& pair : pairs) {
    passing += IntersectSizeMerge(pair.a, pair.b) >= pair.need;
    all_agree = all_agree && AtLeastAgrees(pair.a, pair.b, pair.need);
  }
  auto per_pair_ns = [&](bool bounded) {
    return bench::NsPerOp([&] {
             for (const Pair& pair : pairs) {
               bench::DoNotOptimize(IntersectSizeAtLeast(
                   pair.a, pair.b, bounded ? pair.need : 0));
             }
           }) /
           static_cast<double>(pairs.size());
  };
  const double whole_ns = per_pair_ns(false);
  const double bounded_ns = per_pair_ns(true);
  bench::Table verify({"pairs", "passing", "need_0_ns", "min_overlap_ns",
                       "speedup"});
  verify.AddRow({bench::Fmt(pairs.size()), bench::Fmt(passing),
                 bench::Fmt(whole_ns, 1), bench::Fmt(bounded_ns, 1),
                 bench::Fmt(whole_ns / bounded_ns, 2)});
  verify.Print();
  reporter.Metric("at_least_ns_0", whole_ns, /*stable=*/false, "ns");
  reporter.Metric("at_least_ns_min_overlap", bounded_ns, /*stable=*/false,
                  "ns");

  reporter.Metric("kernels_agree", all_agree ? 1.0 : 0.0, /*stable=*/true,
                  "bool");
  reporter.Metric("min_balanced_speedup", min_balanced_speedup,
                  /*stable=*/false, "x");
  bench::Note("kernels agree with scalar reference: " +
              std::string(all_agree ? "yes" : "NO"));
  bench::Note("min balanced speedup: " + bench::Fmt(min_balanced_speedup, 2));

  if (!reporter.WriteIfRequested(argc, argv)) return 1;
  if (!all_agree) {
    std::fprintf(stderr, "kernel/scalar mismatch\n");
    return 1;
  }
  if (require_speedup > 0.0 && min_balanced_speedup < require_speedup) {
    std::fprintf(stderr, "speedup %.2f below required %.2f\n",
                 min_balanced_speedup, require_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
