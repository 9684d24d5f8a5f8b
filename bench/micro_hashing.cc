// Copyright 2026 The skewsearch Authors.
// Microbenchmarks: hashing primitives.
//
// Standalone timer harness (bench_util.h), no external dependency.
//
// Flags: --json FILE   write metrics JSON (see bench_util.h)

#include <cstdint>

#include "bench_util.h"
#include "hashing/mix.h"
#include "hashing/pairwise.h"
#include "hashing/path_hasher.h"
#include "util/random.h"

namespace skewsearch {
namespace {

int Run(int argc, char** argv) {
  bench::Banner("Hashing primitives");
  bench::JsonReporter reporter("micro_hashing");

  bench::Table table({"primitive", "ns/op"});
  uint64_t x = 0x12345678;
  const double mix_ns = bench::NsPerOp([&] {
    x = Mix64(x);
    bench::DoNotOptimize(x);
  });
  table.AddRow({"Mix64", bench::Fmt(mix_ns, 2)});

  const double avalanche_ns = bench::NsPerOp([&] {
    x = Avalanche64(x);
    bench::DoNotOptimize(x);
  });
  table.AddRow({"Avalanche64", bench::Fmt(avalanche_ns, 2)});

  uint64_t b = 0x9876;
  const double mixpair_ns = bench::NsPerOp([&] {
    x = MixPair(x, b);
    bench::DoNotOptimize(x);
  });
  table.AddRow({"MixPair", bench::Fmt(mixpair_ns, 2)});

  Rng rng(1);
  PairwiseHash pairwise(&rng);
  const double pairwise_ns = bench::NsPerOp([&] {
    x = pairwise.HashInt(x);
    bench::DoNotOptimize(x);
  });
  table.AddRow({"PairwiseHash", bench::Fmt(pairwise_ns, 2)});

  PathHasher hasher(42, 32, HashEngine::kMixer);
  uint64_t key = hasher.RootKey(0);
  uint32_t item = 0;
  const double draw_ns = bench::NsPerOp([&] {
    bench::DoNotOptimize(hasher.LevelDraw(1 + (item % 31), key, item));
    key += 0x9e3779b97f4a7c15ULL;
    ++item;
  });
  table.AddRow({"PathHasher::LevelDraw", bench::Fmt(draw_ns, 2)});
  table.Print();

  reporter.Metric("mix64_ns", mix_ns, /*stable=*/false, "ns");
  reporter.Metric("pairwise_ns", pairwise_ns, /*stable=*/false, "ns");
  reporter.Metric("level_draw_ns", draw_ns, /*stable=*/false, "ns");

  return reporter.WriteIfRequested(argc, argv) ? 0 : 1;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
