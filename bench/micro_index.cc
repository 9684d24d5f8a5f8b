// Copyright 2026 The skewsearch Authors.
// Microbenchmarks: end-to-end index operations — filter generation,
// build throughput, and query latency for the paper's index and the
// baselines. Standalone timer harness (bench_util.h).
//
// Flags: --json FILE   write metrics JSON (see bench_util.h)

#include <string>
#include <vector>

#include "baselines/chosen_path.h"
#include "baselines/prefix_filter.h"
#include "bench_util.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

int Run(int argc, char** argv) {
  bench::Banner("Index micro-operations");
  bench::JsonReporter reporter("micro_index");

  auto dist = TwoBlockProbabilities(150, 0.25, 10000, 0.005).value();
  Rng rng(1);
  Dataset data = GenerateDataset(dist, 2048, &rng);
  CorrelatedQuerySampler sampler(&dist, 0.7);

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = 0.7;
  options.repetitions = 8;
  options.delta = 0.1;
  if (!index.Build(&data, &dist, {options, 1}).ok()) {
    std::fprintf(stderr, "index build failed\n");
    return 1;
  }

  bench::Table table({"operation", "ns/op"});

  Rng key_rng(2);
  SparseVector x = dist.Sample(&key_rng);
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  const double keys_ns = bench::NsPerOp(
      [&] {
        index.family().ComputeAllFilters(x.span(), &keys, &offsets);
        bench::DoNotOptimize(keys);
      },
      5, 0.02);
  table.AddRow({"ComputeAllFilters", bench::Fmt(keys_ns, 1)});
  reporter.Metric("compute_filter_keys_ns", keys_ns, /*stable=*/false, "ns");
  reporter.Metric("filter_keys_per_vector", static_cast<double>(keys.size()),
                  /*stable=*/true, "keys");

  Rng query_rng(3);
  SparseVector q = sampler.SampleCorrelated(data.Get(17), &query_rng);
  const double query_ns = bench::NsPerOp(
      [&] { bench::DoNotOptimize(index.Query(q.span())); }, 5, 0.02);
  table.AddRow({"ShardedIndex::Query", bench::Fmt(query_ns, 1)});
  reporter.Metric("query_ns", query_ns, /*stable=*/false, "ns");

  {
    auto small_dist = TwoBlockProbabilities(100, 0.25, 4000, 0.005).value();
    Rng build_rng(4);
    Dataset small = GenerateDataset(small_dist, 1024, &build_rng);
    SkewedIndexOptions build_options;
    build_options.mode = IndexMode::kCorrelated;
    build_options.alpha = 0.7;
    build_options.repetitions = 4;
    build_options.delta = 0.1;
    const double build_ns = bench::NsPerOp(
        [&] {
          ShardedIndex fresh;
          bench::DoNotOptimize(fresh.Build(&small, &small_dist,
                                           {build_options, 1}));
        },
        3, 0.05);
    table.AddRow({"Build(n=1024)", bench::Fmt(build_ns, 0)});
    reporter.Metric("build_1024_ns", build_ns, /*stable=*/false, "ns");
  }

  {
    PrefixFilterIndex prefix;
    PrefixFilterOptions prefix_options;
    prefix_options.b1 = 0.5;
    if (prefix.Build(&data, prefix_options).ok()) {
      Rng prefix_rng(5);
      SparseVector pq = sampler.SampleCorrelated(data.Get(17), &prefix_rng);
      const double prefix_ns = bench::NsPerOp(
          [&] { bench::DoNotOptimize(prefix.Query(pq.span())); }, 5, 0.02);
      table.AddRow({"PrefixFilter::Query", bench::Fmt(prefix_ns, 1)});
      reporter.Metric("prefix_query_ns", prefix_ns, /*stable=*/false, "ns");
    }
  }

  {
    ChosenPathIndex cp;
    ChosenPathOptions cp_options;
    cp_options.b1 = 0.6;
    cp_options.b2 = 0.15;
    cp_options.repetitions = 8;
    cp_options.verify_threshold = 0.5;
    if (cp.Build(&data, &dist, cp_options).ok()) {
      Rng cp_rng(6);
      SparseVector cq = sampler.SampleCorrelated(data.Get(17), &cp_rng);
      const double cp_ns = bench::NsPerOp(
          [&] { bench::DoNotOptimize(cp.Query(cq.span())); }, 5, 0.02);
      table.AddRow({"ChosenPath::Query", bench::Fmt(cp_ns, 1)});
      reporter.Metric("chosen_path_query_ns", cp_ns, /*stable=*/false, "ns");
    }
  }

  Rng sample_rng(7);
  const double sample_ns = bench::NsPerOp(
      [&] { bench::DoNotOptimize(dist.Sample(&sample_rng)); }, 5, 0.02);
  table.AddRow({"ProductDistribution::Sample", bench::Fmt(sample_ns, 1)});
  table.Print();

  return reporter.WriteIfRequested(argc, argv) ? 0 : 1;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
