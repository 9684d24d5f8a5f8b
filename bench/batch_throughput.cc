// Copyright 2026 The skewsearch Authors.
// Batch-query throughput vs. thread count on a Zipf-skewed workload.
//
// Builds the paper's index over a Zipfian dataset, then answers the same
// query batch with BatchQuery() at increasing worker counts, reporting
// queries/sec, speedup over one thread, and the aggregated batch stats.
// A final verification pass asserts the parallel results are identical
// to the serial ones (the engine's core determinism contract).
//
// The path engine's work is exported as stable counts — the build's
// expanded nodes and filters, and the one-thread batch's draws, nodes and
// filters — so a change to the filter kernel that moves any key or
// counter fails the baseline comparison. So is the verifier's work: the
// one-thread batch's verifications and the candidates its size bound
// skipped. path_ns_per_draw (advisory) times one ComputeAllFilters pass
// over the query batch. The same pass under each filter kernel the CPU
// has must make the scalar kernel's keys, offsets and draws, over the
// query batch and over a set of long vectors (at least 16 in-universe
// items each, so every node goes through the kernels' accept pass; the
// queries hold 2.4 items on average and nearly all take the one-pass
// path): path_kernels_identical (stable) reads 0 and the run exits 2
// otherwise, as for results_identical. path_ns_per_draw_long_KERNEL
// (advisory) times each kernel's pass over the long vectors.
//
// Flags: --n <dataset> --queries <batch> --alpha <corr> --threads <list>
//        --rounds <timed repetitions> --json <file> (see bench_util.h)

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/path_engine.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/dataset.h"
#include "data/generators.h"
#include "util/random.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {
namespace {

struct Config {
  size_t n = 20000;
  size_t num_queries = 4000;
  double alpha = 0.8;
  int rounds = 3;
  std::vector<int> threads = {1, 2, 4, 8};
};

std::vector<int> ParseThreadList(const char* text) {
  std::vector<int> out;
  std::string token;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      // Non-numeric or non-positive entries degrade to 1 worker, the
      // same clamp ThreadPool itself applies.
      if (!token.empty()) out.push_back(std::max(1, std::atoi(token.c_str())));
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return out.empty() ? std::vector<int>{1} : out;
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--n") == 0) {
      config.n = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      config.num_queries = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--alpha") == 0) {
      config.alpha = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      config.rounds = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      config.threads = ParseThreadList(argv[i + 1]);
    }
  }
  return config;
}

bool SameResults(const std::vector<std::optional<Match>>& a,
                 const std::vector<std::optional<Match>>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].has_value() != b[i].has_value()) return false;
    if (a[i].has_value() &&
        (a[i]->id != b[i]->id || a[i]->similarity != b[i]->similarity)) {
      return false;
    }
  }
  return true;
}

int Run(int argc, char** argv) {
  Config config = ParseArgs(argc, argv);
  bench::JsonReporter reporter("batch_throughput");

  bench::Banner("Batch-query throughput vs. thread count (Zipf workload)");
  bench::Note("hardware threads available: " +
              std::to_string(std::thread::hardware_concurrency()));

  auto dist = ZipfProbabilities(2000, 1.0, 0.3).value();
  Rng rng(99);
  Dataset data = GenerateDataset(dist, config.n, &rng);
  Dataset queries;
  CorrelatedQuerySampler sampler(&dist, config.alpha);
  for (size_t i = 0; i < config.num_queries; ++i) {
    SparseVector q = sampler.SampleCorrelated(
        data.Get(static_cast<VectorId>(i % data.size())), &rng);
    queries.Add(q.span());
  }

  ShardedIndex index;
  SkewedIndexOptions options;
  options.mode = IndexMode::kCorrelated;
  options.alpha = config.alpha;
  options.build_threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  Status built = index.Build(&data, &dist, {options, 1});
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
    return 1;
  }
  bench::Note("index built: n=" + std::to_string(config.n) +
              ", repetitions=" + std::to_string(index.repetitions()) +
              ", build=" + bench::Fmt(index.build_stats().build_seconds) +
              "s");

  const auto baseline = index.BatchQuery(queries);
  size_t matches = 0;
  for (const auto& m : baseline) {
    if (m.has_value()) ++matches;
  }
  reporter.Metric("repetitions", index.repetitions(), /*stable=*/true, "reps");
  reporter.Metric("build_nodes_expanded",
                  static_cast<double>(index.build_stats().nodes_expanded),
                  /*stable=*/true, "nodes");
  reporter.Metric("build_filters",
                  static_cast<double>(index.build_stats().total_filters),
                  /*stable=*/true, "filters");
  reporter.Metric("matches", static_cast<double>(matches), /*stable=*/true,
                  "queries");
  double serial_qps = 0.0;
  bool all_identical = true;

  bench::Table table({"threads", "qps", "speedup", "wall_s", "cand/query",
                      "identical"});
  for (int threads : config.threads) {
    ThreadPool pool(threads);
    // Warm-up pass (pages in postings, sizes scratch buffers), then the
    // timed rounds; report the best round to damp scheduler noise.
    std::vector<std::optional<Match>> results =
        index.BatchQuery(queries, &pool);
    double best_seconds = 0.0;
    BatchQueryStats agg;
    for (int round = 0; round < config.rounds; ++round) {
      BatchQueryStats round_stats;
      results = index.BatchQuery(queries, &pool, nullptr, &round_stats);
      if (round == 0 || round_stats.wall_seconds < best_seconds) {
        best_seconds = round_stats.wall_seconds;
        agg = round_stats;
      }
    }
    const bool identical = SameResults(baseline, results);
    all_identical = all_identical && identical;
    const double qps =
        best_seconds > 0.0 ? static_cast<double>(queries.size()) / best_seconds
                           : 0.0;
    if (threads == 1) {
      serial_qps = qps;
      // Candidate volume is seed-deterministic (parallelism only shards
      // the batch); qps and speedups are machine-dependent wall clock.
      reporter.Metric("candidates_total",
                      static_cast<double>(agg.totals.candidates),
                      /*stable=*/true, "candidates");
      reporter.Metric("verifications",
                      static_cast<double>(agg.totals.verifications),
                      /*stable=*/true, "verifications");
      reporter.Metric("size_skips",
                      static_cast<double>(agg.totals.size_skips),
                      /*stable=*/true, "candidates");
      reporter.Metric("path_draws", static_cast<double>(agg.path_gen.draws),
                      /*stable=*/true, "draws");
      reporter.Metric("path_nodes",
                      static_cast<double>(agg.path_gen.nodes_expanded),
                      /*stable=*/true, "nodes");
      reporter.Metric("path_filters",
                      static_cast<double>(agg.path_gen.filters_emitted),
                      /*stable=*/true, "filters");
    }
    reporter.Metric("qps_t" + std::to_string(threads), qps, /*stable=*/false,
                    "queries/s");
    if (serial_qps > 0.0 && threads != 1) {
      reporter.Metric("speedup_t" + std::to_string(threads), qps / serial_qps,
                      /*stable=*/false, "x");
    }
    table.AddRow({bench::Fmt(threads), bench::Fmt(qps, 0),
                  serial_qps > 0.0 ? bench::Fmt(qps / serial_qps, 2) + "x"
                                   : "-",
                  bench::Fmt(best_seconds, 4),
                  agg.queries > 0
                      ? bench::Fmt(static_cast<double>(agg.totals.candidates) /
                                       static_cast<double>(agg.queries),
                                   1)
                      : "-",
                  identical ? "yes" : "NO"});
  }
  table.Print();

  // The kernel alone: every repetition of every vector of a set under
  // the installed kernel, best round; ns per draw and the draws.
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  auto time_kernel = [&](const Dataset& vectors) {
    double best_seconds = 0.0;
    size_t draws = 0;
    for (int round = 0; round < std::max(1, config.rounds); ++round) {
      draws = 0;
      Timer timer;
      for (VectorId id = 0; id < vectors.size(); ++id) {
        PathGenStats gen;
        index.family().ComputeAllFilters(vectors.Get(id), &keys, &offsets,
                                         &gen);
        draws += gen.draws;
      }
      const double seconds = timer.ElapsedSeconds();
      if (round == 0 || seconds < best_seconds) best_seconds = seconds;
    }
    const double ns =
        draws > 0 ? best_seconds * 1e9 / static_cast<double>(draws) : 0.0;
    return std::pair{ns, draws};
  };
  const auto [ns_per_draw, kernel_draws] = time_kernel(queries);
  bench::Note("filter kernel: " + bench::Fmt(ns_per_draw, 2) +
              " ns/draw over " + std::to_string(kernel_draws) + " draws");
  reporter.Metric("path_ns_per_draw", ns_per_draw, /*stable=*/false, "ns");

  // Long vectors: each the union of random dataset vectors until it
  // holds at least 16 items, so every node it grows takes the two-pass
  // path under a vector kernel.
  constexpr size_t kLongVectors = 500;
  Dataset long_vectors;
  std::vector<ItemId> long_items;
  for (size_t i = 0; i < kLongVectors; ++i) {
    long_items.clear();
    while (long_items.size() < 16) {
      const auto x =
          data.Get(static_cast<VectorId>(rng.NextBounded(data.size())));
      long_items.insert(long_items.end(), x.begin(), x.end());
      std::sort(long_items.begin(), long_items.end());
      long_items.erase(std::unique(long_items.begin(), long_items.end()),
                       long_items.end());
    }
    long_vectors.Add(std::span<const ItemId>(long_items));
  }

  // Every kernel the CPU has makes the scalar kernel's keys, offsets and
  // draws on the same passes, over the queries and the long vectors.
  struct KernelOutput {
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    size_t draws = 0;
    bool operator==(const KernelOutput&) const = default;
  };
  auto kernel_output = [&](const Dataset& vectors) {
    KernelOutput output;
    for (VectorId id = 0; id < vectors.size(); ++id) {
      PathGenStats gen;
      index.family().ComputeAllFilters(vectors.Get(id), &keys, &offsets,
                                       &gen);
      output.keys.insert(output.keys.end(), keys.begin(), keys.end());
      output.offsets.insert(output.offsets.end(), offsets.begin(),
                            offsets.end());
      output.draws += gen.draws;
    }
    return output;
  };
  const PathKernel dispatched = ActivePathKernel();
  bool kernels_identical = true;
  KernelOutput scalar_queries;
  KernelOutput scalar_long;
  for (PathKernel kernel :
       {PathKernel::kScalar, PathKernel::kAvx2, PathKernel::kAvx512}) {
    if (SetPathKernel(kernel) != kernel) continue;
    const std::string name = PathKernelName(kernel);
    const auto [ns, draws] = time_kernel(long_vectors);
    bench::Note("filter kernel " + name + ": " + bench::Fmt(ns, 2) +
                " ns/draw over " + std::to_string(draws) + " draws of " +
                std::to_string(long_vectors.size()) + " vectors of 16+ items");
    reporter.Metric("path_ns_per_draw_long_" + name, ns, /*stable=*/false,
                    "ns");
    if (kernel == PathKernel::kScalar) {
      scalar_queries = kernel_output(queries);
      scalar_long = kernel_output(long_vectors);
      continue;
    }
    const bool identical = kernel_output(queries) == scalar_queries &&
                           kernel_output(long_vectors) == scalar_long;
    kernels_identical = kernels_identical && identical;
    bench::Note("filter kernel " + name +
                (identical ? ": same keys and draws as scalar on the queries "
                             "and the long vectors"
                           : ": DIFFERS from scalar"));
  }
  SetPathKernel(dispatched);
  reporter.Metric("path_kernels_identical", kernels_identical ? 1.0 : 0.0,
                  /*stable=*/true, "bool");
  bench::Note(all_identical
                  ? "parallel results byte-identical to serial: OK"
                  : "DETERMINISM VIOLATION: parallel results differ!");
  reporter.Metric("results_identical", all_identical ? 1.0 : 0.0,
                  /*stable=*/true, "bool");
  if (!reporter.WriteIfRequested(argc, argv)) return 1;
  return all_identical && kernels_identical ? 0 : 2;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
