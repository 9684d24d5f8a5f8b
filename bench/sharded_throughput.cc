// Copyright 2026 The skewsearch Authors.
// Sharded-index throughput: batch QPS vs shard count, plus online insert
// throughput of the dynamic layer.
//
// Part 1 builds a ShardedIndex at increasing shard counts K and answers
// the same correlated query batch with BatchQuery() at several worker
// counts, verifying along the way that every configuration returns
// results byte-identical to the one-shard index (the engine's core
// determinism contract). Part 2 builds a DynamicIndex and measures
// Insert() throughput at increasing writer counts, then verifies the
// inserted vectors are findable.
//
// Flags: --n <dataset> --queries <batch> --inserts <count> --alpha <corr>
//        --shards <list> --threads <list> --rounds <timed repetitions>
//        --json <file>  (bench JSON contract, see bench_util.h)

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/dynamic_index.h"
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
  size_t num_inserts = 2000;
  double alpha = 0.8;
  int rounds = 3;
  std::vector<int> shards = {1, 2, 4, 8};
  std::vector<int> threads = {1, 4};
};

std::vector<int> ParseIntList(const char* text) {
  std::vector<int> out;
  std::string token;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
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
    } else if (std::strcmp(argv[i], "--inserts") == 0) {
      config.num_inserts = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--alpha") == 0) {
      config.alpha = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      config.rounds = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      config.shards = ParseIntList(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      config.threads = ParseIntList(argv[i + 1]);
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

  bench::Banner("Sharded-index throughput (QPS vs shards, insert rate)");
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

  SkewedIndexOptions index_options;
  index_options.mode = IndexMode::kCorrelated;
  index_options.alpha = config.alpha;
  index_options.build_threads = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));

  // One-shard baseline: the answer sheet every sharded run must match.
  ShardedIndex baseline_index;
  Status built = baseline_index.Build(&data, &dist, {index_options, 1});
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
    return 1;
  }
  const auto baseline = baseline_index.BatchQuery(queries);

  bool all_identical = true;
  bench::JsonReporter reporter("sharded_throughput");
  size_t baseline_matches = 0;
  for (const auto& match : baseline) baseline_matches += match.has_value();
  reporter.Metric("baseline_matches", static_cast<double>(baseline_matches),
                  /*stable=*/true, "matches");
  bench::Table table({"shards", "threads", "qps", "wall_s", "build_s",
                      "max/min shard", "identical"});
  for (int num_shards : config.shards) {
    ShardedIndexOptions sharded_options;
    sharded_options.index = index_options;
    sharded_options.num_shards = num_shards;
    ShardedIndex index;
    built = index.Build(&data, &dist, sharded_options);
    if (!built.ok()) {
      std::fprintf(stderr, "sharded build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    size_t min_entries = index.shard_entries(0), max_entries = min_entries;
    for (int s = 1; s < index.num_shards(); ++s) {
      min_entries = std::min(min_entries, index.shard_entries(s));
      max_entries = std::max(max_entries, index.shard_entries(s));
    }
    // Shard assignment is a pure hash of the build input, so the
    // balance ratio is deterministic — a stable gate metric.
    reporter.Metric("shard_balance_s" + std::to_string(num_shards),
                    min_entries > 0 ? static_cast<double>(max_entries) /
                                          static_cast<double>(min_entries)
                                    : 0.0,
                    /*stable=*/true, "x");
    for (int threads : config.threads) {
      ThreadPool pool(threads);
      std::vector<std::optional<Match>> results =
          index.BatchQuery(queries, &pool);  // warm-up
      double best_seconds = 0.0;
      for (int round = 0; round < config.rounds; ++round) {
        BatchQueryStats round_stats;
        results = index.BatchQuery(queries, &pool, nullptr, &round_stats);
        if (round == 0 || round_stats.wall_seconds < best_seconds) {
          best_seconds = round_stats.wall_seconds;
        }
      }
      const bool identical = SameResults(baseline, results);
      all_identical = all_identical && identical;
      const double qps =
          best_seconds > 0.0
              ? static_cast<double>(queries.size()) / best_seconds
              : 0.0;
      reporter.Metric("qps_s" + std::to_string(num_shards) + "_t" +
                          std::to_string(threads),
                      qps, /*stable=*/false, "qps");
      table.AddRow({bench::Fmt(num_shards), bench::Fmt(threads),
                    bench::Fmt(qps, 0), bench::Fmt(best_seconds, 4),
                    bench::Fmt(index.build_stats().build_seconds, 2),
                    bench::Fmt(min_entries > 0
                                   ? static_cast<double>(max_entries) /
                                         static_cast<double>(min_entries)
                                   : 0.0,
                               2),
                    identical ? "yes" : "NO"});
    }
  }
  table.Print();
  bench::Note(all_identical
                  ? "sharded results byte-identical to unsharded: OK"
                  : "DETERMINISM VIOLATION: sharded results differ!");

  // ---- Part 2: online insert throughput --------------------------------
  bench::Banner("Dynamic-index insert throughput");
  std::vector<SparseVector> fresh;
  fresh.reserve(config.num_inserts);
  for (size_t i = 0; i < config.num_inserts; ++i) {
    fresh.push_back(dist.Sample(&rng));
    if (fresh.back().span().empty()) {
      fresh.pop_back();
      --i;
    }
  }

  bench::Table insert_table(
      {"writers", "inserts/s", "wall_s", "tombstone rm/s"});
  for (int writers : config.threads) {
    DynamicIndexOptions dyn_options;
    dyn_options.index = index_options;
    dyn_options.num_shards =
        *std::max_element(config.shards.begin(), config.shards.end());
    DynamicIndex dynamic;
    built = dynamic.Build(&data, &dist, dyn_options);
    if (!built.ok()) {
      std::fprintf(stderr, "dynamic build failed: %s\n",
                   built.ToString().c_str());
      return 1;
    }
    std::vector<VectorId> inserted_ids(fresh.size());
    Timer timer;
    if (writers <= 1) {
      for (size_t i = 0; i < fresh.size(); ++i) {
        auto id = dynamic.Insert(fresh[i].span());
        inserted_ids[i] = id.ok() ? *id : 0;
      }
    } else {
      std::atomic<size_t> cursor{0};
      std::vector<std::thread> workers;
      for (int w = 0; w < writers; ++w) {
        workers.emplace_back([&] {
          for (size_t i = cursor.fetch_add(1); i < fresh.size();
               i = cursor.fetch_add(1)) {
            auto id = dynamic.Insert(fresh[i].span());
            inserted_ids[i] = id.ok() ? *id : 0;
          }
        });
      }
      for (auto& worker : workers) worker.join();
    }
    const double insert_seconds = timer.ElapsedSeconds();

    // Remove half of what we inserted to measure tombstoning (and let
    // compaction fire).
    Timer remove_timer;
    for (size_t i = 0; i < inserted_ids.size(); i += 2) {
      dynamic.Remove(inserted_ids[i]).ok();
    }
    const double remove_seconds = remove_timer.ElapsedSeconds();
    const double removes = static_cast<double>((inserted_ids.size() + 1) / 2);
    reporter.Metric("inserts_per_s_w" + std::to_string(writers),
                    insert_seconds > 0.0
                        ? static_cast<double>(fresh.size()) / insert_seconds
                        : 0.0,
                    /*stable=*/false, "inserts/s");
    insert_table.AddRow(
        {bench::Fmt(writers),
         bench::Fmt(insert_seconds > 0.0
                        ? static_cast<double>(fresh.size()) / insert_seconds
                        : 0.0,
                    0),
         bench::Fmt(insert_seconds, 4),
         bench::Fmt(remove_seconds > 0.0 ? removes / remove_seconds : 0.0,
                    0)});
  }
  insert_table.Print();
  reporter.Metric("results_identical", all_identical ? 1.0 : 0.0,
                  /*stable=*/true, "bool");
  bench::ReportRegistrySnapshot(&reporter);
  if (!reporter.WriteIfRequested(argc, argv)) return 1;
  return all_identical ? 0 : 2;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
