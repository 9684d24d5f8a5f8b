// Copyright 2026 The skewsearch Authors.
// Frozen-shard load bench: a heap load (MapFrozen with force_heap and
// verify_payload: read the SKF2 file into memory and validate every
// posting) vs a plain MapFrozen() (mmap the file and serve the table
// zero-copy). The claim under test: map time is O(1) in the index size
// — metadata validation only — while the heap load is O(index), and
// the mapped index answers queries exactly like the index that was
// frozen. It also gates the posting layout's size: heap bytes per
// posting of the built index and file bytes per posting of its freeze.
//
// Flags: --json FILE   write metrics JSON (see bench_util.h)

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

double FileBytes(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<double>(st.st_size)
                                        : -1.0;
}

/// Current resident set in KB from /proc/self/status (-1 off Linux).
double RssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1.0;
  char line[256];
  double kb = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

/// Milliseconds of the fastest of \p repeats runs of \p fn.
template <typename F>
double BestMs(F&& fn, int repeats = 5) {
  using Clock = std::chrono::steady_clock;
  double best = 1e300;
  for (int r = 0; r < repeats; ++r) {
    const auto start = Clock::now();
    fn();
    best = std::min(
        best, std::chrono::duration<double, std::milli>(Clock::now() - start)
                  .count());
  }
  return best;
}

struct LoadTimes {
  double heap_ms = 0.0;
  double map_ms = 0.0;
  double frozen_bytes = 0.0;
  double heap_bytes = 0.0;
  size_t entries = 0;
  size_t query_mismatches = 0;
};

LoadTimes RunCase(const std::string& tag, size_t n,
                  const ProductDistribution& dist) {
  Rng rng(1);
  Dataset data;
  for (size_t i = 0; i < n; ++i) data.Add(dist.Sample(&rng));
  if (!data.SetDimension(dist.dimension()).ok()) return {};

  ShardedIndexOptions options;
  options.index.mode = IndexMode::kCorrelated;
  options.index.alpha = 0.7;
  options.index.seed = 1;
  options.num_shards = 4;
  ShardedIndex built;
  if (!built.Build(&data, &dist, options).ok()) {
    std::fprintf(stderr, "build failed (n=%zu)\n", n);
    return {};
  }

  const char* tmpdir = std::getenv("TMPDIR");
  const std::string stem = std::string(tmpdir != nullptr ? tmpdir : "/tmp") +
                           "/skewsearch_mmap_bench_" +
                           std::to_string(::getpid()) + "_" + tag;
  const std::string frozen_path = stem + ".skf";
  LoadTimes times;
  if (!built.Freeze(frozen_path).ok()) {
    std::fprintf(stderr, "freeze failed (n=%zu)\n", n);
    return {};
  }
  times.frozen_bytes = FileBytes(frozen_path);
  times.heap_bytes = static_cast<double>(built.MemoryBytes());
  times.entries = built.build_stats().total_filters;

  FrozenMapOptions heap;
  heap.force_heap = true;
  heap.verify_payload = true;
  times.heap_ms = BestMs([&] {
    ShardedIndex loaded;
    bench::DoNotOptimize(loaded.MapFrozen(frozen_path, &data, &dist, heap));
  });
  times.map_ms = BestMs([&] {
    ShardedIndex mapped;
    bench::DoNotOptimize(mapped.MapFrozen(frozen_path, &data, &dist));
  });

  // Identity spot check: the mapped index must answer queries exactly
  // like the index it was frozen from (the full differential is in the
  // tests; here it guards the bench against measuring a broken mapping).
  ShardedIndex mapped;
  if (!mapped.MapFrozen(frozen_path, &data, &dist).ok()) {
    std::fprintf(stderr, "map failed (n=%zu)\n", n);
    return times;
  }
  Rng query_rng(7);
  for (int q = 0; q < 50; ++q) {
    auto probe = data.Get(
        static_cast<VectorId>(query_rng.NextBounded(data.size())));
    QueryStats built_stats, map_stats;
    auto built_hit = built.Query(probe, &built_stats);
    auto map_hit = mapped.Query(probe, &map_stats);
    const bool same_hit =
        built_hit.has_value() == map_hit.has_value() &&
        (!built_hit.has_value() || (built_hit->id == map_hit->id &&
                                    built_hit->similarity ==
                                        map_hit->similarity));
    if (!same_hit || built_stats.candidates != map_stats.candidates) {
      times.query_mismatches++;
    }
  }

  std::remove(frozen_path.c_str());
  return times;
}

int Run(int argc, char** argv) {
  bench::Banner("Zero-copy mmap load vs heap load (SKF2 frozen shards)");
  bench::JsonReporter reporter("mmap_load");

  auto dist = ZipfProbabilities(5000, 1.0, 0.4).value();
  const double rss_before = RssKb();

  bench::Table table({"n", "entries", "frozen MB", "heap B/posting",
                      "file B/posting", "heap load ms", "mmap ms",
                      "speedup"});
  struct Case {
    const char* tag;
    size_t n;
  };
  const Case cases[] = {{"small", 1500}, {"large", 12000}};
  std::vector<LoadTimes> results;
  for (const Case& c : cases) {
    LoadTimes t = RunCase(c.tag, c.n, dist);
    results.push_back(t);
    const double speedup = t.map_ms > 0.0 ? t.heap_ms / t.map_ms : 0.0;
    const double entries = static_cast<double>(t.entries);
    table.AddRow({bench::Fmt(c.n), bench::Fmt(t.entries),
                  bench::Fmt(t.frozen_bytes / 1e6, 2),
                  bench::Fmt(t.heap_bytes / entries, 2),
                  bench::Fmt(t.frozen_bytes / entries, 2),
                  bench::Fmt(t.heap_ms, 3), bench::Fmt(t.map_ms, 3),
                  bench::Fmt(speedup, 1)});
    const std::string tag = c.tag;
    reporter.Metric("frozen_bytes_" + tag, t.frozen_bytes,
                    /*stable=*/true, "bytes");
    reporter.Metric("posting_entries_" + tag,
                    static_cast<double>(t.entries), /*stable=*/true,
                    "entries");
    reporter.Metric("heap_bytes_per_posting_" + tag, t.heap_bytes / entries,
                    /*stable=*/true, "B");
    reporter.Metric("file_bytes_per_posting_" + tag,
                    t.frozen_bytes / entries, /*stable=*/true, "B");
    reporter.Metric("query_mismatches_" + tag,
                    static_cast<double>(t.query_mismatches),
                    /*stable=*/true, "queries");
    reporter.Metric("heap_load_ms_" + tag, t.heap_ms, /*stable=*/false,
                    "ms");
    reporter.Metric("mmap_map_ms_" + tag, t.map_ms, /*stable=*/false, "ms");
    reporter.Metric("map_speedup_" + tag, speedup, /*stable=*/false, "x");
  }
  table.Print();

  // The O(1)-start headline: growing the index ~8x should grow heap
  // load time roughly with it, while map time stays near-flat (it
  // validates a 64-byte header, a param block and one ShardInfo row per
  // shard — never the payload).
  if (results.size() == 2 && results[0].map_ms > 0.0 &&
      results[0].heap_ms > 0.0) {
    const double load_scale = results[1].heap_ms / results[0].heap_ms;
    const double map_scale = results[1].map_ms / results[0].map_ms;
    bench::Note("heap load scaled " + bench::Fmt(load_scale, 1) +
                "x with the index; mmap scaled " + bench::Fmt(map_scale, 1) +
                "x (O(1) start)");
    reporter.Metric("heap_load_scale", load_scale, /*stable=*/false, "x");
    reporter.Metric("mmap_map_scale", map_scale, /*stable=*/false, "x");
  }
  const double rss_after = RssKb();
  if (rss_before >= 0.0 && rss_after >= 0.0) {
    bench::Note("process RSS " + bench::Fmt(rss_after - rss_before, 0) +
                " KB over the run (mapped pages stay file-backed)");
    reporter.Metric("rss_delta_kb", rss_after - rss_before,
                    /*stable=*/false, "KB");
  }

  return reporter.WriteIfRequested(argc, argv) ? 0 : 1;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
