// Production workflow: ingest data with arbitrary token ids, relabel by
// frequency (faster sampling / tighter layout), estimate the distribution
// from the data, build the index once, freeze it to an SKF2 file, and
// map it in a "fresh process" without paying the build again.

#include <cstdio>
#include <string>

#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/estimate.h"
#include "data/generators.h"
#include "data/remap.h"
#include "util/random.h"
#include "util/timer.h"

int main() {
  using namespace skewsearch;

  // Ingest: a Zipfian vocabulary whose ids arrive in arbitrary order
  // (density scaled so sets are large enough for the theorems' regime).
  auto shaped = ScaleToAverageSize(
                    ZipfProbabilities(20000, 1.0, 0.4).value(), 45.0)
                    .value();
  std::vector<double> scattered_p = shaped.probabilities();
  Rng shuffle_rng(5);
  shuffle_rng.Shuffle(&scattered_p);
  auto scattered = ProductDistribution::Create(scattered_p).value();
  Rng rng(6);
  Dataset raw = GenerateDataset(scattered, 2000, &rng);
  std::printf("ingested %zu records; sampler sees %zu probability blocks\n",
              raw.size(), scattered.NumSamplingBlocks());

  // Normalize: relabel items by corpus frequency.
  ItemRemap remap = ItemRemap::ByFrequency(raw);
  Dataset data = remap.Apply(raw);
  auto dist = EstimateFrequencies(data).value();
  std::printf("after frequency remap: %zu blocks (ids now ordered by "
              "frequency)\n",
              dist.NumSamplingBlocks());

  // Build once, freeze.
  const double alpha = 0.75;
  const std::string path = "/tmp/skewsearch_demo.skf";
  {
    ShardedIndex index;
    ShardedIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = alpha;
    options.index.build_threads = 2;
    options.num_shards = 1;
    Timer timer;
    if (Status s = index.Build(&data, &dist, options); !s.ok()) {
      std::printf("build failed: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("built in %.2fs (%zu filter entries), freezing...\n",
                timer.ElapsedSeconds(), index.build_stats().total_filters);
    if (Status s = index.Freeze(path); !s.ok()) {
      std::printf("freeze failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }

  // "New process": map the frozen file and serve straight out of it.
  ShardedIndex index;
  Timer load_timer;
  if (Status s = index.MapFrozen(path, &data, &dist); !s.ok()) {
    std::printf("map failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("mapped in %.3fs (vs rebuild)\n",
              load_timer.ElapsedSeconds());

  CorrelatedQuerySampler sampler(&dist, alpha);
  int found = 0;
  const int kQueries = 25;
  for (int t = 0; t < kQueries; ++t) {
    VectorId target = static_cast<VectorId>(rng.NextBounded(data.size()));
    SparseVector q = sampler.SampleCorrelated(data.Get(target), &rng);
    auto hit = index.Query(q.span());
    found += (hit && hit->id == target);
  }
  std::printf("served %d queries from the mapped index, recall %d/%d\n",
              kQueries, found, kQueries);
  std::remove(path.c_str());
  return 0;
}
