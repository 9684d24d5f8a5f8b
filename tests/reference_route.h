// Copyright 2026 The skewsearch Authors.
// A reference router for the distributed self-join, derived without the
// route under test: each probe's keys come from the filter kernel, their
// owners from the plan, and a (key, owner) pair is kept iff the owner's
// slice of the key holds an id above the probe. A self-join's work
// counters must equal the ones it predicts. Its verifications are the
// distinct ids above the probe that the sizes alone do not rule out:
// the measure at the largest overlap two sets can have, the smaller
// size, reaches the threshold.

#ifndef SKEWSEARCH_TESTS_REFERENCE_ROUTE_H_
#define SKEWSEARCH_TESTS_REFERENCE_ROUTE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "distributed/distributed_join.h"
#include "sim/measures.h"

namespace skewsearch {
namespace test {

/// What a self-join over a built coordinator must ship and scan.
struct ReferenceRoute {
  size_t probes = 0;         ///< probes with at least one item
  size_t requests = 0;       ///< (probe, owner) pairs keeping a key
  size_t keys = 0;           ///< kept (key, owner) pairs
  size_t unpruned_keys = 0;  ///< every (key, owner) pair of the kernel keys
  /// Per owner: `probes` counts requests, `candidates` the entries of
  /// the kept keys' slices, and `verifications` the distinct ids above
  /// each probe over *all* its kernel keys routed there whose sizes can
  /// reach the join's threshold.
  std::vector<WorkerLoad> workers;

  double fanout() const {
    return probes > 0 ? static_cast<double>(requests) /
                            static_cast<double>(probes)
                      : 0.0;
  }
};

/// Routes every vector of \p data, the build side of \p join, as a
/// self-join probe.
inline ReferenceRoute RouteByReference(const DistributedJoin& join,
                                       const Dataset& data) {
  const size_t worker_count = static_cast<size_t>(join.num_workers());
  const Measure measure = join.family().options().verify_measure;
  ReferenceRoute route;
  route.workers.resize(worker_count);
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int> owners;
  for (VectorId probe = 0; probe < data.size(); ++probe) {
    if (data.Get(probe).empty()) continue;
    route.probes++;
    join.family().ComputeAllFilters(data.Get(probe), &keys, &offsets);
    std::vector<size_t> kept(worker_count, 0);
    std::vector<std::vector<VectorId>> above(worker_count);
    for (uint64_t key : keys) {
      owners.clear();
      join.plan().RouteKey(key, &owners);
      for (int owner : owners) {
        const size_t o = static_cast<size_t>(owner);
        const auto slice = join.worker(owner).table().Lookup(key);
        route.unpruned_keys++;
        bool pairs = false;
        for (VectorId id : slice) {
          if (id <= probe) continue;
          above[o].push_back(id);
          pairs = true;
        }
        if (!pairs) continue;
        kept[o]++;
        route.workers[o].candidates += slice.size();
      }
    }
    const size_t probe_size = data.Get(probe).size();
    for (size_t o = 0; o < worker_count; ++o) {
      std::sort(above[o].begin(), above[o].end());
      above[o].erase(std::unique(above[o].begin(), above[o].end()),
                     above[o].end());
      for (VectorId id : above[o]) {
        const size_t size = data.Get(id).size();
        if (SimilarityFromCounts(measure, probe_size, size,
                                 std::min(probe_size, size)) >=
            join.threshold()) {
          route.workers[o].verifications++;
        }
      }
      route.keys += kept[o];
      if (kept[o] == 0) continue;
      route.workers[o].probes++;
      route.requests++;
    }
  }
  return route;
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_REFERENCE_ROUTE_H_
