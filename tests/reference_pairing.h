// Copyright 2026 The skewsearch Authors.
// A reference pairing for the distributed self-join, derived without the
// route or the workers under test: each probe's keys come from the
// filter kernel, their owners from the plan, and each owner's slice of a
// key from the coordinator's tables. An owner whose slice holds an id
// above the probe scans that slice whole: once per posting of the probe
// it holds, through its own lists, and otherwise once per posting of the
// probe on the key's other owners, through a shipped key. A self-join's
// work counters must equal the ones it predicts. Its verifications are
// the distinct ids above the probe that the sizes alone do not rule out:
// the measure at the largest overlap two sets can have, the smaller
// size, reaches the threshold.

#ifndef SKEWSEARCH_TESTS_REFERENCE_PAIRING_H_
#define SKEWSEARCH_TESTS_REFERENCE_PAIRING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "distributed/distributed_join.h"
#include "sim/measures.h"

namespace skewsearch {
namespace test {

/// What a self-join over a built coordinator must ship and scan.
struct ReferencePairing {
  size_t probes = 0;        ///< probes with at least one item
  size_t requests = 0;      ///< (probe, owner) pairs with a slice to scan
  size_t keys = 0;          ///< shipped keys: slices not holding the probe
  size_t kernel_keys = 0;   ///< every (key, owner) pair of the kernel keys
  /// Per owner: `probes` counts requests, `candidates` the entries of
  /// the slices it scans, and `verifications` the distinct ids above
  /// each probe in them whose sizes can reach the join's threshold.
  std::vector<WorkerLoad> workers;

  double fanout() const {
    return probes > 0 ? static_cast<double>(requests) /
                            static_cast<double>(probes)
                      : 0.0;
  }
};

/// Pairs every vector of \p data, the build side of \p join, as a
/// self-join probe.
inline ReferencePairing PairByReference(const DistributedJoin& join,
                                        const Dataset& data) {
  const size_t worker_count = static_cast<size_t>(join.num_workers());
  const Measure measure = join.family().options().verify_measure;
  ReferencePairing pairing;
  pairing.workers.resize(worker_count);
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int> owners;
  for (VectorId probe = 0; probe < data.size(); ++probe) {
    if (data.Get(probe).empty()) continue;
    pairing.probes++;
    join.family().ComputeAllFilters(data.Get(probe), &keys, &offsets);
    pairing.kernel_keys += keys.size();
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::vector<size_t> scanned(worker_count, 0);
    std::vector<std::vector<VectorId>> above(worker_count);
    for (uint64_t key : keys) {
      owners.clear();
      join.plan().RouteKey(key, &owners);
      std::vector<std::span<const VectorId>> slices;
      std::vector<size_t> held;  // postings of the probe in each slice
      size_t postings = 0;
      for (int owner : owners) {
        slices.push_back(join.worker(owner).table().Lookup(key));
        held.push_back(static_cast<size_t>(
            std::count(slices.back().begin(), slices.back().end(), probe)));
        postings += held.back();
      }
      for (size_t j = 0; j < owners.size(); ++j) {
        const size_t o = static_cast<size_t>(owners[j]);
        const std::span<const VectorId> slice = slices[j];
        if (slice.empty() ||
            *std::max_element(slice.begin(), slice.end()) <= probe) {
          continue;
        }
        const size_t scans = held[j] > 0 ? held[j] : postings;
        if (held[j] == 0) pairing.keys += scans;
        scanned[o] += scans;
        pairing.workers[o].candidates += scans * slice.size();
        for (VectorId id : slice) {
          if (id > probe && scans > 0) above[o].push_back(id);
        }
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
          pairing.workers[o].verifications++;
        }
      }
      if (scanned[o] == 0) continue;
      pairing.workers[o].probes++;
      pairing.requests++;
    }
  }
  return pairing;
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_REFERENCE_PAIRING_H_
