// Copyright 2026 The skewsearch Authors.
// A reference pairing for the distributed join, derived without the
// route or the workers under test: each probe's keys come from the
// filter kernel, their owners from the plan, and each owner's slice of a
// key from the coordinator's tables. In a self-join, an owner whose
// slice holds an id above the probe scans that slice whole: once per
// posting of the probe it holds, through its own lists, and otherwise
// once per posting of the probe on the key's other owners, through a
// shipped key. An R-S probe ships every kernel key, as often as the
// kernel yields it, to each of the key's owners, which scans its slice
// whole each time. A join's work counters must equal the ones it
// predicts. Its verifications are the distinct ids an owner scanned for
// the probe (above it, in a self-join) that the sizes alone do not rule
// out: the measure at the largest overlap two sets can have, the
// smaller size, reaches the threshold.

#ifndef SKEWSEARCH_TESTS_REFERENCE_PAIRING_H_
#define SKEWSEARCH_TESTS_REFERENCE_PAIRING_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/path_engine.h"
#include "data/dataset.h"
#include "distributed/distributed_join.h"
#include "sim/measures.h"

namespace skewsearch {
namespace test {

/// What a join over a built coordinator must ship and scan.
struct ReferencePairing {
  size_t probes = 0;        ///< probes with at least one item
  size_t requests = 0;      ///< (probe, owner) pairs with a slice to scan
  /// Shipped keys: in a self-join, slices not holding the probe.
  size_t keys = 0;
  size_t kernel_keys = 0;   ///< every (key, owner) pair of the kernel keys
  size_t draws = 0;         ///< the route's kernel draws: none in a self-join
  /// Per owner: `probes` counts requests, `candidates` the entries of
  /// the slices it scans, and `verifications` the distinct ids in them
  /// (above the probe, in a self-join) whose sizes can reach the join's
  /// threshold.
  std::vector<WorkerLoad> workers;

  double fanout() const {
    return probes > 0 ? static_cast<double>(requests) /
                            static_cast<double>(probes)
                      : 0.0;
  }
};

/// Pairs every vector of \p data, the build side of \p join, as a
/// self-join probe, or, given \p left, every vector of it as an R-S
/// probe.
inline ReferencePairing PairByReference(const DistributedJoin& join,
                                        const Dataset& data,
                                        const Dataset* left = nullptr) {
  const bool self_join = left == nullptr;
  const Dataset& probes = self_join ? data : *left;
  const size_t worker_count = static_cast<size_t>(join.num_workers());
  const Measure measure = join.family().options().verify_measure;
  ReferencePairing pairing;
  pairing.workers.resize(worker_count);
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int> owners;
  for (VectorId probe = 0; probe < probes.size(); ++probe) {
    if (probes.Get(probe).empty()) continue;
    pairing.probes++;
    PathGenStats gen;
    join.family().ComputeAllFilters(probes.Get(probe), &keys, &offsets,
                                    &gen);
    pairing.kernel_keys += keys.size();
    if (self_join) {
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    } else {
      pairing.draws += gen.draws;
    }
    std::vector<size_t> scanned(worker_count, 0);
    std::vector<std::vector<VectorId>> seen(worker_count);  // to verify
    for (uint64_t key : keys) {
      owners.clear();
      join.plan().RouteKey(key, &owners);
      std::vector<std::span<const VectorId>> slices;
      std::vector<size_t> held;  // postings of the probe in each slice
      size_t postings = 0;
      for (int owner : owners) {
        slices.push_back(join.worker(owner).table().Lookup(key));
        held.push_back(self_join ? static_cast<size_t>(std::count(
                                       slices.back().begin(),
                                       slices.back().end(), probe))
                                 : 0);
        postings += held.back();
      }
      for (size_t j = 0; j < owners.size(); ++j) {
        const size_t o = static_cast<size_t>(owners[j]);
        const std::span<const VectorId> slice = slices[j];
        size_t scans = 1;
        if (!self_join) {
          pairing.keys++;
        } else if (slice.empty() ||
                   *std::max_element(slice.begin(), slice.end()) <= probe) {
          continue;
        } else {
          scans = held[j] > 0 ? held[j] : postings;
          if (held[j] == 0) pairing.keys += scans;
        }
        scanned[o] += scans;
        pairing.workers[o].candidates += scans * slice.size();
        for (VectorId id : slice) {
          if ((!self_join || id > probe) && scans > 0) seen[o].push_back(id);
        }
      }
    }
    const size_t probe_size = probes.Get(probe).size();
    for (size_t o = 0; o < worker_count; ++o) {
      std::sort(seen[o].begin(), seen[o].end());
      seen[o].erase(std::unique(seen[o].begin(), seen[o].end()),
                    seen[o].end());
      for (VectorId id : seen[o]) {
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

/// The work \p got, a join's stats, reports equals \p want's: the
/// shipped keys, the fan-out, the route's kernel draws, and each owner's
/// requests, candidates and verifications.
inline void ExpectPairing(const ReferencePairing& want,
                          const DistributedJoinStats& got) {
  EXPECT_EQ(got.probe_keys, want.keys);
  EXPECT_EQ(got.probe_fanout, want.fanout());
  EXPECT_EQ(got.route_draws, want.draws);
  ASSERT_EQ(got.workers.size(), want.workers.size());
  size_t verifications = 0;
  for (size_t w = 0; w < want.workers.size(); ++w) {
    EXPECT_EQ(got.workers[w].probes, want.workers[w].probes) << "worker " << w;
    EXPECT_EQ(got.workers[w].candidates, want.workers[w].candidates)
        << "worker " << w;
    EXPECT_EQ(got.workers[w].verifications, want.workers[w].verifications)
        << "worker " << w;
    verifications += want.workers[w].verifications;
  }
  EXPECT_EQ(got.verifications, verifications);
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_REFERENCE_PAIRING_H_
