#include "distributed/distributed_join.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/frozen_shard.h"
#include "core/index_io.h"
#include "core/sharded_index.h"
#include "core/similarity_join.h"
#include "distributed/transport/session.h"
#include "distributed/transport/wire.h"
#include "join_oracle.h"
#include "test_paths.h"

namespace skewsearch {
namespace {

using test::AdversarialJoinOptions;
using test::ExpectSamePairs;
using test::JoinOracle;
using test::MakeJoinOracleConfig;
using test::ZipfDataWithDuplicates;
using test::ZipfJoinConfig;

DistributedJoinOptions DistributedFrom(const JoinOptions& options,
                                       int workers) {
  DistributedJoinOptions distributed = options;
  distributed.workers = workers;
  return distributed;
}

constexpr uint32_t kInProcessBuild = test::kBuild | test::kInProcess |
                                     test::kClean;

TEST(DistributedJoinTest, SelfJoinIdenticalToSingleProcessOnZipf) {
  for (uint64_t seed : {11u, 12u}) {
    JoinOracle(ZipfJoinConfig(seed, 120))
        .Check(test::kEveryW | test::kAutoHeavy | kInProcessBuild |
               test::kSelfJoin);
  }
}

TEST(DistributedJoinTest, SelfJoinIdenticalToSingleProcessOnTwoBlock) {
  for (uint64_t seed : {21u, 22u}) {
    JoinOracle(MakeJoinOracleConfig("TwoBlock", false, 120, seed, 0.8, seed))
        .Check(test::kEveryW | test::kAutoHeavy | kInProcessBuild |
               test::kSelfJoin);
  }
}

TEST(DistributedJoinTest, ForcedHeavySplittingPreservesOutput) {
  // heavy_threshold 1 makes *every* key heavy (maximal slicing and
  // probe fan-out); the output must not change.
  JoinOracle(ZipfJoinConfig(31))
      .Check(test::kW2 | test::kW7 | test::kForcedHeavy | kInProcessBuild |
             test::kEveryJoin);
}

TEST(DistributedJoinTest, AllLightRoutingPreservesOutput) {
  JoinOracle(ZipfJoinConfig(32))
      .Check(test::kW2 | test::kW7 | test::kAllLight | kInProcessBuild |
             test::kEveryJoin);
}

TEST(DistributedJoinTest, RSJoinIdenticalToSingleProcess) {
  JoinOracle(ZipfJoinConfig(41))
      .Check(test::kEveryW | test::kAutoHeavy | kInProcessBuild |
             test::kRSJoin);
}

TEST(DistributedJoinTest, RSJoinWithItemsOutsideTheUniverse) {
  // Half the oracle's copies of build vectors carry two items outside
  // the universe; the reference re-verifies every pair.
  JoinOracle(ZipfJoinConfig(43, 100, 0.6))
      .Check(test::kW2 | test::kAutoHeavy | kInProcessBuild | test::kRSJoin);
}

TEST(DistributedJoinParallelIdentityTest, ThreadsDoNotChangeOutput) {
  JoinOracle(ZipfJoinConfig(51, 120))
      .Check(test::kW2 | test::kW7 | test::kAutoHeavy | kInProcessBuild |
             test::kThreaded | test::kEveryJoin);
}

TEST(DistributedJoinParallelIdentityTest, ConcurrentJoinsShareOnePool) {
  // Two threads join on one in-process coordinator at threads = 4. The
  // coordinator's pool serves both: their routes and fan-outs take
  // turns on it, and every join gets the reference pairs.
  JoinOracle oracle(ZipfJoinConfig(53, 120));
  DistributedJoinOptions options = oracle.family();
  options.workers = 3;
  options.threads = 4;
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&oracle.data(), &oracle.dist(), options).ok());
  constexpr int kRounds = 3;
  std::vector<Result<std::vector<JoinPair>>> joined[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        joined[t].push_back(join.SelfJoin());
        joined[t].push_back(join.Join(oracle.left()));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 2; ++t) {
    ASSERT_EQ(joined[t].size(), 2u * kRounds);
    for (size_t j = 0; j < joined[t].size(); ++j) {
      SCOPED_TRACE("thread " + std::to_string(t) + ", join " +
                   std::to_string(j));
      ASSERT_TRUE(joined[t][j].ok()) << joined[t][j].status().ToString();
      ExpectSamePairs(oracle.reference(/*self_join=*/j % 2 == 0),
                      *joined[t][j]);
    }
  }
}

TEST(DistributedJoinTest, JoinOptionsWorkersRouteThroughBackend) {
  // SelfSimilarityJoin with workers = W runs the engine at W: the
  // reference pairs, and the work of the coordinator it builds.
  JoinOracle(ZipfJoinConfig(61))
      .Check(test::kEveryW | test::kAutoHeavy | test::kBuild |
             test::kOneShot | test::kClean | test::kSelfJoin);
}

TEST(DistributedJoinTest, PropagatesBuildErrors) {
  auto dist = UniformProbabilities(10, 0.2).value();
  Dataset tiny;
  tiny.Add(SparseVector::Of({1}));
  DistributedJoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = 0.5;
  DistributedJoin join;
  EXPECT_TRUE(join.Build(&tiny, &dist, options).IsInvalidArgument());
  EXPECT_FALSE(join.built());
  EXPECT_FALSE(join.SelfJoin().ok());

  // `threads` sizes the join's build; a build_threads it would not read
  // fails instead of being dropped, through the one-shot API too.
  ProductDistribution zipf;
  Dataset data = ZipfDataWithDuplicates(82, 60, &zipf);
  options.index.build_threads = 4;
  const Status built = join.Build(&data, &zipf, options);
  EXPECT_TRUE(built.IsInvalidArgument()) << built.ToString();
  EXPECT_NE(built.message().find("build_threads"), std::string::npos);
  JoinOptions one_shot = AdversarialJoinOptions(0.8, 82);
  one_shot.index.build_threads = 4;
  EXPECT_TRUE(SelfSimilarityJoin(data, zipf, one_shot)
                  .status()
                  .IsInvalidArgument());
}

TEST(DistributedJoinTest, FailedBuildLeavesCoordinatorUnbuilt) {
  // A failure *after* the family derivation (here: an invalid worker
  // count, rejected by the planner) must not leave built() true with
  // zero workers — SelfJoin would then return an empty result instead
  // of an error.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(81, 60, &dist);
  DistributedJoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = 0.8;
  options.workers = 0;
  DistributedJoin join;
  EXPECT_TRUE(join.Build(&data, &dist, options).IsInvalidArgument());
  EXPECT_FALSE(join.built());
  auto result = join.SelfJoin();
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());

  // And a failed re-Build keeps the previous good state serving.
  options.workers = 3;
  ASSERT_TRUE(join.Build(&data, &dist, options).ok());
  auto expected = join.SelfJoin();
  ASSERT_TRUE(expected.ok());
  DistributedJoinOptions bad = options;
  bad.workers = 100000;  // beyond the planner's cap
  EXPECT_TRUE(join.Build(&data, &dist, bad).IsInvalidArgument());
  EXPECT_TRUE(join.built());
  auto still = join.SelfJoin();
  ASSERT_TRUE(still.ok());
  ExpectSamePairs(*expected, *still);
}

TEST(DistributedJoinTest, WorkerLoadsAccountForEveryEntry) {
  // The slices are a disjoint cover: per-worker entries must sum to the
  // monolithic table's pair count, whatever the split.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(71, 120, &dist);
  JoinOptions options = AdversarialJoinOptions(0.8, 71);

  ShardedIndex index;
  ASSERT_TRUE(index.Build(&data, &dist, {options.index, 1}).ok());
  const size_t expected_entries = index.shard_table(0).num_pairs();

  for (size_t heavy_threshold : {size_t{1}, size_t{0}, size_t{1000000}}) {
    SCOPED_TRACE("heavy_threshold = " + std::to_string(heavy_threshold));
    DistributedJoinOptions distributed = DistributedFrom(options, 6);
    distributed.heavy_threshold = heavy_threshold;
    DistributedJoin join;
    ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());
    size_t total = 0;
    for (int w = 0; w < join.num_workers(); ++w) {
      total += join.worker(w).num_entries();
    }
    EXPECT_EQ(total, expected_entries);
  }
}

TEST(DistributedJoinTest, SlicesEqualAnAddFreezeCut) {
  // The build cuts its slices from the sorted table in two counted
  // passes, without a re-sort. Each slice must equal, array for array,
  // the one an Add+Freeze pass over the same plan makes, and one worker
  // serves the table itself.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(72, 120, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.8, 72);
  ShardedIndex index;
  ASSERT_TRUE(index.Build(&data, &dist, {options.index, 1}).ok());
  const FilterTable& table = index.shard_table(0);
  auto same = [](auto a, auto b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  };
  std::vector<int> owners;
  for (int workers : {1, 2, 7}) {
    for (size_t heavy_threshold : {size_t{0}, size_t{1}}) {
      SCOPED_TRACE("workers = " + std::to_string(workers) +
                   ", heavy_threshold = " + std::to_string(heavy_threshold));
      DistributedJoinOptions distributed = DistributedFrom(options, workers);
      distributed.heavy_threshold = heavy_threshold;
      DistributedJoin join;
      ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());
      std::vector<std::vector<Posting>> reference(static_cast<size_t>(workers));
      for (size_t k = 0; k < table.num_keys(); ++k) {
        const auto postings = table.postings_at(k);
        owners.clear();
        join.plan().RouteKey(table.key_at(k), &owners);
        const size_t chunks = owners.size();
        for (size_t j = 0; j < chunks; ++j) {
          for (size_t i = j * postings.size() / chunks;
               i < (j + 1) * postings.size() / chunks; ++i) {
            reference[static_cast<size_t>(owners[j])].push_back(
                {table.key_at(k), postings[i]});
          }
        }
      }
      auto cut = distributed_internal::CutSlices(table, join.plan());
      ASSERT_TRUE(cut.ok());
      ASSERT_EQ(cut->size(), reference.size());
      for (int w = 0; w < workers; ++w) {
        SCOPED_TRACE("worker " + std::to_string(w));
        const FilterTable want = FilterTable::Build(
            std::move(reference[static_cast<size_t>(w)]));
        const FilterTable* slices[] = {&(*cut)[static_cast<size_t>(w)],
                                       &join.worker(w).table()};
        for (const FilterTable* slice : slices) {
          EXPECT_TRUE(same(slice->keys_span(), want.keys_span()));
          EXPECT_TRUE(same(slice->offsets_span(), want.offsets_span()));
          EXPECT_TRUE(same(slice->ids_span(), want.ids_span()));
          EXPECT_TRUE(same(slice->directory_span(), want.directory_span()));
          EXPECT_TRUE(slice->Validate().ok());
        }
      }
      if (workers == 1) {
        EXPECT_EQ((*cut)[0].keys_span().data(), table.keys_span().data());
      }
    }
  }
}

/// SelfJoin() pairs each probe inside the worker lists that hold it and
/// ships a key to an owner only when the owner's slice of it does not
/// hold the probe but holds an id above it. Runs it on \p join, whose
/// build side is \p data, and checks its work counters against the
/// reference pairing (tests/reference_pairing.h), which derives them
/// from the filter kernel and the plan instead, and its pairs against
/// Join()'s with left < right. Returns the self-join's stats.
DistributedJoinStats CheckSelfJoinAgainstReferencePairing(
    const DistributedJoin& join, const Dataset& data) {
  const test::ReferencePairing reference = test::PairByReference(join, data);
  EXPECT_GT(reference.kernel_keys, 0u) << "the row needs kernel keys";
  DistributedJoinStats stats;
  auto self = join.SelfJoin(&stats);
  auto rs = join.Join(data);
  if (!self.ok() || !rs.ok()) {
    ADD_FAILURE() << self.status().ToString() << " / "
                  << rs.status().ToString();
    return stats;
  }
  test::ExpectPairing(reference, stats);
  std::vector<JoinPair> upper;
  for (const JoinPair& pair : *rs) {
    if (pair.left < pair.right) upper.push_back(pair);
  }
  ExpectSamePairs(upper, *self);
  return stats;
}

TEST(DistributedJoinTest, SelfJoinRoutesOnlyKeysThatCanPair) {
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(91, 120, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.8, 91);

  // Heap slices after Build: every key heavy, the automatic split, and
  // nothing heavy, at one, two and five workers.
  for (size_t heavy_threshold : {size_t{1}, size_t{0}, size_t{1000000}}) {
    for (int workers : {1, 2, 5}) {
      SCOPED_TRACE("heavy_threshold = " + std::to_string(heavy_threshold) +
                   ", workers = " + std::to_string(workers));
      DistributedJoinOptions distributed = DistributedFrom(options, workers);
      distributed.heavy_threshold = heavy_threshold;
      DistributedJoin join;
      ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());
      EXPECT_GT(CheckSelfJoinAgainstReferencePairing(join, data).pairs, 0u);
    }
  }

  {
    // Mapped shard views after BuildFromFrozen, under broadcast routing.
    SCOPED_TRACE("frozen, 3 shards");
    const std::string path = test::TempPath("selfjoin_route", this, ".skf");
    ShardedIndexOptions sharded;
    sharded.index = options.index;
    sharded.num_shards = 3;
    ShardedIndex index;
    ASSERT_TRUE(index.Build(&data, &dist, sharded).ok());
    ASSERT_TRUE(index.Freeze(path).ok());
    DistributedJoinOptions distributed;
    distributed.threshold = options.threshold;
    DistributedJoin join;
    const Status built = join.BuildFromFrozen(&data, &dist, path, distributed);
    std::remove(path.c_str());
    ASSERT_TRUE(built.ok());
    ASSERT_EQ(join.num_workers(), 3);
    EXPECT_GT(CheckSelfJoinAgainstReferencePairing(join, data).pairs, 0u);
  }

  {
    // A path cap small enough to truncate F(x): the build stores the
    // truncated sets, and they invert to the keys the kernel computes.
    SCOPED_TRACE("truncated filter sets");
    DistributedJoinOptions distributed = DistributedFrom(options, 2);
    distributed.index.max_paths_per_element = 2;
    DistributedJoin join;
    ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());
    size_t capped_reps = 0;
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    for (VectorId id = 0; id < data.size(); ++id) {
      size_t capped = 0;
      join.family().ComputeAllFilters(data.Get(id), &keys, &offsets, nullptr,
                                      &capped);
      capped_reps += capped;
    }
    ASSERT_GT(capped_reps, 0u);
    EXPECT_GT(CheckSelfJoinAgainstReferencePairing(join, data).pairs, 0u);
  }

  {
    // Loopback workers pair inside their own lists as in-process ones do.
    SCOPED_TRACE("loopback");
    DistributedJoinOptions distributed = DistributedFrom(options, 2);
    distributed.probe_batch = 16;
    test::HostedWorker hosts[2];
    DistributedJoin join;
    ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());
    std::vector<std::unique_ptr<FrameConnection>> connections;
    for (test::HostedWorker& host : hosts) {
      connections.push_back(host.Connect());
    }
    ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());
    EXPECT_GT(CheckSelfJoinAgainstReferencePairing(join, data).pairs, 0u);
    join.DetachRemote();
    for (test::HostedWorker& host : hosts) {
      host.Join();
      EXPECT_TRUE(host.status().ok()) << host.status().ToString();
    }
  }
}

TEST(DistributedJoinTest, SelfJoinPrunesPerSliceOfAHeavyKey) {
  // Nine copies of one vector of rare items, at the end of the id range:
  // its keys hold the copies, and a heavy threshold of 3 cuts each into
  // three slices of three on three workers. A copy in the first slice
  // pairs in its own slice and is shipped the key by the middle and last
  // owners, one in the middle slice pairs in its own and is shipped the
  // key by the last owner, and the last copy pairs nowhere.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(92, 60, &dist);
  const VectorId first_copy = static_cast<VectorId>(data.size());
  const SparseVector rare = SparseVector::Of({1990, 1992, 1994, 1996, 1998});
  for (int copy = 0; copy < 9; ++copy) data.Add(rare);
  ASSERT_TRUE(data.SetDimension(2000).ok());
  const JoinOptions options = AdversarialJoinOptions(0.8, 92);
  DistributedJoinOptions distributed = DistributedFrom(options, 3);
  distributed.heavy_threshold = 3;
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());

  size_t straddling_keys = 0;
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  std::vector<int> owners;
  join.family().ComputeAllFilters(rare.span(), &keys, &offsets);
  for (uint64_t key : keys) {
    owners.clear();
    join.plan().RouteKey(key, &owners);
    if (owners.size() != 3) continue;
    bool copies_in_order = true;
    for (size_t j = 0; j < 3; ++j) {
      const auto slice = join.worker(owners[j]).table().Lookup(key);
      const VectorId begin = first_copy + static_cast<VectorId>(3 * j);
      copies_in_order = copies_in_order && slice.size() == 3 &&
                        slice.front() == begin && slice.back() == begin + 2;
    }
    if (copies_in_order) straddling_keys++;
  }
  ASSERT_GT(straddling_keys, 0u) << "the row needs a key sliced 3 ways";
  EXPECT_GT(CheckSelfJoinAgainstReferencePairing(join, data).pairs, 0u);
}

TEST(DistributedJoinTest, SelfJoinRoutesAroundADuplicateAtAListsEnd) {
  // Freeze keeps duplicate (key, id) pairs. Write a frozen file whose
  // lists end in their largest id twice: that probe must pair in no
  // list, and every probe below it scan each list once per posting of
  // it, on its own shard and through a key shipped to the other.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(93, 120, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.8, 93);
  ShardedIndexOptions sharded;
  sharded.index = options.index;
  sharded.num_shards = 2;
  ShardedIndex index;
  ASSERT_TRUE(index.Build(&data, &dist, sharded).ok());
  std::vector<FilterTable> tables(2);
  size_t duplicated = 0;
  for (int s = 0; s < 2; ++s) {
    const FilterTable& shard = index.shard_table(s);
    const FilterTable& other = index.shard_table(1 - s);
    std::vector<Posting> pairs;
    for (size_t k = 0; k < shard.num_keys(); ++k) {
      const uint64_t key = shard.key_at(k);
      const auto postings = shard.postings_at(k);
      for (VectorId id : postings) pairs.push_back({key, id});
      const auto rest = other.Lookup(key);
      if (postings.size() >= 2 &&
          (rest.empty() || rest.back() < postings.back())) {
        pairs.push_back({key, postings.back()});
        duplicated++;
      }
    }
    tables[static_cast<size_t>(s)] = FilterTable::Build(std::move(pairs));
  }
  ASSERT_GT(duplicated, 0u);
  const std::string path = test::TempPath("selfjoin_dup_end", this, ".skf");
  const FilterTable* shards[] = {&tables[0], &tables[1]};
  ASSERT_TRUE(WriteFrozenShards(path, options.index,
                                index.family().verify_threshold(),
                                index.build_stats(),
                                index_io_internal::Fingerprint(data), shards)
                  .ok());
  DistributedJoinOptions frozen;
  frozen.threshold = options.threshold;
  DistributedJoin join;
  const Status built = join.BuildFromFrozen(&data, &dist, path, frozen);
  std::remove(path.c_str());
  ASSERT_TRUE(built.ok()) << built.ToString();
  EXPECT_GT(CheckSelfJoinAgainstReferencePairing(join, data).pairs, 0u);
}

TEST(DistributedJoinTest, ProbeWithNoLargerNeighbourSendsNoRequest) {
  // Vectors with pairwise disjoint items share no filter key, so no probe
  // has a larger neighbour: the kernel gives each probe keys, but the
  // self-join sends no request at all.
  auto dist = ZipfProbabilities(2000, 1.0, 0.4).value();
  Dataset data;
  for (ItemId v = 0; v < 40; ++v) {
    data.Add(SparseVector::Of({5 * v, 5 * v + 1, 5 * v + 2, 5 * v + 3,
                               5 * v + 4}));
  }
  ASSERT_TRUE(data.SetDimension(2000).ok());
  DistributedJoin join;
  ASSERT_TRUE(
      join.Build(&data, &dist,
                 DistributedFrom(AdversarialJoinOptions(0.8, 94), 2))
          .ok());
  const DistributedJoinStats stats =
      CheckSelfJoinAgainstReferencePairing(join, data);
  EXPECT_EQ(stats.pairs, 0u);
  EXPECT_EQ(stats.probe_keys, 0u);
  EXPECT_EQ(stats.probe_fanout, 0.0);
  for (const WorkerLoad& load : stats.workers) EXPECT_EQ(load.probes, 0u);
}

TEST(DistributedJoinTest, SelfJoinSkipsPairsWhoseSizesCannotPass) {
  // A 4-item vector inside a 40-item one: they share rare items, so they
  // share filter keys, but their Braun-Blanquet similarity is at most
  // 4 / 40, so at threshold 0.5 the workers scan the shared entries and
  // verify nothing.
  auto dist = ZipfProbabilities(2000, 1.0, 0.4).value();
  std::vector<ItemId> small;
  std::vector<ItemId> large;
  for (ItemId item = 1960; item < 2000; ++item) {
    large.push_back(item);
    if (item % 10 == 0) small.push_back(item);
  }
  ASSERT_EQ(small.size(), 4u);
  Dataset data;
  data.Add(small);
  data.Add(large);
  ASSERT_TRUE(data.SetDimension(2000).ok());
  const JoinOptions options = AdversarialJoinOptions(0.5, 8);
  auto expected = test::ReferenceSelfJoin(data, dist, options);
  ASSERT_TRUE(expected.ok());
  EXPECT_TRUE(expected->empty());
  for (int workers : {1, 2}) {
    SCOPED_TRACE("workers = " + std::to_string(workers));
    DistributedJoin join;
    ASSERT_TRUE(
        join.Build(&data, &dist, DistributedFrom(options, workers)).ok());
    const DistributedJoinStats stats =
        CheckSelfJoinAgainstReferencePairing(join, data);
    EXPECT_GT(stats.candidates, 0u) << "the row needs a shared key";
    EXPECT_EQ(stats.verifications, 0u);
    EXPECT_EQ(stats.pairs, 0u);
  }
}

TEST(DistributedJoinTest, WorkerProbedFromFourThreadsMatchesASerialPass) {
  // One JoinWorker, every vector as a probe: self-join requests, which
  // name the probe alone, alternate with R-S requests carrying the
  // kernel keys and the items. They are answered once by four threads,
  // each reusing a scratch of its own over an interleaved quarter of the
  // probes, which race to build the worker's occurrence index, and once
  // serially through one scratch.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(98, 200, &dist);
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&data, &dist,
                         DistributedFrom(AdversarialJoinOptions(0.6, 98), 1))
                  .ok());
  const JoinWorker& worker = join.worker(0);
  std::vector<ProbeRequest> requests(data.size());
  std::vector<size_t> offsets;
  for (VectorId id = 0; id < data.size(); ++id) {
    ProbeRequest& request = requests[id];
    request.left = id;
    request.exclude_left_and_below = id % 2 == 0;
    if (!request.exclude_left_and_below) {
      request.items = data.Get(id);
      join.family().ComputeAllFilters(request.items, &request.keys, &offsets);
    }
  }

  constexpr size_t kThreads = 4;
  std::vector<ProbeResponse> parallel(requests.size());
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ProbeScratch own;
      for (size_t i = t; i < requests.size(); i += kThreads) {
        parallel[i] = worker.Probe(requests[i], &own);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<ProbeResponse> serial;
  ProbeScratch scratch;
  for (const ProbeRequest& request : requests) {
    serial.push_back(worker.Probe(request, &scratch));
  }

  size_t others = 0;  // matches naming another vector than the probe
  size_t self_pairs = 0;  // matches of the self-join requests
  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("probe " + std::to_string(i));
    EXPECT_EQ(parallel[i].left, serial[i].left);
    EXPECT_EQ(parallel[i].candidates, serial[i].candidates);
    EXPECT_EQ(parallel[i].verifications, serial[i].verifications);
    ASSERT_EQ(parallel[i].matches.size(), serial[i].matches.size());
    for (size_t m = 0; m < serial[i].matches.size(); ++m) {
      EXPECT_EQ(parallel[i].matches[m].id, serial[i].matches[m].id);
      EXPECT_EQ(parallel[i].matches[m].similarity,
                serial[i].matches[m].similarity);
    }
    for (const Match& match : serial[i].matches) {
      others += match.id != serial[i].left ? 1 : 0;
    }
    if (requests[i].exclude_left_and_below) {
      self_pairs += serial[i].matches.size();
    }
  }
  EXPECT_GT(others, 0u) << "the row needs pairs";
  EXPECT_GT(self_pairs, 0u) << "the row needs self-join pairs";
}

TEST(DistributedJoinTest, SelfJoinProbeReadsOnlyIdsAboveTheProbe) {
  // Twelve copies of one vector, so every pair reaches the threshold,
  // and a table by hand around probe 4: key 10 holds ids below it, the
  // probe twice (a duplicate (key, id) pair, as Freeze keeps them) and
  // ids above it; key 20 holds it once; keys 30 and 50 end in it, once
  // and twice, so they pair nothing; the request ships key 40, which
  // does not hold it. Ids 0, 2, 5, 8 and 11 are in no list, so a
  // shipped worker's positions are not the ids. Served either way, the
  // probe answers each id above it once, none at or below it, and
  // counts the whole of every list it reaches: key 10 once per posting
  // of the probe, 6 + 6 + 3 + 3 entries.
  Dataset data;
  for (int copy = 0; copy < 12; ++copy) data.Add(SparseVector::Of({1, 2, 3}));
  const std::vector<std::pair<uint64_t, std::vector<VectorId>>> lists = {
      {10, {1, 3, 4, 4, 6, 9}},
      {20, {3, 4, 7}},
      {30, {1, 4}},
      {40, {3, 6, 10}},
      {50, {4, 4}}};
  std::vector<Posting> postings;
  for (const auto& [key, ids] : lists) {
    for (VectorId id : ids) postings.push_back({key, id});
  }
  const FilterTable table = FilterTable::Build(postings);
  ProbeRequest request;
  request.left = 4;
  request.exclude_left_and_below = true;
  request.keys = {40};
  auto expect_answer = [&](const JoinWorker& worker) {
    ProbeScratch scratch;
    const ProbeResponse response = worker.Probe(request, &scratch);
    std::vector<VectorId> answered;
    for (const Match& match : response.matches) {
      answered.push_back(match.id);
      EXPECT_EQ(match.similarity, 1.0);
    }
    std::sort(answered.begin(), answered.end());
    EXPECT_EQ(answered, (std::vector<VectorId>{6, 7, 9, 10}));
    EXPECT_EQ(response.verifications, 4u);
    EXPECT_EQ(response.candidates, 18u);
  };
  {
    SCOPED_TRACE("in-process: positions are ids");
    expect_answer(
        JoinWorker(0, FilterTable::Build(postings), &data, 0.8,
                   Measure::kBraunBlanquet));
  }
  SCOPED_TRACE("shipped: positions are ranks among the listed ids");
  wire::Assignment assignment;
  ASSERT_TRUE(wire::DecodeAssignment(
                  wire::EncodeAssignment(table, data, 0.8,
                                         Measure::kBraunBlanquet),
                  &assignment)
                  .ok());
  WorkerState state(0);
  ASSERT_TRUE(state.Apply(std::move(assignment)).ok());
  ASSERT_EQ(state.original_ids(),
            (std::vector<VectorId>{1, 3, 4, 6, 7, 9, 10}));
  expect_answer(*state.worker());
}

TEST(DistributedJoinTest, RSJoinServesItsProbesInChunks) {
  // The oracle's probes fill two chunks, each routed, served and merged
  // on its own: the pairs are the reference join's, in-process and over
  // loopback in one frame per worker per chunk, and the work counters
  // are the sums of joining each chunk alone.
  JoinOracle oracle(ZipfJoinConfig(95));
  oracle.Check(test::kW1 | test::kW7 | test::kForcedHeavy | test::kBuild |
               test::kThreaded | test::kLoopbackWhole | test::kClean |
               test::kRSJoin);
  const Dataset& left = oracle.left();
  const size_t chunk = distributed_internal::kRouteChunk;
  DistributedJoinOptions options = oracle.family();
  options.workers = 1;
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&oracle.data(), &oracle.dist(), options).ok());
  DistributedJoinStats whole;
  ASSERT_TRUE(join.Join(left, &whole).ok());
  DistributedJoinStats sum;
  sum.workers.resize(1);
  for (size_t begin = 0; begin < left.size(); begin += chunk) {
    Dataset part;
    for (size_t i = begin; i < std::min(left.size(), begin + chunk); ++i) {
      part.Add(left.Get(static_cast<VectorId>(i)));
    }
    DistributedJoinStats stats;
    ASSERT_TRUE(join.Join(part, &stats).ok());
    sum.pairs += stats.pairs;
    sum.candidates += stats.candidates;
    sum.verifications += stats.verifications;
    sum.probe_keys += stats.probe_keys;
    sum.route_draws += stats.route_draws;
    sum.workers[0].probes += stats.workers[0].probes;
  }
  EXPECT_EQ(whole.pairs, oracle.reference(false).size());
  EXPECT_EQ(whole.pairs, sum.pairs);
  EXPECT_EQ(whole.candidates, sum.candidates);
  EXPECT_EQ(whole.verifications, sum.verifications);
  EXPECT_EQ(whole.probe_keys, sum.probe_keys);
  EXPECT_EQ(whole.route_draws, sum.route_draws);
  EXPECT_EQ(whole.workers[0].probes, sum.workers[0].probes);

  // Every key heavy at W = 3: some pair surfaces on two workers, and the
  // merge keeps one.
  options.workers = 3;
  options.heavy_threshold = 1;
  DistributedJoin split;
  ASSERT_TRUE(split.Build(&oracle.data(), &oracle.dist(), options).ok());
  DistributedJoinStats stats;
  ASSERT_TRUE(split.Join(left, &stats).ok());
  EXPECT_GT(stats.cross_worker_duplicates, 0u);
}

}  // namespace
}  // namespace skewsearch
