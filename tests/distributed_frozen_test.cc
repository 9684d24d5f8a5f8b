// Frozen-shard serving tests: a DistributedJoin built from a mapped
// SKF2 file (zero posting-table rebuild, broadcast routing over the
// id-partitioned shards) must produce output byte-identical to the
// reference join (reference_join.h) — in-process and over the wire,
// where workers pre-map the file and the coordinator ships only a tiny
// ShardAssignment per session. Also covers the failure surface: wrong
// dataset, wrong file, un-preloaded workers, and the no-recovery
// contract (a mapped shard is not re-shippable state).
// The suite name starts with "Distributed" so CI's TSan matrix picks
// it up.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "core/similarity_join.h"
#include "data/generators.h"
#include "distributed/distributed_join.h"
#include "distributed/transport/session.h"
#include "distributed/transport/transport.h"
#include "frozen_test_util.h"
#include "reference_join.h"
#include "reference_pairing.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using test::AdversarialJoinOptions;
using test::ExpectSamePairs;
using test::ZipfDataWithDuplicates;

/// Freezes the build side of \p options over \p data into an SKF2 file
/// at \p path, partitioned into \p shards id-shards.
void FreezeBuildSide(const Dataset& data, const ProductDistribution& dist,
                     const JoinOptions& options, int shards,
                     const std::string& path) {
  ShardedIndexOptions sharded_options;
  sharded_options.index = options.index;
  sharded_options.num_shards = shards;
  ShardedIndex index;
  ASSERT_TRUE(index.Build(&data, &dist, sharded_options).ok());
  ASSERT_TRUE(index.Freeze(path).ok());
}

/// One hosted worker thread running ServeConnection, optionally with a
/// pre-mapped frozen file (the `join-worker --shard-file` setup).
struct HostedWorker {
  std::thread thread;
  Status status;
  WorkerServeStats stats;

  void Serve(std::unique_ptr<FrameConnection> connection,
             const ServeOptions& options = {}) {
    thread = std::thread(
        [this, conn = std::move(connection), options]() mutable {
          status = ServeConnection(conn.get(), &stats, options);
        });
  }
  void Join() {
    if (thread.joinable()) thread.join();
  }
};

/// RAII deleter for the frozen files tests write.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

TEST(DistributedFrozenTest, InProcessFrozenSelfJoinMatchesSingleProcess) {
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(41, 240, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.6, 5);
  const std::string path = test::TempPath("frozen_selfjoin", this, ".skf");
  FileGuard guard{path};
  FreezeBuildSide(data, dist, options, /*shards=*/3, path);

  auto expected = test::ReferenceSelfJoin(data, dist, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->empty());

  DistributedJoinOptions distributed;
  distributed.threshold = options.threshold;
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());
  EXPECT_TRUE(join.frozen());
  EXPECT_EQ(join.num_workers(), 3);
  EXPECT_TRUE(join.plan().broadcast);
  EXPECT_EQ(join.plan().num_heavy_keys(), 0u);

  DistributedJoinStats stats;
  auto got = join.SelfJoin(&stats);
  ASSERT_TRUE(got.ok());
  ExpectSamePairs(*expected, *got);
  // Broadcast routing offers every key to every shard, but a self-join
  // probe visits only the shards whose slice of one of its keys holds a
  // larger id, so the average stays below the worker count.
  EXPECT_LT(stats.probe_fanout, 3.0);
  EXPECT_EQ(stats.probe_fanout, test::PairByReference(join, data).fanout());
  // Id shards are disjoint, so the merge dedup never fires.
  EXPECT_EQ(stats.cross_worker_duplicates, 0u);
}

TEST(DistributedFrozenTest, FrozenSingleShardMatchesToo) {
  // A one-shard file degenerates to the monolithic table served
  // zero-copy; broadcast over one worker is plain routing.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(42, 180, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.65, 7);
  const std::string path = test::TempPath("frozen_single", this, ".skf");
  FileGuard guard{path};
  FreezeBuildSide(data, dist, options, /*shards=*/1, path);

  auto expected = test::ReferenceSelfJoin(data, dist, options);
  ASSERT_TRUE(expected.ok());
  DistributedJoinOptions distributed;
  distributed.threshold = options.threshold;
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());
  EXPECT_EQ(join.num_workers(), 1);
  auto got = join.SelfJoin();
  ASSERT_TRUE(got.ok());
  ExpectSamePairs(*expected, *got);
}

TEST(DistributedFrozenTest, JoinOptionsFrozenShardsServesIdenticalPairs) {
  // The one-shot plumbing: frozen_shards maps the file into the engine
  // and must not change a single pair.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(43, 200, &dist);
  JoinOptions options = AdversarialJoinOptions(0.6, 11);
  const std::string path = test::TempPath("frozen_options", this, ".skf");
  FileGuard guard{path};
  FreezeBuildSide(data, dist, options, /*shards=*/2, path);

  auto expected = test::ReferenceSelfJoin(data, dist, options);
  ASSERT_TRUE(expected.ok());
  options.frozen_shards = path;
  DistributedJoinStats stats;
  auto got = SelfSimilarityJoin(data, dist, options, &stats);
  ASSERT_TRUE(got.ok());
  ExpectSamePairs(*expected, *got);
  EXPECT_EQ(stats.pairs, expected->size());
}

TEST(DistributedFrozenTest, FrozenJoinOverLoopbackMatchesInProcess) {
  // The remote frozen mode end to end: workers pre-map the same file
  // (ServeOptions.frozen_file/frozen_data — the --shard-file setup),
  // the coordinator ships one ShardAssignment per session, and the
  // output stays byte-identical to the reference join.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(44, 220, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.6, 13);
  const std::string path = test::TempPath("frozen_loopback", this, ".skf");
  FileGuard guard{path};
  const int shards = 3;
  FreezeBuildSide(data, dist, options, shards, path);

  auto expected = test::ReferenceSelfJoin(data, dist, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_FALSE(expected->empty());

  auto worker_file = FrozenShardFile::Map(path);
  ASSERT_TRUE(worker_file.ok());
  ServeOptions serve;
  serve.frozen_file = worker_file->get();
  serve.frozen_data = &data;

  DistributedJoinOptions distributed;
  distributed.threshold = options.threshold;
  distributed.probe_batch = 16;
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());

  std::vector<HostedWorker> workers(shards);
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (int w = 0; w < shards; ++w) {
    auto [coordinator_end, worker_end] = LoopbackPair();
    workers[static_cast<size_t>(w)].Serve(std::move(worker_end), serve);
    connections.push_back(std::move(coordinator_end));
  }
  ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());
  EXPECT_TRUE(join.remote());

  DistributedJoinStats stats;
  auto got = join.SelfJoin(&stats);
  ASSERT_TRUE(got.ok());
  ExpectSamePairs(*expected, *got);
  EXPECT_EQ(stats.worker_recoveries, 0u);
  join.DetachRemote();
  uint64_t served_entries = 0;
  for (auto& worker : workers) {
    worker.Join();
    EXPECT_TRUE(worker.status.ok()) << worker.status.ToString();
    served_entries += worker.stats.posting_entries;
  }
  // The shards the sessions served cover the whole frozen table.
  uint64_t file_entries = 0;
  for (int s = 0; s < (*worker_file)->num_shards(); ++s) {
    file_entries += (*worker_file)->shard_info(s).ids_count;
  }
  EXPECT_EQ(served_entries, file_entries);
}

TEST(DistributedFrozenTest, BuildFromFrozenRejectsWrongDataset) {
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(45, 150, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.6, 17);
  const std::string path = test::TempPath("frozen_wrong_data", this, ".skf");
  FileGuard guard{path};
  FreezeBuildSide(data, dist, options, /*shards=*/2, path);

  ProductDistribution other_dist;
  Dataset other = ZipfDataWithDuplicates(46, 150, &other_dist);
  DistributedJoin join;
  Status built = join.BuildFromFrozen(&other, &dist, path, {});
  EXPECT_FALSE(built.ok());
  EXPECT_TRUE(built.IsInvalidArgument()) << built.ToString();
  EXPECT_FALSE(join.built());
}

TEST(DistributedFrozenTest, PayloadIdBeyondTheDatasetFailsBuildAndSession) {
  // The default Map checks a shard's brackets, not its ids, and the
  // header's max_id stays in range here. The workers and the self-join
  // route read every id's vector, so a coordinator's BuildFromFrozen and
  // a worker's shard session must both reject the file before serving.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(47, 150, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.6, 19);
  const std::string path = test::TempPath("frozen_bad_id", this, ".skf");
  const std::string bad_path =
      test::TempPath("frozen_bad_id_patched", this, ".skf");
  FileGuard guard{path};
  FileGuard bad_guard{bad_path};
  FreezeBuildSide(data, dist, options, /*shards=*/1, path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const FrozenShardFile::ShardInfo entry = test::FrozenShardEntry(bytes, 0);
  ASSERT_GT(entry.ids_count, 0u);
  ASSERT_LT(entry.max_id, data.size());
  for (const VectorId bad_id :
       {static_cast<VectorId>(data.size()), VectorId{0xfffffff0u}}) {
    SCOPED_TRACE("patched id " + std::to_string(bad_id));
    std::string patched = bytes;
    std::memcpy(patched.data() + entry.ids_offset +
                    (entry.ids_count - 1) * sizeof(VectorId),
                &bad_id, sizeof(bad_id));
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out.write(patched.data(), static_cast<std::streamsize>(patched.size()));
    }

    DistributedJoin join;
    const Status built = join.BuildFromFrozen(&data, &dist, bad_path, {});
    EXPECT_TRUE(built.IsInvalidArgument()) << built.ToString();
    EXPECT_NE(built.message().find("beyond the dataset"), std::string::npos)
        << built.ToString();
    EXPECT_FALSE(join.built());

    // A worker that pre-mapped the patched file, under a coordinator
    // that mapped the good one (same fingerprint and shard table).
    auto worker_file = FrozenShardFile::Map(bad_path);
    ASSERT_TRUE(worker_file.ok()) << worker_file.status().ToString();
    ServeOptions serve;
    serve.frozen_file = worker_file->get();
    serve.frozen_data = &data;
    ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, {}).ok());
    HostedWorker worker;
    auto [coordinator_end, worker_end] = LoopbackPair();
    worker.Serve(std::move(worker_end), serve);
    std::vector<std::unique_ptr<FrameConnection>> connections;
    connections.push_back(std::move(coordinator_end));
    EXPECT_FALSE(join.AttachRemote(std::move(connections)).ok());
    EXPECT_FALSE(join.remote());
    join.DetachRemote();  // ends the session should the attach succeed
    worker.Join();
    EXPECT_TRUE(worker.status.IsInvalidArgument()) << worker.status.ToString();
    EXPECT_NE(worker.status.message().find(std::to_string(bad_id)),
              std::string::npos)
        << worker.status.ToString();
  }
}

TEST(DistributedFrozenTest, FrozenAttachFailsAgainstUnpreloadedWorker) {
  // A worker started without --shard-file answers the ShardAssignment
  // with an Error frame; the coordinator surfaces it and no session is
  // left attached.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(48, 160, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.6, 23);
  const std::string path = test::TempPath("frozen_unpreloaded", this, ".skf");
  FileGuard guard{path};
  FreezeBuildSide(data, dist, options, /*shards=*/2, path);

  DistributedJoinOptions distributed;
  distributed.threshold = options.threshold;
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());

  std::vector<HostedWorker> workers(2);
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (int w = 0; w < 2; ++w) {
    auto [coordinator_end, worker_end] = LoopbackPair();
    workers[static_cast<size_t>(w)].Serve(std::move(worker_end));  // no file
    connections.push_back(std::move(coordinator_end));
  }
  Status attached = join.AttachRemote(std::move(connections));
  EXPECT_FALSE(attached.ok());
  EXPECT_FALSE(join.remote());
  for (auto& worker : workers) worker.Join();
}

TEST(DistributedFrozenTest, FrozenAttachRejectsMismatchedFile) {
  // Worker pre-mapped a file frozen from a different dataset: the
  // fingerprint in the ShardAssignment does not match its mapping.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(49, 150, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.6, 29);
  const std::string path = test::TempPath("frozen_mismatch_a", this, ".skf");
  const std::string other_path =
      test::TempPath("frozen_mismatch_b", this, ".skf");
  FileGuard guard{path};
  FileGuard other_guard{other_path};
  FreezeBuildSide(data, dist, options, /*shards=*/1, path);
  ProductDistribution other_dist;
  Dataset other = ZipfDataWithDuplicates(50, 150, &other_dist);
  FreezeBuildSide(other, other_dist, options, /*shards=*/1, other_path);

  auto worker_file = FrozenShardFile::Map(other_path);
  ASSERT_TRUE(worker_file.ok());
  ServeOptions serve;
  serve.frozen_file = worker_file->get();
  serve.frozen_data = &other;

  DistributedJoinOptions distributed;
  distributed.threshold = options.threshold;
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());
  HostedWorker worker;
  std::vector<std::unique_ptr<FrameConnection>> connections;
  auto [coordinator_end, worker_end] = LoopbackPair();
  worker.Serve(std::move(worker_end), serve);
  connections.push_back(std::move(coordinator_end));
  Status attached = join.AttachRemote(std::move(connections));
  EXPECT_FALSE(attached.ok());
  EXPECT_FALSE(join.remote());
  worker.Join();
  EXPECT_FALSE(worker.status.ok());
}

TEST(DistributedFrozenTest, FrozenWorkerLossFailsCleanlyWithoutRecovery) {
  // A mapped shard is not re-shippable: when a frozen-shard session
  // dies mid-join the coordinator must fail the join cleanly (no
  // Reassign attempts against the survivors, which reject them).
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(51, 220, &dist);
  const JoinOptions options = AdversarialJoinOptions(0.6, 31);
  const std::string path = test::TempPath("frozen_loss", this, ".skf");
  FileGuard guard{path};
  const int shards = 2;
  FreezeBuildSide(data, dist, options, shards, path);

  auto worker_file = FrozenShardFile::Map(path);
  ASSERT_TRUE(worker_file.ok());
  ServeOptions healthy;
  healthy.frozen_file = worker_file->get();
  healthy.frozen_data = &data;
  ServeOptions dying = healthy;
  dying.fail_after_batches = 1;  // vanish mid-stream

  DistributedJoinOptions distributed;
  distributed.threshold = options.threshold;
  distributed.probe_batch = 8;  // several batches so the failure lands
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());

  std::vector<HostedWorker> workers(shards);
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (int w = 0; w < shards; ++w) {
    auto [coordinator_end, worker_end] = LoopbackPair();
    workers[static_cast<size_t>(w)].Serve(std::move(worker_end),
                                          w == 0 ? dying : healthy);
    connections.push_back(std::move(coordinator_end));
  }
  ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());

  auto got = join.SelfJoin();
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
  EXPECT_NE(got.status().ToString().find("cannot be re-shipped"),
            std::string::npos)
      << got.status().ToString();
  join.DetachRemote();
  for (auto& worker : workers) worker.Join();
}

}  // namespace
}  // namespace skewsearch
