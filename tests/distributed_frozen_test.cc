// Frozen-shard serving tests: a DistributedJoin built from a mapped
// SKF2 file (zero posting-table rebuild, broadcast routing over the
// id-partitioned shards) must produce output byte-identical to the
// reference join (reference_join.h) — in-process and over the wire,
// where workers pre-map the file and the coordinator ships only a tiny
// ShardAssignment per session; the join oracle's frozen cells
// (join_oracle.h) check both. Also covers the failure surface: wrong
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
#include <utility>
#include <vector>

#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "distributed/distributed_join.h"
#include "frozen_test_util.h"
#include "join_oracle.h"
#include "test_paths.h"

namespace skewsearch {
namespace {

using test::AdversarialJoinOptions;
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

/// RAII deleter for the frozen files tests write.
struct FileGuard {
  std::string path;
  ~FileGuard() { std::remove(path.c_str()); }
};

TEST(DistributedFrozenTest, InProcessFrozenSelfJoinMatchesSingleProcess) {
  // Every key is offered to every shard, yet a probe visits only the
  // shards whose slice of one of its keys holds a larger id: the
  // reference pairing's fan-out, and no pair found twice.
  test::JoinOracle(test::ZipfJoinConfig(41, 240, 0.6, 5))
      .Check(test::kFrozen3 | test::kInProcess | test::kClean |
             test::kSelfJoin);
}

TEST(DistributedFrozenTest, FrozenSingleShardMatchesToo) {
  // A one-shard file degenerates to the monolithic table served
  // zero-copy; broadcast over one worker is plain routing.
  test::JoinOracle(test::ZipfJoinConfig(42, 180, 0.65, 7))
      .Check(test::kFrozen1 | test::kInProcess | test::kClean |
             test::kEveryJoin);
}

TEST(DistributedFrozenTest, JoinOptionsFrozenShardsServesIdenticalPairs) {
  // The one-shot plumbing: frozen_shards maps the file into the engine.
  test::JoinOracle(test::ZipfJoinConfig(43, 200, 0.6, 11))
      .Check(test::kFrozen1 | test::kFrozen3 | test::kOneShot |
             test::kClean | test::kSelfJoin);
}

TEST(DistributedFrozenTest, FrozenJoinOverLoopbackMatchesInProcess) {
  // Workers pre-map the same file (ServeOptions.frozen_file/frozen_data,
  // the --shard-file setup) and the coordinator ships one
  // ShardAssignment per session; the shards they serve cover the file.
  test::JoinOracle(test::ZipfJoinConfig(44, 220, 0.6, 13))
      .Check(test::kFrozen3 | test::kLoopback16 | test::kClean |
             test::kEveryJoin);
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
    test::HostedWorker worker(serve);
    std::vector<std::unique_ptr<FrameConnection>> connections;
    connections.push_back(worker.Connect());
    EXPECT_FALSE(join.AttachRemote(std::move(connections)).ok());
    EXPECT_FALSE(join.remote());
    join.DetachRemote();  // ends the session should the attach succeed
    worker.Join();
    EXPECT_TRUE(worker.status().IsInvalidArgument())
        << worker.status().ToString();
    EXPECT_NE(worker.status().message().find(std::to_string(bad_id)),
              std::string::npos)
        << worker.status().ToString();
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
  test::HostedWorker workers[2];  // no file
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (test::HostedWorker& worker : workers) {
    connections.push_back(worker.Connect());
  }
  Status attached = join.AttachRemote(std::move(connections));
  EXPECT_FALSE(attached.ok());
  EXPECT_FALSE(join.remote());
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
  test::HostedWorker worker(serve);
  DistributedJoin join;
  ASSERT_TRUE(join.BuildFromFrozen(&data, &dist, path, distributed).ok());
  std::vector<std::unique_ptr<FrameConnection>> connections;
  connections.push_back(worker.Connect());
  Status attached = join.AttachRemote(std::move(connections));
  EXPECT_FALSE(attached.ok());
  EXPECT_FALSE(join.remote());
  worker.Join();
  EXPECT_FALSE(worker.status().ok());
}

TEST(DistributedFrozenTest, FrozenWorkerLossFailsCleanlyWithoutRecovery) {
  // A mapped shard is not re-shippable: when a frozen-shard session
  // dies mid-join the coordinator must fail the join cleanly (no
  // Reassign attempts against the survivors, which reject them).
  test::JoinOracle(test::ZipfJoinConfig(51, 220, 0.6, 31))
      .Check(test::kFrozen3 | test::kLoopback16 | test::kKill |
             test::kEveryJoin);
}

}  // namespace
}  // namespace skewsearch
