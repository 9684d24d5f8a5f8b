#include "core/similarity_join.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded_index.h"
#include "data/generators.h"
#include "distributed/transport/session.h"
#include "distributed/transport/tcp_transport.h"
#include "reference_join.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

JoinOptions AdversarialJoinOptions(double b1) {
  JoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = b1;
  options.index.repetition_boost = 3.0;
  options.threshold = b1;
  return options;
}

TEST(SimilarityJoinTest, SelfJoinRecoversMostTruePairs) {
  // Plant near-duplicate pairs in noise and compare against the exact
  // brute-force join.
  auto dist = UniformProbabilities(3000, 0.02).value();  // E|x| = 60
  Rng rng(1);
  Dataset data;
  for (int i = 0; i < 150; ++i) data.Add(dist.Sample(&rng));
  // Plant 10 duplicates of existing vectors (similarity 1).
  for (int i = 0; i < 10; ++i) data.Add(data.GetVector(i * 3));
  ASSERT_TRUE(data.SetDimension(3000).ok());

  BruteForceSearcher brute(&data);
  auto truth = brute.SelfJoinAbove(0.8);
  ASSERT_GE(truth.size(), 10u);

  DistributedJoinStats stats;
  auto pairs =
      SelfSimilarityJoin(data, dist, AdversarialJoinOptions(0.8), &stats);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(stats.pairs, pairs->size());

  std::set<std::pair<VectorId, VectorId>> got;
  for (const auto& p : *pairs) {
    EXPECT_LT(p.left, p.right);
    EXPECT_GE(p.similarity, 0.8);
    got.insert({p.left, p.right});
  }
  // No false positives relative to the exact join.
  std::set<std::pair<VectorId, VectorId>> expect;
  for (const auto& p : truth) expect.insert({p.left, p.right});
  for (const auto& p : got) EXPECT_TRUE(expect.count(p));
  // Recall at least 80%.
  size_t hit = 0;
  for (const auto& p : expect) hit += got.count(p);
  EXPECT_GE(hit * 10, expect.size() * 8);
}

TEST(SimilarityJoinTest, RSJoinIdsReferToCorrectSides) {
  auto dist = UniformProbabilities(1000, 0.04).value();
  Rng rng(2);
  Dataset right = GenerateDataset(dist, 80, &rng);
  Dataset left;
  // Left = copies of right's first 5 vectors.
  for (VectorId id = 0; id < 5; ++id) left.Add(right.GetVector(id));
  ASSERT_TRUE(left.SetDimension(1000).ok());

  auto pairs =
      SimilarityJoin(left, right, dist, AdversarialJoinOptions(0.9));
  ASSERT_TRUE(pairs.ok());
  // Each left vector should match its twin on the right.
  std::set<std::pair<VectorId, VectorId>> got;
  for (const auto& p : *pairs) got.insert({p.left, p.right});
  size_t twins = 0;
  for (VectorId id = 0; id < 5; ++id) {
    twins += got.count({id, id});
  }
  EXPECT_GE(twins, 4u);
}

TEST(SimilarityJoinTest, ThresholdDefaultsToIndexVerify) {
  auto dist = UniformProbabilities(500, 0.05).value();
  Rng rng(3);
  Dataset data = GenerateDataset(dist, 60, &rng);
  JoinOptions options = AdversarialJoinOptions(0.9);
  options.threshold = -1.0;  // derive from index
  auto pairs = SelfSimilarityJoin(data, dist, options);
  ASSERT_TRUE(pairs.ok());
  for (const auto& p : *pairs) EXPECT_GE(p.similarity, 0.9);
}

TEST(SimilarityJoinTest, PropagatesBuildErrors) {
  auto dist = UniformProbabilities(10, 0.2).value();
  Dataset tiny;
  tiny.Add(SparseVector::Of({1}));
  JoinOptions options = AdversarialJoinOptions(0.5);
  auto pairs = SelfSimilarityJoin(tiny, dist, options);
  EXPECT_FALSE(pairs.ok());
  EXPECT_TRUE(pairs.status().IsInvalidArgument());
}

TEST(SimilarityJoinTest, StatsPopulated) {
  auto dist = UniformProbabilities(800, 0.05).value();
  Rng rng(4);
  Dataset data = GenerateDataset(dist, 100, &rng);
  DistributedJoinStats stats;
  auto pairs =
      SelfSimilarityJoin(data, dist, AdversarialJoinOptions(0.9), &stats);
  ASSERT_TRUE(pairs.ok());
  EXPECT_GE(stats.build_seconds, 0.0);
  EXPECT_GE(stats.probe_seconds, 0.0);
  EXPECT_GT(stats.candidates + stats.verifications, 0u);
  EXPECT_EQ(stats.workers.size(), 1u);  // the default: one worker
}

TEST(SimilarityJoinTest, OutputSortedByLeftThenRight) {
  auto dist = UniformProbabilities(600, 0.05).value();
  Rng rng(5);
  Dataset data;
  for (int i = 0; i < 50; ++i) data.Add(dist.Sample(&rng));
  for (int i = 0; i < 8; ++i) data.Add(data.GetVector(i));  // dups
  ASSERT_TRUE(data.SetDimension(600).ok());
  auto pairs = SelfSimilarityJoin(data, dist, AdversarialJoinOptions(0.9));
  ASSERT_TRUE(pairs.ok());
  for (size_t i = 1; i < pairs->size(); ++i) {
    const auto& a = (*pairs)[i - 1];
    const auto& b = (*pairs)[i];
    EXPECT_TRUE(a.left < b.left || (a.left == b.left && a.right < b.right));
  }
}

/// Thread-hosted join-worker sessions on localhost ports, one per
/// endpoint. Each serves one coordinator until it shuts the session
/// down; the destructor unblocks an Accept no coordinator reached.
class LocalWorkers {
 public:
  explicit LocalWorkers(int count) {
    for (int w = 0; w < count; ++w) {
      auto listener = TcpListener::Listen(0);
      if (!listener.ok()) {
        ADD_FAILURE() << listener.status().ToString();
        return;
      }
      endpoints_.push_back("127.0.0.1:" + std::to_string(listener->port()));
      auto shared =
          std::make_shared<TcpListener>(std::move(listener).value());
      listeners_.push_back(shared);
      statuses_.push_back(std::make_unique<Status>());
      threads_.emplace_back([shared, status = statuses_.back().get()] {
        auto connection = shared->Accept();
        *status = connection.ok() ? ServeConnection(connection->get())
                                  : connection.status();
      });
    }
  }
  LocalWorkers(const LocalWorkers&) = delete;
  LocalWorkers& operator=(const LocalWorkers&) = delete;
  ~LocalWorkers() {
    for (auto& listener : listeners_) listener->Shutdown();
    for (size_t w = 0; w < threads_.size(); ++w) {
      threads_[w].join();
      EXPECT_TRUE(statuses_[w]->ok()) << statuses_[w]->ToString();
    }
  }
  const std::vector<std::string>& endpoints() const { return endpoints_; }

 private:
  std::vector<std::string> endpoints_;
  std::vector<std::shared_ptr<TcpListener>> listeners_;
  std::vector<std::unique_ptr<Status>> statuses_;
  std::vector<std::thread> threads_;
};

TEST(OneShotJoinTest, MatchesReferenceJoin) {
  // The one-shot calls run one engine at W = max(1, workers). Whatever
  // the setting, the self-join and the R-S join return the reference
  // join's pairs, similarity bits included.
  ProductDistribution dist;
  Dataset right = test::ZipfDataWithDuplicates(17, 120, &dist);
  Rng rng(18);
  Dataset left;
  for (VectorId id = 0; id < 10; ++id) left.Add(right.GetVector(id * 2));
  for (int i = 0; i < 30; ++i) left.Add(dist.Sample(&rng));
  ASSERT_TRUE(left.SetDimension(2000).ok());
  const JoinOptions base = test::AdversarialJoinOptions(0.8, 17);
  auto self_expected = test::ReferenceSelfJoin(right, dist, base);
  auto rs_expected = test::ReferenceJoin(&left, right, dist, base);
  ASSERT_TRUE(self_expected.ok() && rs_expected.ok());
  ASSERT_FALSE(self_expected->empty());
  ASSERT_FALSE(rs_expected->empty());

  const std::string frozen = test::TempPath("oneshot", this, ".skf");
  ShardedIndex three_shards;
  ASSERT_TRUE(three_shards.Build(&right, &dist, {base.index, 3}).ok());
  ASSERT_TRUE(three_shards.Freeze(frozen).ok());

  struct Row {
    std::string name;
    std::function<void(JoinOptions*)> set;
    int endpoints;       ///< localhost join-workers to attach
    size_t workers;      ///< workers the engine must report
  };
  const std::vector<Row> rows = {
      {"default", [](JoinOptions*) {}, 0, 1},
      {"workers = 3", [](JoinOptions* o) { o->workers = 3; }, 0, 3},
      {"threads = 4", [](JoinOptions* o) { o->threads = 4; }, 0, 1},
      {"heavy_threshold = 1",
       [](JoinOptions* o) { o->heavy_threshold = 1; }, 0, 1},
      {"3-shard frozen file",
       [&](JoinOptions* o) { o->frozen_shards = frozen; }, 0, 3},
      {"loopback endpoints", [](JoinOptions*) {}, 2, 2},
  };
  for (const Row& row : rows) {
    for (bool self_join : {true, false}) {
      SCOPED_TRACE(row.name + (self_join ? ", self-join" : ", R-S join"));
      JoinOptions options = base;
      row.set(&options);
      LocalWorkers hosts(row.endpoints);
      options.remote_workers = hosts.endpoints();
      DistributedJoinStats stats;
      auto got = self_join
                     ? SelfSimilarityJoin(right, dist, options, &stats)
                     : SimilarityJoin(left, right, dist, options, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      test::ExpectSamePairs(self_join ? *self_expected : *rs_expected, *got);
      EXPECT_EQ(stats.pairs, got->size());
      EXPECT_EQ(stats.workers.size(), row.workers);
    }
  }
  std::remove(frozen.c_str());
}

}  // namespace
}  // namespace skewsearch
