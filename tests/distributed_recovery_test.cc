// Copyright 2026 The skewsearch Authors.
// Worker-loss recovery and replay idempotence: a session that dies
// mid-probe-stream must not change the join output — the coordinator
// re-derives the dead worker's slices from the deterministic plan,
// re-ships them to a survivor, replays the unacknowledged batches, and
// the merge's dedup absorbs everything (the join oracle's kill cells,
// join_oracle.h). Also the transport-poisoning
// satellite: a TCP stream desynchronized mid-frame must refuse further
// use with a distinct status instead of decoding garbage.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "assignment_test_util.h"
#include "distributed/distributed_join.h"
#include "distributed/transport/session.h"
#include "distributed/transport/tcp_transport.h"
#include "join_oracle.h"
#include "reference_index.h"
#include "util/containers.h"

namespace skewsearch {
namespace {

using test::ExpectSamePairs;
using test::ZipfDataWithDuplicates;

TEST(DistributedRecoveryTest, WorkerDeathMidJoinRecoversByteIdentical) {
  // Worker 1's server drops the connection after its first answered
  // batch — no Error frame, no Shutdown, exactly what a SIGKILLed
  // process looks like from the coordinator's side of the socket. One
  // survivor takes its slices and replays what it never answered; the
  // remap persists, so the next join runs on the reduced pool.
  test::JoinOracle(test::ZipfJoinConfig(71, 140))
      .Check(test::kW2 | test::kW7 | test::kAutoHeavy | test::kForcedHeavy |
             test::kPairHeavy | test::kBuild | test::kLoopback1 |
             test::kLoopback16 | test::kKill | test::kSelfJoin);
}

TEST(DistributedRecoveryTest, WorkerLostAtItsDeferredShipRecovers) {
  // The attach ships each worker's pairing lists; the first R-S join
  // ships its one-id lists. Worker 1 is dropped when that ship is sent,
  // before any of its batches: a survivor takes its pairing lists, then
  // its one-id lists, and serves its whole queue, alone or after a
  // self-join on the same attachment.
  test::JoinOracle(test::ZipfJoinConfig(77, 140))
      .Check(test::kW2 | test::kW7 | test::kAutoHeavy | test::kPairHeavy |
             test::kBuild | test::kLoopback1 | test::kLoopback16 |
             test::kShipKill | test::kRSJoin | test::kSequence);
}

TEST(DistributedRecoveryTest, SurvivorOfASelfJoinTakesTheOneIdListsLater) {
  // Worker 1 dies in the first join of self, R-S, self, R-S. The
  // recovery re-ships only its pairing lists, so the survivor gets its
  // one-id lists in the R-S join that follows, with its own.
  test::JoinOracle(test::ZipfJoinConfig(79, 140))
      .Check(test::kW2 | test::kW7 | test::kAutoHeavy | test::kPairHeavy |
             test::kBuild | test::kLoopback1 | test::kLoopback16 |
             test::kKill | test::kSequence);
}

TEST(DistributedRecoveryTest, SurvivorPairsReshippedListsByVectorId) {
  // Worker 1 of two dies in a self-join. The survivor merges the lost
  // worker's vectors with its own by VectorId, so its stored positions
  // keep ascending with VectorIds and every list ends in its largest
  // id, which is where the worker reads a list's top. The survivor must
  // pair each probe against every list holding an id above it: the join
  // with its replay, and the next join served by the survivor alone,
  // return the reference pairs. One repetition gives each vector few
  // keys, so the lost worker's slices reference vectors the survivor
  // lacks, and an append would leave them out of id order.
  test::JoinOracleConfig config = test::ZipfJoinConfig(75, 400, 0.5);
  config.family.index.repetitions = 1;
  test::JoinOracle oracle(config);
  DistributedJoinOptions options = oracle.family();
  options.workers = 2;
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&oracle.data(), &oracle.dist(), options).ok());

  // The survivor's table, rebuilt the way it rebuilds it: every list
  // must end in its largest id.
  WorkerState replica(0);
  for (uint32_t w = 0; w < 2; ++w) {
    const wire::Frame frame = wire::EncodeAssignment(
        join.worker(static_cast<int>(w)).table(), oracle.data(),
        join.threshold(), options.index.verify_measure, w);
    wire::Assignment assignment;
    ASSERT_TRUE(wire::DecodeAssignment(frame, &assignment).ok());
    ASSERT_TRUE(replica.Apply(std::move(assignment)).ok());
  }
  const std::vector<VectorId>& ids = replica.original_ids();
  const FilterTable& table = replica.worker()->table();
  size_t lists_not_ending_in_their_top = 0;
  for (size_t k = 0; k < table.num_keys(); ++k) {
    VectorId top = 0;
    for (VectorId position : table.postings_at(k)) {
      top = std::max(top, ids[position]);
    }
    lists_not_ending_in_their_top += ids[table.postings_at(k).back()] < top;
  }
  EXPECT_EQ(lists_not_ending_in_their_top, 0u);
  oracle.Check(test::kW2 | test::kAutoHeavy | test::kBuild |
               test::kLoopback1 | test::kKill | test::kSelfJoin);
}

TEST(DistributedRecoveryTest, WorkerDeathInAnRSJoinsFirstChunkRecoversOnce) {
  // An R-S join over two chunks of probes loses worker 1 in the first
  // chunk. Recovery moves its slices to a survivor, which serves them in
  // the later chunk as well: one recovery, and the reference pairs.
  test::JoinOracle(test::ZipfJoinConfig(73))
      .Check(test::kW2 | test::kW7 | test::kAutoHeavy | test::kBuild |
             test::kLoopback1 | test::kLoopback16 | test::kKill |
             test::kRSJoin);
}

TEST(DistributedRecoveryTest, DuplicateProbeBatchIsIdempotent) {
  // A replayed (duplicate-delivered) batch must produce an identical
  // response: the worker recomputes against read-only state. Driven at
  // the session layer, where the pipelined API allows two identical
  // batches in flight.
  test::HostedWorker host;
  const wire::Frame assignment =
      test::AssignmentFrame({{7, {0, 1}}}, {{0, {1, 2, 3}}, {1, {2, 3, 4}}},
                            /*threshold=*/0.4);
  auto session = RemoteWorkerSession::Open(host.Connect(), /*worker_id=*/0,
                                           /*num_workers=*/1, assignment);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Acknowledge(test::ExpectedAck(assignment)).ok());

  const std::vector<ItemId> items = {2, 3, 4};
  ProbeRequest probe;
  probe.left = 9;
  probe.items = std::span<const ItemId>(items);
  probe.keys = {7};
  std::span<const ProbeRequest> batch(&probe, 1);
  ASSERT_TRUE(session->SendProbeBatch(batch).ok());
  ASSERT_TRUE(session->SendProbeBatch(batch).ok());
  EXPECT_EQ(session->in_flight(), 2u);
  auto first = session->ReceiveResponses();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = session->ReceiveResponses();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first->size(), 1u);
  ASSERT_EQ(second->size(), 1u);
  const ProbeResponse& a = (*first)[0];
  const ProbeResponse& b = (*second)[0];
  EXPECT_EQ(a.left, b.left);
  ASSERT_GT(a.matches.size(), 0u) << "idempotence needs real matches";
  test::ExpectSameMatches(a.matches, b.matches, "replayed probe");
  EXPECT_TRUE(session->Shutdown().ok());
  host.Join();
  EXPECT_TRUE(host.status().ok()) << host.status().ToString();
  EXPECT_EQ(host.stats().batches, 2u);
}

TEST(DistributedRecoveryTest, ReshipEqualsTheBuildOfBothSlices) {
  // Seeded pairs of slices over one build side, sharing heavy keys and
  // many vectors. A survivor applies the first at epoch 0 and the second
  // at epoch 1. After each, its stored ids must be the sorted union of
  // the ids the applied slices reference, and its table must equal
  // FilterTable::Build over every applied (key, rank of id) pair.
  const uint64_t heavy_keys[] = {0x1111, 0x2222, 0x3333};
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    Dataset build;
    const size_t n = 40 + rng.NextBounded(80);
    for (size_t v = 0; v < n; ++v) {
      std::vector<ItemId> items;
      ItemId item = 0;
      for (size_t i = 1 + rng.NextBounded(6); i > 0; --i) {
        item += 1 + static_cast<ItemId>(rng.NextBounded(40));
        items.push_back(item);
      }
      build.Add(std::span<const ItemId>(items));
    }
    auto random_slice = [&] {
      std::vector<Posting> postings;
      for (uint64_t key : heavy_keys) {
        for (size_t i = 5 + rng.NextBounded(20); i > 0; --i) {
          postings.push_back({key, static_cast<VectorId>(rng.NextBounded(n))});
        }
      }
      for (size_t k = 10 + rng.NextBounded(20); k > 0; --k) {
        const uint64_t key = rng.NextUint64();
        for (size_t i = 1 + rng.NextBounded(3); i > 0; --i) {
          postings.push_back({key, static_cast<VectorId>(rng.NextBounded(n))});
        }
      }
      return FilterTable::Build(std::move(postings));
    };
    const FilterTable slices[] = {random_slice(), random_slice()};

    WorkerState survivor(0);
    std::vector<VectorId> held;    // sorted union of the applied ids
    std::vector<Posting> applied;  // every applied (key, VectorId)
    for (uint32_t epoch = 0; epoch < 2; ++epoch) {
      const FilterTable& slice = slices[epoch];
      size_t reshipped_held = 0;
      for (VectorId id : slice.ids_span()) {
        reshipped_held += std::binary_search(held.begin(), held.end(), id);
      }
      EXPECT_EQ(reshipped_held > 0, epoch == 1);
      const wire::Frame frame = wire::EncodeAssignment(
          slice, build, 0.5, Measure::kBraunBlanquet, epoch);
      wire::Assignment assignment;
      ASSERT_TRUE(wire::DecodeAssignment(frame, &assignment).ok());
      ASSERT_TRUE(survivor.Apply(std::move(assignment)).ok());
      for (size_t k = 0; k < slice.num_keys(); ++k) {
        for (VectorId id : slice.postings_at(k)) {
          applied.push_back({slice.key_at(k), id});
          held.push_back(id);
        }
      }
      std::sort(held.begin(), held.end());
      held.erase(std::unique(held.begin(), held.end()), held.end());
      EXPECT_EQ(survivor.original_ids(), held);
      std::vector<Posting> ranked;
      for (const Posting& pair : applied) {
        const auto rank = static_cast<VectorId>(
            std::lower_bound(held.begin(), held.end(), pair.id) - held.begin());
        ranked.push_back({pair.key, rank});
      }
      const FilterTable expected = FilterTable::Build(std::move(ranked));
      const FilterTable& table = survivor.worker()->table();
      auto same = [](auto a, auto b) {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
      };
      EXPECT_TRUE(same(table.keys_span(), expected.keys_span()));
      EXPECT_TRUE(same(table.offsets_span(), expected.offsets_span()));
      EXPECT_TRUE(same(table.ids_span(), expected.ids_span()));
    }
  }
}

/// A coordinator-side connection that forwards every frame but rewrites
/// the first ResponseBatch it receives: that batch's first response
/// gains a match with the id \p bad_id picks for it, which a worker
/// keeping the join contract never sends.
class ContractBreakingConnection : public FrameConnection {
 public:
  ContractBreakingConnection(
      std::unique_ptr<FrameConnection> inner,
      std::function<VectorId(const ProbeResponse&)> bad_id)
      : inner_(std::move(inner)), bad_id_(std::move(bad_id)) {}

  Status Send(const wire::Frame& frame) override {
    return inner_->Send(frame);
  }
  Status Receive(wire::Frame* frame) override {
    SKEWSEARCH_RETURN_NOT_OK(inner_->Receive(frame));
    if (rewritten_ || frame->type != wire::FrameType::kResponseBatch) {
      return Status::OK();
    }
    wire::ResponseBatch batch;
    SKEWSEARCH_RETURN_NOT_OK(wire::DecodeResponseBatch(*frame, &batch));
    ProbeResponse& first = batch.responses.front();
    first.matches.push_back({bad_id_(first), 1.0});
    *frame = wire::EncodeResponseBatch(batch.responses, batch.epoch, batch.seq);
    rewritten_ = true;
    return Status::OK();
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<FrameConnection> inner_;
  std::function<VectorId(const ProbeResponse&)> bad_id_;
  bool rewritten_ = false;
};

TEST(DistributedRecoveryTest, MatchOutsideTheJoinContractFailsTheSession) {
  // A match naming no build vector, or one at or below the probe in a
  // self-join, fails its session like a lost connection: with a
  // survivor, recovery replays the batch there and the output is the
  // reference join's; without one, the join fails and names the
  // worker and the id.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(72, 120, &dist);
  const VectorId n = static_cast<VectorId>(data.size());
  DistributedJoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = 0.8;
  options.index.repetition_boost = 3.0;
  options.index.seed = 72;
  options.probe_batch = 8;
  auto expected = test::ReferenceSelfJoin(data, dist, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->size(), 0u);

  struct BadId {
    const char* name;
    std::function<VectorId(const ProbeResponse&)> pick;
  };
  const BadId bad_ids[] = {
      {"beyond the build side", [n](const ProbeResponse&) { return n; }},
      {"not above the probe",
       [](const ProbeResponse& response) { return response.left; }},
  };
  for (const BadId& bad : bad_ids) {
    for (int workers : {1, 2}) {
      SCOPED_TRACE(std::string(bad.name) +
                   ", workers = " + std::to_string(workers));
      options.workers = workers;
      std::vector<test::HostedWorker> hosts(static_cast<size_t>(workers));
      DistributedJoin join;
      ASSERT_TRUE(join.Build(&data, &dist, options).ok());
      std::vector<std::unique_ptr<FrameConnection>> connections;
      for (test::HostedWorker& host : hosts) {
        connections.push_back(host.Connect());
      }
      connections[0] = std::make_unique<ContractBreakingConnection>(
          std::move(connections[0]), bad.pick);
      ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());

      DistributedJoinStats stats;
      auto got = join.SelfJoin(&stats);
      // Non-fatal checks: the hosts must be joined below either way.
      const std::string message = got.status().ToString();
      if (workers == 1) {
        EXPECT_TRUE(got.status().IsIOError()) << message;
        EXPECT_NE(message.find("worker 0 answered probe"), std::string::npos)
            << message;
        EXPECT_NE(message.find(bad.name), std::string::npos) << message;
      } else if (got.ok()) {
        ExpectSamePairs(*expected, *got);
        EXPECT_EQ(stats.worker_recoveries, 1u);
      } else {
        ADD_FAILURE() << message;
      }
      join.DetachRemote();
      // Worker 0's session was closed with a batch possibly still in
      // flight, so its host may fail sending that answer; the others
      // end cleanly.
      for (size_t w = 0; w < hosts.size(); ++w) {
        hosts[w].Join();
        if (w > 0) {
          EXPECT_TRUE(hosts[w].status().ok()) << hosts[w].status().ToString();
        }
      }
    }
  }
}

/// Connects a raw (non-frame) TCP client to \p port and returns the fd.
int RawConnect(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr = {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

TEST(DistributedPoisonTest, GarbageHeaderPoisonsTcpConnection) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const int fd = RawConnect(listener->port());
  auto connection = listener->Accept();
  ASSERT_TRUE(connection.ok());

  // A full 12-byte header of garbage: the magic check fails only after
  // the bytes are consumed, so there is no resync point.
  const uint8_t garbage[12] = {0xde, 0xad, 0xbe, 0xef, 1, 2,
                               3,    4,    5,    6,    7, 8};
  ASSERT_EQ(::send(fd, garbage, sizeof(garbage), 0),
            static_cast<ssize_t>(sizeof(garbage)));
  wire::Frame frame;
  Status first = (*connection)->Receive(&frame);
  EXPECT_FALSE(first.ok());
  Status second = (*connection)->Receive(&frame);
  EXPECT_TRUE(second.IsAborted()) << second.ToString();
  EXPECT_NE(second.ToString().find("poisoned"), std::string::npos)
      << second.ToString();
  // The poison covers sends too: the stream position is unknown.
  Status sent = (*connection)->Send(wire::EncodeShutdown());
  EXPECT_TRUE(sent.IsAborted()) << sent.ToString();
  ::close(fd);
}

TEST(DistributedPoisonTest, MidFrameTimeoutPoisonsTcpConnection) {
  TcpOptions options;
  options.io_timeout_ms = 200;
  auto listener = TcpListener::Listen(0, options);
  ASSERT_TRUE(listener.ok());
  const int fd = RawConnect(listener->port());
  auto connection = listener->Accept();
  ASSERT_TRUE(connection.ok());

  // Five header bytes, then silence: the receiver times out mid-frame
  // with the stream desynchronized — the connection must refuse any
  // further use rather than treat later bytes as a fresh header.
  const uint8_t partial[5] = {'S', 'K', 'W', 'J', 1};
  ASSERT_EQ(::send(fd, partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  wire::Frame frame;
  Status first = (*connection)->Receive(&frame);
  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(first.IsAborted()) << "first failure is the timeout itself: "
                                  << first.ToString();
  Status second = (*connection)->Receive(&frame);
  EXPECT_TRUE(second.IsAborted()) << second.ToString();
  EXPECT_NE(second.ToString().find("poisoned"), std::string::npos);
  ::close(fd);
}

TEST(DistributedPoisonTest, CleanTimeoutBetweenFramesDoesNotPoison) {
  TcpOptions options;
  options.io_timeout_ms = 150;
  auto listener = TcpListener::Listen(0, options);
  ASSERT_TRUE(listener.ok());
  const int fd = RawConnect(listener->port());
  auto connection = listener->Accept();
  ASSERT_TRUE(connection.ok());

  // No bytes at all: the wait times out before any of the frame was
  // consumed, so the stream is still aligned and stays usable.
  wire::Frame frame;
  Status first = (*connection)->Receive(&frame);
  EXPECT_FALSE(first.ok());
  EXPECT_FALSE(first.IsAborted()) << first.ToString();

  // A whole valid frame sent afterwards is received normally.
  const wire::Frame shutdown = wire::EncodeShutdown();
  std::vector<uint8_t> bytes;
  wire::AppendFrameHeader(shutdown.type,
                          static_cast<uint32_t>(shutdown.payload.size()),
                          wire::kVersionMax, &bytes);
  bytes.insert(bytes.end(), shutdown.payload.begin(),
               shutdown.payload.end());
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
            static_cast<ssize_t>(bytes.size()));
  Status second = (*connection)->Receive(&frame);
  EXPECT_TRUE(second.ok()) << second.ToString();
  EXPECT_EQ(frame.type, wire::FrameType::kShutdown);
  ::close(fd);
}

}  // namespace
}  // namespace skewsearch
