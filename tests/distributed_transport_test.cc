// Transport-layer tests: loopback and TCP frame delivery, the
// handshake's version negotiation and reconstruction cross-checks, and
// the rows of the join oracle (join_oracle.h) that claim the identity:
// a DistributedJoin served by remote workers (loopback or real sockets)
// produces output byte-identical to the reference join
// (reference_join.h), for any probe batch size; and the order in which
// one coordinator thread ships its sessions' first batches.
// The suite name starts with "Distributed" so CI's TSan matrix picks
// it up (worker threads + sockets are exactly what TSan should watch).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assignment_test_util.h"
#include "core/similarity_join.h"
#include "distributed/distributed_join.h"
#include "distributed/transport/session.h"
#include "distributed/transport/tcp_transport.h"
#include "distributed/transport/transport.h"
#include "join_oracle.h"

namespace skewsearch {
namespace {

using test::AdversarialJoinOptions;
using test::HostedWorker;
using test::ZipfDataWithDuplicates;

TEST(DistributedTransportTest, LoopbackDeliversFramesInOrder) {
  auto [a, b] = LoopbackPair();
  wire::HelloFrame hello;
  hello.worker_id = 0;
  hello.num_workers = 2;
  ASSERT_TRUE(a->Send(wire::EncodeHello(hello)).ok());
  ASSERT_TRUE(a->Send(wire::EncodeShutdown()).ok());
  wire::Frame frame;
  ASSERT_TRUE(b->Receive(&frame).ok());
  EXPECT_EQ(frame.type, wire::FrameType::kHello);
  ASSERT_TRUE(b->Receive(&frame).ok());
  EXPECT_EQ(frame.type, wire::FrameType::kShutdown);
  EXPECT_EQ(a->stats().frames_sent, 2u);
  EXPECT_EQ(b->stats().frames_received, 2u);
  EXPECT_EQ(a->stats().bytes_sent, b->stats().bytes_received);
  EXPECT_GT(a->stats().bytes_sent, 2 * wire::kFrameHeaderBytes - 1);
}

TEST(DistributedTransportTest, LoopbackCloseUnblocksAndFailsCleanly) {
  auto [a, b] = LoopbackPair();
  // Queued frames still drain after the peer closes...
  ASSERT_TRUE(a->Send(wire::EncodeShutdown()).ok());
  a->Close();
  wire::Frame frame;
  ASSERT_TRUE(b->Receive(&frame).ok());
  // ...then Receive and Send fail instead of blocking.
  EXPECT_FALSE(b->Receive(&frame).ok());
  EXPECT_FALSE(b->Send(wire::EncodeShutdown()).ok());

  // A Receive blocked on an open connection is woken by Close.
  auto [c, d] = LoopbackPair();
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    c->Close();
  });
  EXPECT_FALSE(d->Receive(&frame).ok());
  closer.join();
}

TEST(DistributedTransportTest, FrameVersionDefaultsToMinAndIsSettable) {
  // Pre-negotiation frames (the Hello) go out under kVersionMin so the
  // oldest peer the range admits can parse the header; the session
  // layer sets the negotiated version afterwards. If the default were
  // kVersionMax, adding a version would break the handshake against
  // every worker that does not speak it yet.
  auto [a, b] = LoopbackPair();
  EXPECT_EQ(a->frame_version(), wire::kVersionMin);
  a->set_frame_version(wire::kVersionMax);
  EXPECT_EQ(a->frame_version(), wire::kVersionMax);
}

TEST(DistributedTransportTest, TcpRoundTripOnLocalhost) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  ASSERT_GT(listener->port(), 0);
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    wire::Frame frame;
    ASSERT_TRUE((*conn)->Receive(&frame).ok());
    EXPECT_EQ(frame.type, wire::FrameType::kProbeBatch);
    ASSERT_TRUE((*conn)->Send(frame).ok());  // echo
  });
  auto client = TcpConnect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  std::vector<ProbeRequest> batch(3);
  batch[0].left = 7;
  wire::Frame sent = wire::EncodeProbeBatch(batch);
  ASSERT_TRUE((*client)->Send(sent).ok());
  wire::Frame echoed;
  ASSERT_TRUE((*client)->Receive(&echoed).ok());
  EXPECT_EQ(echoed.type, sent.type);
  EXPECT_EQ(echoed.payload, sent.payload);
  server.join();
  EXPECT_EQ((*client)->stats().bytes_sent,
            wire::kFrameHeaderBytes + sent.payload.size());
}

TEST(DistributedTransportTest, TcpReceiveRejectsGarbageHeader) {
  // A peer speaking a different protocol is rejected at the header,
  // before any payload allocation.
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  std::thread server([&] {
    auto conn = listener->Accept();
    ASSERT_TRUE(conn.ok());
    wire::Frame garbage;
    garbage.type = wire::FrameType::kHello;
    garbage.payload.assign(64, 0xAB);
    // Hand-roll a bogus magic by sending a valid frame and relying on
    // the client reading raw bytes: instead, just close after sending
    // a frame whose payload the client will treat as a header.
    ASSERT_TRUE((*conn)->Send(garbage).ok());
  });
  auto client = TcpConnect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok());
  wire::Frame frame;
  // The garbage frame *is* validly framed, so the first Receive
  // succeeds; its payload is not a valid Hello.
  ASSERT_TRUE((*client)->Receive(&frame).ok());
  wire::HelloFrame hello;
  EXPECT_FALSE(wire::DecodeHello(frame, &hello).ok());
  server.join();
}

TEST(DistributedTransportTest, ConnectToClosedPortFails) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = listener->port();
  listener->Close();
  auto client = TcpConnect("127.0.0.1", port);
  EXPECT_FALSE(client.ok());
}

TEST(DistributedTransportTest, WorkerRejectsDisjointVersionRange) {
  // A future coordinator, and old peers: versions 1 to 5 are retired,
  // so a range that stops below 6 has nothing in common with a worker.
  const std::pair<uint8_t, uint8_t> ranges[] = {
      {wire::kVersionMax + 1, wire::kVersionMax + 9},
      {1, 1},
      {1, 2},
      {1, 3},
      {3, 3},
      {1, 4},
      {4, 4},
      {1, 5},
      {5, 5}};
  for (const auto& [min_version, max_version] : ranges) {
    SCOPED_TRACE("range " + std::to_string(min_version) + ".." +
                 std::to_string(max_version));
    HostedWorker worker;
    std::unique_ptr<FrameConnection> coordinator = worker.Connect();
    wire::HelloFrame hello;
    hello.min_version = min_version;
    hello.max_version = max_version;
    hello.worker_id = 0;
    hello.num_workers = 1;
    ASSERT_TRUE(coordinator->Send(wire::EncodeHello(hello)).ok());
    wire::Frame frame;
    ASSERT_TRUE(coordinator->Receive(&frame).ok());
    ASSERT_EQ(frame.type, wire::FrameType::kError);
    wire::ErrorFrame error;
    ASSERT_TRUE(wire::DecodeError(frame, &error).ok());
    EXPECT_TRUE(wire::StatusFromError(error).IsNotSupported());
    worker.Join();
    EXPECT_FALSE(worker.status().ok());
  }
}

TEST(DistributedTransportTest, ConnectEndpointRejectsMalformedEndpoints) {
  // Each is refused by the parser itself: InvalidArgument, where a
  // resolve or connect attempt would have failed with IOError.
  const char* const malformed[] = {"h", ":1", "h:", "h:0", "h:65536", "h:1x"};
  for (const char* endpoint : malformed) {
    auto connection = ConnectEndpoint(endpoint);
    EXPECT_FALSE(connection.ok()) << endpoint;
    EXPECT_TRUE(connection.status().IsInvalidArgument())
        << endpoint << ": " << connection.status().ToString();
  }
}

/// A coordinator-side connection that sends \p replacement in place of
/// the first Assignment frame and forwards everything else.
class AssignmentSwappingConnection : public FrameConnection {
 public:
  AssignmentSwappingConnection(std::unique_ptr<FrameConnection> inner,
                               wire::Frame replacement)
      : inner_(std::move(inner)), replacement_(std::move(replacement)) {}

  Status Send(const wire::Frame& frame) override {
    if (swapped_ || frame.type != wire::FrameType::kAssignment) {
      return inner_->Send(frame);
    }
    swapped_ = true;
    return inner_->Send(replacement_);
  }
  Status Receive(wire::Frame* frame) override {
    return inner_->Receive(frame);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<FrameConnection> inner_;
  wire::Frame replacement_;
  bool swapped_ = false;
};

TEST(DistributedTransportTest, SessionRejectsInconsistentAssignment) {
  // One row per rule the worker checks before adopting an Assignment's
  // arrays. The last of two workers is sent the row's arrays: it answers
  // an Error frame carrying InvalidArgument, and the attach fails all
  // or nothing, leaving the coordinator serving in-process.
  const struct {
    const char* rule;
    wire::Frame frame;
  } rows[] = {
      {"keys are not strictly increasing",
       test::AssignmentFrame({{43, {1}}, {42, {2}}}, {{1, {3}}, {2, {5}}})},
      {"posting list 1 is empty",
       test::AssignmentFrame({{42, {1}}, {43, {}}}, {{1, {3, 5}}})},
      // Id 2 is referenced but never shipped: its position is past the
      // last vector.
      {"position 1 names no vector (it ships 1)",
       test::AssignmentFrame({{42, {1, 2}}}, {{1, {3, 5}}})},
      {"positions descend within posting list 0",
       test::AssignmentFrame({{42, {2, 1}}}, {{1, {3}}, {2, {5}}})},
      {"ships vector 2 but no posting references it",
       test::AssignmentFrame({{42, {1}}}, {{1, {3, 5}}, {2, {3, 7}}})},
      {"vector ids are not strictly increasing",
       test::AssignmentFrame({{42, {2}}, {43, {1}}}, {{2, {3}}, {1, {5}}})},
      {"vector 1 has items that are not strictly increasing",
       test::AssignmentFrame({{42, {1}}}, {{1, {5, 3}}})},
  };
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(93, 80, &dist);
  const JoinOptions join_options = AdversarialJoinOptions(0.8, 93);
  DistributedJoinOptions options;
  options.index = join_options.index;
  options.threshold = join_options.threshold;
  options.workers = 2;
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&data, &dist, options).ok());
  for (const auto& row : rows) {
    SCOPED_TRACE(row.rule);
    HostedWorker kept;
    HostedWorker hostile;
    std::vector<std::unique_ptr<FrameConnection>> connections;
    connections.push_back(kept.Connect());
    connections.push_back(std::make_unique<AssignmentSwappingConnection>(
        hostile.Connect(), row.frame));
    const Status attached = join.AttachRemote(std::move(connections));
    EXPECT_TRUE(attached.IsInvalidArgument()) << attached.ToString();
    EXPECT_NE(attached.ToString().find(row.rule), std::string::npos)
        << attached.ToString();
    EXPECT_FALSE(join.remote());
    kept.Join();
    hostile.Join();
    EXPECT_TRUE(kept.status().ok()) << kept.status().ToString();
    EXPECT_TRUE(hostile.status().IsInvalidArgument())
        << hostile.status().ToString();
  }
  ASSERT_TRUE(join.SelfJoin().ok());

  // Offsets that disagree with their arrays cannot cross the wire: v6
  // derives both offset arrays from the counts. The worker still checks
  // the arrays it is handed, every offset before it reads an element.
  const wire::Frame frame =
      test::AssignmentFrame({{42, {1, 2}}}, {{1, {3, 5}}, {2, {3}}});
  wire::Assignment decoded;
  ASSERT_TRUE(wire::DecodeAssignment(frame, &decoded).ok());
  const struct {
    const char* rule;
    void (*edit)(wire::Assignment*);
  } edits[] = {
      {"counts sum to 2 but it holds 3",
       [](wire::Assignment* a) { a->positions.push_back(0); }},
      {"item offsets do not bracket its items",
       [](wire::Assignment* a) { a->item_offsets = {0, 10, 3}; }},
  };
  for (const auto& edit : edits) {
    SCOPED_TRACE(edit.rule);
    wire::Assignment assignment = decoded;
    edit.edit(&assignment);
    WorkerState state(0);
    const Status applied = state.Apply(std::move(assignment));
    EXPECT_TRUE(applied.IsInvalidArgument()) << applied.ToString();
    EXPECT_NE(applied.ToString().find(edit.rule), std::string::npos)
        << applied.ToString();
    EXPECT_EQ(state.worker(), nullptr);
  }
}

TEST(DistributedTransportTest, SessionRejectsProbeItemsNotStrictlyIncreasing) {
  // A probe whose items repeat must end the session with an Error frame
  // instead of an answer that depends on the intersection kernel.
  HostedWorker worker;
  const wire::Frame assignment =
      test::AssignmentFrame({{42, {1}}}, {{1, {1, 5, 7, 9}}});
  auto session =
      RemoteWorkerSession::Open(worker.Connect(), 0, 1, assignment);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Acknowledge(test::ExpectedAck(assignment)).ok());
  const std::vector<ItemId> items(8, 5);
  ProbeRequest request;
  request.left = 0;
  request.items = items;
  request.keys = {42};
  ASSERT_TRUE(
      session->SendProbeBatch(std::span<const ProbeRequest>(&request, 1))
          .ok());
  auto answered = session->ReceiveResponses();
  ASSERT_FALSE(answered.ok());
  EXPECT_NE(answered.status().ToString().find("not strictly increasing"),
            std::string::npos)
      << answered.status().ToString();
  worker.Join();
  EXPECT_FALSE(worker.status().ok());
  (void)session->Shutdown();
}

TEST(DistributedTransportTest, SelfJoinProbeWithoutItemsNeedsAStoredCopy) {
  // A self-join request that ships no items names a vector the worker
  // stores: the worker pairs it in its own list that holds it, against
  // its stored copy, and a probe at the list's top pairs nowhere. One
  // naming a vector the worker lacks ends the session with an Error.
  HostedWorker worker;
  const wire::Frame assignment = test::AssignmentFrame(
      {{42, {1, 4}}}, {{1, {3, 5, 7}}, {4, {3, 5, 7}}});
  auto session =
      RemoteWorkerSession::Open(worker.Connect(), 0, 1, assignment);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE(session->Acknowledge(test::ExpectedAck(assignment)).ok());
  ProbeRequest stored[2];
  for (int i = 0; i < 2; ++i) {
    stored[i].left = i == 0 ? 1 : 4;
    stored[i].exclude_left_and_below = true;
  }
  ASSERT_TRUE(session->SendProbeBatch(stored).ok());
  auto answered = session->ReceiveResponses();
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  ASSERT_EQ(answered->size(), 2u);
  const ProbeResponse& paired = (*answered)[0];
  EXPECT_EQ(paired.candidates, 2u);
  EXPECT_EQ(paired.verifications, 1u);
  ASSERT_EQ(paired.matches.size(), 1u);
  EXPECT_EQ(paired.matches[0].id, 4u);
  EXPECT_EQ(paired.matches[0].similarity, 1.0);
  EXPECT_EQ((*answered)[1].candidates, 0u);
  EXPECT_TRUE((*answered)[1].matches.empty());

  ProbeRequest unstored;
  unstored.left = 2;
  unstored.exclude_left_and_below = true;
  ASSERT_TRUE(
      session->SendProbeBatch(std::span<const ProbeRequest>(&unstored, 1))
          .ok());
  auto failed = session->ReceiveResponses();
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInvalidArgument())
      << failed.status().ToString();
  EXPECT_NE(failed.status().ToString().find("stores no copy"),
            std::string::npos)
      << failed.status().ToString();
  worker.Join();
  EXPECT_FALSE(worker.status().ok());
  (void)session->Shutdown();
}

/// Runs the Hello/HelloAck exchange against \p worker over loopback
/// and returns the coordinator's end, ready for raw frames.
std::unique_ptr<FrameConnection> RawSession(HostedWorker* worker) {
  std::unique_ptr<FrameConnection> coordinator = worker->Connect();
  wire::HelloFrame hello;
  hello.worker_id = 0;
  hello.num_workers = 1;
  EXPECT_TRUE(coordinator->Send(wire::EncodeHello(hello)).ok());
  wire::Frame frame;
  EXPECT_TRUE(coordinator->Receive(&frame).ok());
  EXPECT_EQ(frame.type, wire::FrameType::kHelloAck);
  coordinator->set_frame_version(wire::kVersionMax);
  return coordinator;
}

TEST(DistributedTransportTest, WorkerAcceptsAssignmentsOnlyAtTheNextEpoch) {
  // Slice A is what a session opens with; slice B is a lost worker's,
  // re-shipped at the next epoch.
  auto slice_a = [](uint32_t epoch) {
    return test::AssignmentFrame({{42, {1}}}, {{1, {3, 5}}}, 0.5, epoch);
  };
  auto slice_b = [](uint32_t epoch) {
    return test::AssignmentFrame({{43, {2}}}, {{2, {3, 5, 7}}}, 0.5, epoch);
  };

  // Epoch 1 first, epoch 0 twice, and a skip to current + 2 each fail
  // the session with an Error frame.
  const std::vector<std::vector<uint32_t>> rejected = {{1}, {0, 0}, {0, 2}};
  for (const std::vector<uint32_t>& epochs : rejected) {
    SCOPED_TRACE("last epoch " + std::to_string(epochs.back()) + " after " +
                 std::to_string(epochs.size() - 1) + " assignment(s)");
    HostedWorker worker;
    std::unique_ptr<FrameConnection> coordinator = RawSession(&worker);
    wire::Frame frame;
    for (size_t i = 0; i + 1 < epochs.size(); ++i) {
      ASSERT_TRUE(coordinator->Send(slice_a(epochs[i])).ok());
      ASSERT_TRUE(coordinator->Receive(&frame).ok());
      ASSERT_EQ(frame.type, wire::FrameType::kAssignmentAck);
    }
    ASSERT_TRUE(coordinator->Send(slice_b(epochs.back())).ok());
    ASSERT_TRUE(coordinator->Receive(&frame).ok());
    ASSERT_EQ(frame.type, wire::FrameType::kError);
    wire::ErrorFrame error;
    ASSERT_TRUE(wire::DecodeError(frame, &error).ok());
    const Status status = wire::StatusFromError(error);
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.ToString().find("epoch"), std::string::npos)
        << status.ToString();
    worker.Join();
    EXPECT_FALSE(worker.status().ok());
  }

  // Epoch 0, then 1: the worker acks each with its epoch and counters,
  // then answers probes stamped 1 from the merged table.
  HostedWorker worker;
  std::unique_ptr<FrameConnection> coordinator = RawSession(&worker);
  wire::Frame frame;
  for (uint32_t epoch : {0u, 1u}) {
    ASSERT_TRUE(
        coordinator->Send(epoch == 0 ? slice_a(epoch) : slice_b(epoch)).ok());
    ASSERT_TRUE(coordinator->Receive(&frame).ok());
    wire::AssignmentAckFrame ack;
    ASSERT_TRUE(wire::DecodeAssignmentAck(frame, &ack).ok());
    EXPECT_EQ(ack.epoch, epoch);
    EXPECT_EQ(ack.num_keys, 1u);
    EXPECT_EQ(ack.num_entries, 1u);
    EXPECT_EQ(ack.distinct_vectors, 1u);
  }
  const std::vector<ItemId> items = {3, 5, 7};
  std::vector<ProbeRequest> batch(1);
  batch[0].left = 0;
  batch[0].items = items;
  batch[0].keys = {42, 43};
  ASSERT_TRUE(
      coordinator->Send(wire::EncodeProbeBatch(batch, /*epoch=*/1, 0)).ok());
  ASSERT_TRUE(coordinator->Receive(&frame).ok());
  wire::ResponseBatch responses;
  ASSERT_TRUE(wire::DecodeResponseBatch(frame, &responses).ok());
  EXPECT_EQ(responses.epoch, 1u);
  ASSERT_EQ(responses.responses.size(), 1u);
  std::vector<VectorId> matched;
  for (const Match& match : responses.responses[0].matches) {
    matched.push_back(match.id);
  }
  std::sort(matched.begin(), matched.end());
  EXPECT_EQ(matched, (std::vector<VectorId>{1, 2}));
  ASSERT_TRUE(coordinator->Send(wire::EncodeShutdown()).ok());
  worker.Join();
  EXPECT_TRUE(worker.status().ok()) << worker.status().ToString();
  EXPECT_EQ(worker.stats().reassignments, 1u);
  EXPECT_EQ(worker.stats().batches, 1u);
}

/// The plans that split keys: the planner's, every key heavy, and every
/// key of two or more ids heavy (one-id lists light beside heavy slices).
constexpr uint32_t kSplitPlans = test::kW2 | test::kW7 | test::kAutoHeavy |
                                 test::kForcedHeavy | test::kPairHeavy |
                                 test::kBuild;

TEST(DistributedTransportTest, LoopbackJoinIdenticalToInProcess) {
  test::JoinOracle(test::ZipfJoinConfig(91, 120))
      .Check(kSplitPlans | test::kLoopback16 | test::kClean |
             test::kSelfJoin);
}

TEST(DistributedTransportTest, TcpJoinIdenticalToInProcess) {
  test::JoinOracle(test::ZipfJoinConfig(91, 120))
      .Check(kSplitPlans | test::kTcp16 | test::kClean | test::kSelfJoin);
}

TEST(DistributedTransportTest, BatchSizeDoesNotChangeOutput) {
  // One request per frame, and each worker's whole queue in one.
  test::JoinOracle(test::ZipfJoinConfig(91, 120))
      .Check(kSplitPlans | test::kLoopback1 | test::kLoopbackWhole |
             test::kClean | test::kSelfJoin);
}

TEST(DistributedTransportTest, RemoteRSJoinIdenticalToInProcess) {
  test::JoinOracle(test::ZipfJoinConfig(95))
      .Check(kSplitPlans | test::kLoopback | test::kClean | test::kRSJoin);
}

TEST(DistributedTransportTest, RSJoinBeforeAndAfterTheOneIdListsShip) {
  // Self, R-S, self, R-S on one attachment: the attach ships the pairing
  // lists, the first R-S join each worker's one-id lists (a deferred
  // ship), and no other join ships any. Every join equals the
  // reference, and each worker's table holds all its entries after.
  test::JoinOracle(test::ZipfJoinConfig(95))
      .Check(kSplitPlans | test::kAllLight | test::kLoopback16 |
             test::kLoopbackWhole | test::kClean | test::kDuplicate |
             test::kSequence);
}

TEST(DistributedTransportTest, ParallelRemoteServingMatchesSerial) {
  // A remote cell drives its sessions from a 4-thread pool, a range of
  // them per slot (one each at W = 2, up to two at W = 7); the merge
  // must stay deterministic (this is the TSan target).
  test::JoinOracle(test::ZipfJoinConfig(97, 120))
      .Check(kSplitPlans | test::kLoopback16 | test::kTcp16 | test::kClean |
             test::kEveryJoin);
}

/// A coordinator-side connection that appends (session, frame type) to
/// a log every session of one coordinator shares, for each frame it
/// sends or receives.
class FrameLoggingConnection : public FrameConnection {
 public:
  struct Entry {
    size_t session;
    wire::FrameType type;
  };
  struct Log {
    std::mutex mutex;
    std::vector<Entry> entries;
  };
  FrameLoggingConnection(std::unique_ptr<FrameConnection> inner,
                         size_t session, Log* log)
      : inner_(std::move(inner)), session_(session), log_(log) {}

  Status Send(const wire::Frame& frame) override {
    const Status sent = inner_->Send(frame);
    if (sent.ok()) Append(frame.type);
    stats_ = inner_->stats();
    return sent;
  }
  Status Receive(wire::Frame* frame) override {
    const Status received = inner_->Receive(frame);
    if (received.ok()) Append(frame->type);
    stats_ = inner_->stats();
    return received;
  }
  void Close() override { inner_->Close(); }

 private:
  void Append(wire::FrameType type) {
    std::lock_guard<std::mutex> lock(log_->mutex);
    log_->entries.push_back({session_, type});
  }

  std::unique_ptr<FrameConnection> inner_;
  size_t session_;
  Log* log_;
};

TEST(DistributedTransportTest, OneThreadFillsEverySessionBeforeItWaits) {
  // At threads 1 one coordinator thread drives both sessions. Before it
  // receives any ResponseBatch it has sent each session min(pipeline,
  // that session's batches) ProbeBatch frames, so both workers compute
  // at once. A coordinator that drains one session before it serves the
  // next sends the second nothing until the first is answered. The R-S
  // join probes with the build side, one chunk of probes, and is the
  // attachment's first, so each session gets its one-id lists first.
  test::JoinOracle oracle(test::ZipfJoinConfig(93, 120));
  DistributedJoinOptions options = oracle.family();
  options.workers = 2;
  options.threads = 1;
  options.pipeline = 2;
  options.probe_batch = 4;
  std::deque<HostedWorker> hosts;  // outlives the coordinator
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&oracle.data(), &oracle.dist(), options).ok());
  FrameLoggingConnection::Log log;
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (size_t s = 0; s < 2; ++s) {
    connections.push_back(std::make_unique<FrameLoggingConnection>(
        hosts.emplace_back().Connect(), s, &log));
  }
  ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());
  for (const bool self : {true, false}) {
    SCOPED_TRACE(self ? "self-join" : "R-S join");
    log.entries.clear();
    DistributedJoinStats stats;
    auto got = self ? join.SelfJoin(&stats) : join.Join(oracle.data(), &stats);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    auto reference = test::ReferenceJoin(self ? nullptr : &oracle.data(),
                                         oracle.data(), oracle.dist(),
                                         oracle.family());
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    test::ExpectSamePairs(*reference, *got);
    EXPECT_EQ(stats.deferred_ships, self ? 0u : 2u);
    // Per session: ProbeBatch frames sent before the join's first
    // ResponseBatch arrived, and in all.
    size_t before[2] = {0, 0};
    size_t total[2] = {0, 0};
    bool answered = false;
    for (const FrameLoggingConnection::Entry& entry : log.entries) {
      if (entry.type == wire::FrameType::kResponseBatch) answered = true;
      if (entry.type != wire::FrameType::kProbeBatch) continue;
      total[entry.session]++;
      if (!answered) before[entry.session]++;
    }
    EXPECT_TRUE(answered);
    EXPECT_EQ(total[0] + total[1], stats.probe_batches_sent);
    for (size_t s = 0; s < 2; ++s) {
      EXPECT_GE(total[s], options.pipeline) << "session " << s;
      EXPECT_EQ(before[s], std::min(options.pipeline, total[s]))
          << "session " << s;
    }
  }
  join.DetachRemote();
  for (HostedWorker& host : hosts) {
    host.Join();
    EXPECT_TRUE(host.status().ok()) << host.status().ToString();
  }
}

TEST(DistributedTransportTest, ConcurrentRemoteJoinsTakeTurnsOnSessions) {
  // Two threads run self-joins and R-S joins on one loopback-attached
  // coordinator: at threads 1, where the one-slot pool runs the fan-out
  // inline, and at W = 1, a fan-out of one unit, which runs inline too.
  // A session is one ordered stream of frames, and the first R-S join
  // ships each worker's one-id lists, so the joins must take turns on
  // the sessions: every join returns the reference pairs.
  test::JoinOracle oracle(test::ZipfJoinConfig(93, 120));
  for (const auto& [workers, threads] : {std::pair{2, 1}, std::pair{1, 4}}) {
    SCOPED_TRACE("W = " + std::to_string(workers) + ", threads " +
                 std::to_string(threads));
    DistributedJoinOptions options = oracle.family();
    options.workers = workers;
    options.threads = threads;
    options.probe_batch = 16;
    std::deque<HostedWorker> hosts;  // outlives the coordinator
    DistributedJoin join;
    ASSERT_TRUE(join.Build(&oracle.data(), &oracle.dist(), options).ok());
    std::vector<std::unique_ptr<FrameConnection>> connections;
    for (int w = 0; w < workers; ++w) {
      connections.push_back(hosts.emplace_back().Connect());
    }
    ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());
    // Thread t runs joins t, t + 2, ...: self-joins at even indexes.
    constexpr size_t kJoins = 16;
    std::vector<Result<std::vector<JoinPair>>> got(kJoins,
                                                   std::vector<JoinPair>());
    auto run = [&](size_t first) {
      for (size_t i = first; i < kJoins; i += 2) {
        got[i] = i % 4 < 2 ? join.SelfJoin() : join.Join(oracle.left());
      }
    };
    std::thread other(run, 1);
    run(0);
    other.join();
    for (size_t i = 0; i < kJoins; ++i) {
      SCOPED_TRACE("join " + std::to_string(i));
      ASSERT_TRUE(got[i].ok()) << got[i].status().ToString();
      test::ExpectSamePairs(oracle.reference(i % 4 < 2), *got[i]);
    }
    join.DetachRemote();
    for (HostedWorker& host : hosts) {
      host.Join();
      EXPECT_TRUE(host.status().ok()) << host.status().ToString();
    }
  }
}

TEST(DistributedTransportTest, AttachRemoteValidatesPreconditions) {
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(98, 60, &dist);
  DistributedJoinOptions distributed;
  distributed.index.mode = IndexMode::kAdversarial;
  distributed.index.b1 = 0.8;
  distributed.workers = 2;

  // Not built yet.
  DistributedJoin unbuilt;
  std::vector<std::unique_ptr<FrameConnection>> none;
  EXPECT_TRUE(unbuilt.AttachRemote(std::move(none)).IsInvalidArgument());

  // Wrong connection count.
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());
  std::vector<std::unique_ptr<FrameConnection>> one;
  auto [a, b] = LoopbackPair();
  one.push_back(std::move(a));
  EXPECT_TRUE(join.AttachRemote(std::move(one)).IsInvalidArgument());
  EXPECT_FALSE(join.remote());
  // The failed attach must not have broken in-process serving.
  EXPECT_TRUE(join.SelfJoin().ok());
}

TEST(DistributedTransportTest, JoinOptionsRemoteWorkersServeOverTcp) {
  // The one-shot seam: SelfSimilarityJoin with remote_workers spins the
  // whole coordinator path including endpoint parsing.
  test::JoinOracle oracle(test::ZipfJoinConfig(99));
  oracle.Check(test::kW2 | test::kAutoHeavy | test::kBuild |
               test::kOneShotTcp | test::kClean | test::kSelfJoin);

  // workers must match the endpoint count when both are given.
  JoinOptions mismatched = AdversarialJoinOptions(0.8, 99);
  mismatched.remote_workers = {"127.0.0.1:1", "127.0.0.1:2"};
  mismatched.workers = 3;
  EXPECT_TRUE(SelfSimilarityJoin(oracle.data(), oracle.dist(), mismatched)
                  .status()
                  .IsInvalidArgument());

  // A bad endpoint fails cleanly.
  JoinOptions bad = AdversarialJoinOptions(0.8, 99);
  bad.remote_workers = {"not-an-endpoint"};
  EXPECT_FALSE(SelfSimilarityJoin(oracle.data(), oracle.dist(), bad).ok());
}

}  // namespace
}  // namespace skewsearch
