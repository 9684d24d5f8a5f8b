// Copyright 2026 The skewsearch Authors.
// WorkerServer over localhost TCP: concurrent coordinators, the drain,
// the session cap and the idle guard. Each row orders its steps by
// protocol events (a handshake answered, a probe answered, a Shutdown
// sent), never by sleeping: a row records whether Serve() returned, or a
// Hello was answered, before the step that should allow it.

#include "distributed/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "assignment_test_util.h"
#include "distributed/distributed_join.h"
#include "join_oracle.h"
#include "obs/metrics.h"
#include "util/timer.h"

namespace skewsearch {
namespace {

/// A WorkerServer on a free localhost port, serving on its own thread
/// into a private metrics registry. A row sets `released` just before
/// the step that lets Serve() return; Serve's thread records whether it
/// returned before that.
class RunningServer {
 public:
  explicit RunningServer(WorkerServerOptions options = {}) {
    options.serve.metrics = &metrics_;
    auto listener = TcpListener::Listen(0);
    EXPECT_TRUE(listener.ok()) << listener.status().ToString();
    if (!listener.ok()) return;
    server_ = std::make_unique<WorkerServer>(std::move(listener).value(),
                                             std::move(options));
    thread_ = std::thread([this] {
      served_ = server_->Serve();
      returned_early_ = !released.load();
    });
  }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;
  ~RunningServer() {
    if (server_) server_->RequestDrain();
    if (thread_.joinable()) thread_.join();
  }

  /// A coordinator's connection. A receive that waits 10 s fails, so a
  /// server that stopped answering fails its row instead of hanging it.
  std::unique_ptr<FrameConnection> Connect() const {
    TcpOptions options;
    options.io_timeout_ms = 10'000;
    auto connection =
        TcpConnect("127.0.0.1", server_ ? server_->port() : 0, options);
    EXPECT_TRUE(connection.ok()) << connection.status().ToString();
    return connection.ok() ? std::move(connection).value()
                           : LoopbackPair().first;
  }
  void RequestDrain() { server_->RequestDrain(); }

  /// Waits for Serve() to return and checks that it returned OK, and
  /// only after `released` was set; then its final counters.
  WorkerServerStats Wait() {
    if (thread_.joinable()) thread_.join();
    EXPECT_TRUE(served_.ok()) << served_.ToString();
    EXPECT_FALSE(returned_early_) << "Serve() returned before its release";
    const WorkerServerStats stats = server_->stats();
    EXPECT_EQ(metrics_.GetCounter("worker.sessions.accepted")->Value(),
              stats.sessions_accepted);
    EXPECT_EQ(metrics_.GetCounter("worker.sessions.ok")->Value(),
              stats.sessions_ok);
    EXPECT_EQ(metrics_.GetGauge("worker.sessions.active")->Value(), 0);
    return stats;
  }

  std::atomic<bool> released{false};

 private:
  obs::MetricsRegistry metrics_;
  std::unique_ptr<WorkerServer> server_;
  Status served_;
  bool returned_early_ = false;
  std::thread thread_;  // last: it uses everything above
};

/// A worker-0-of-1 session on \p connection, handshaken and assigned the
/// one-key slice every row probes.
Result<RemoteWorkerSession> OpenSession(
    std::unique_ptr<FrameConnection> connection) {
  const wire::Frame assignment =
      test::AssignmentFrame({{7, {0, 1}}}, {{0, {1, 2, 3}}, {1, {2, 3, 4}}},
                            /*threshold=*/0.4);
  auto session = RemoteWorkerSession::Open(std::move(connection), 0, 1,
                                           assignment);
  if (!session.ok()) return session.status();
  SKEWSEARCH_RETURN_NOT_OK(
      session->Acknowledge(test::ExpectedAck(assignment)));
  return session;
}

/// One probe round trip on \p session: an R-S probe of key 7 that both
/// stored vectors answer.
void RoundTrip(RemoteWorkerSession* session) {
  const std::vector<ItemId> items = {2, 3, 4};
  ProbeRequest probe;
  probe.left = 9;
  probe.items = std::span<const ItemId>(items);
  probe.keys = {7};
  ASSERT_TRUE(session->SendProbeBatch(std::span(&probe, 1)).ok());
  auto responses = session->ReceiveResponses();
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 1u);
  EXPECT_EQ((*responses)[0].matches.size(), 2u);
}

/// Forwards every frame and fulfils \p sent once its first frame (the
/// Hello) is on the wire.
class SignalingConnection : public FrameConnection {
 public:
  SignalingConnection(std::unique_ptr<FrameConnection> inner,
                      std::promise<void>* sent)
      : inner_(std::move(inner)), sent_(sent) {}
  Status Send(const wire::Frame& frame) override {
    const Status status = inner_->Send(frame);
    if (sent_ != nullptr) std::exchange(sent_, nullptr)->set_value();
    return status;
  }
  Status Receive(wire::Frame* frame) override {
    return inner_->Receive(frame);
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<FrameConnection> inner_;
  std::promise<void>* sent_;
};

TEST(DistributedServerTest, ServesTwoCoordinatorsAtOnce) {
  // A two-worker and a one-worker coordinator attach to one server, so
  // three sessions are live before either joins, and join from two
  // threads: both return the reference pairs.
  RunningServer server;
  test::JoinOracle oracle(test::ZipfJoinConfig(95, 120));
  DistributedJoin joins[2];
  for (int c = 0; c < 2; ++c) {
    DistributedJoinOptions options = oracle.family();
    options.workers = 2 - c;
    ASSERT_TRUE(joins[c].Build(&oracle.data(), &oracle.dist(), options).ok());
    std::vector<std::unique_ptr<FrameConnection>> connections;
    for (int w = 0; w < options.workers; ++w) {
      connections.push_back(server.Connect());
    }
    const Status attached = joins[c].AttachRemote(std::move(connections));
    ASSERT_TRUE(attached.ok()) << attached.ToString();
  }
  std::vector<Result<std::vector<JoinPair>>> pairs(
      2, Status::IOError("not joined"));
  std::vector<std::thread> threads;
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&, c] { pairs[c] = joins[c].SelfJoin(); });
  }
  for (std::thread& thread : threads) thread.join();
  for (int c = 0; c < 2; ++c) {
    ASSERT_TRUE(pairs[c].ok()) << pairs[c].status().ToString();
    test::ExpectSamePairs(oracle.reference(/*self_join=*/true), *pairs[c]);
    joins[c].DetachRemote();
  }
  server.released = true;
  server.RequestDrain();
  const WorkerServerStats stats = server.Wait();
  EXPECT_EQ(stats.sessions_accepted, 3u);
  EXPECT_EQ(stats.sessions_ok, 3u);
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_FALSE(stats.idle_timeout_hit);
}

TEST(DistributedServerTest, DrainWaitsForTheLiveSessionsShutdown) {
  RunningServer server;
  auto session = OpenSession(server.Connect());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  server.RequestDrain();
  // Drain stops the accept loop, not the session: it still answers.
  RoundTrip(&*session);
  server.released = true;
  ASSERT_TRUE(session->Shutdown().ok());
  const WorkerServerStats stats = server.Wait();
  EXPECT_EQ(stats.sessions_accepted, 1u);
  EXPECT_EQ(stats.sessions_ok, 1u);
  EXPECT_EQ(stats.sessions_failed, 0u);
  EXPECT_FALSE(stats.idle_timeout_hit);
}

TEST(DistributedServerTest, SessionCapHoldsTheNextHelloUntilASessionEnds) {
  WorkerServerOptions options;
  options.max_sessions = 1;
  RunningServer server(options);
  auto first = OpenSession(server.Connect());
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  // A second coordinator connects (the listen backlog takes it) and
  // sends its Hello while the first session is live.
  std::atomic<bool> first_ended{false};
  bool answered_while_first_live = false;
  std::promise<void> hello_sent;
  std::future<void> hello_on_wire = hello_sent.get_future();
  std::thread second([&] {
    auto session = OpenSession(
        std::make_unique<SignalingConnection>(server.Connect(), &hello_sent));
    answered_while_first_live = !first_ended.load();
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    RoundTrip(&*session);
    EXPECT_TRUE(session->Shutdown().ok());
  });
  hello_on_wire.wait();
  // The first session still serves while the second Hello waits, for
  // longer than an uncapped server takes to answer a Hello.
  Timer timer;
  do {
    RoundTrip(&*first);
  } while (timer.ElapsedSeconds() < 0.1);
  first_ended = true;
  EXPECT_TRUE(first->Shutdown().ok());
  second.join();
  EXPECT_FALSE(answered_while_first_live)
      << "the second Hello was answered while the first session was live";

  server.released = true;
  server.RequestDrain();
  const WorkerServerStats stats = server.Wait();
  EXPECT_EQ(stats.sessions_accepted, 2u);
  EXPECT_EQ(stats.sessions_ok, 2u);
}

TEST(DistributedServerTest, IdleTimeoutRetiresOnlyAServerWithNoSession) {
  constexpr uint32_t kIdleMs = 50;
  WorkerServerOptions options;
  options.idle_timeout_ms = kIdleMs;
  {
    // Nobody connects: the guard retires the server.
    RunningServer idle(options);
    idle.released = true;
    const WorkerServerStats stats = idle.Wait();
    EXPECT_TRUE(stats.idle_timeout_hit);
    EXPECT_EQ(stats.sessions_accepted, 0u);
  }
  // A live session outlasts several idle timeouts without a new
  // connection, and the server still takes the next coordinator; it
  // retires only once both have ended.
  RunningServer busy(options);
  auto session = OpenSession(busy.Connect());
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  Timer timer;
  do {
    RoundTrip(&*session);
  } while (timer.ElapsedSeconds() < 4 * kIdleMs / 1e3);
  auto next = OpenSession(busy.Connect());
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  RoundTrip(&*next);
  ASSERT_TRUE(next->Shutdown().ok());
  busy.released = true;
  ASSERT_TRUE(session->Shutdown().ok());
  const WorkerServerStats stats = busy.Wait();
  EXPECT_TRUE(stats.idle_timeout_hit);
  EXPECT_EQ(stats.sessions_accepted, 2u);
  EXPECT_EQ(stats.sessions_ok, 2u);
}

}  // namespace
}  // namespace skewsearch
