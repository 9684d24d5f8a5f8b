// The acceptance-criterion test: a coordinator joined to two separate
// worker OS processes over TCP produces output byte-identical to the
// reference join (reference_join.h). Workers are real fork()ed children
// serving on inherited listening sockets — distinct address spaces, so
// nothing can leak through shared memory the way an in-process
// simulation could hide. (The suite deliberately does NOT start with
// "Distributed": fork and TSan do not mix, and CI's TSan matrix
// selects suites by that prefix. The CI smoke job covers the same
// topology with the real `join-worker` binary.)

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "distributed/distributed_join.h"
#include "distributed/transport/session.h"
#include "distributed/transport/tcp_transport.h"
#include "reference_join.h"

namespace skewsearch {
namespace {

using test::ExpectSamePairs;
using test::ZipfDataWithDuplicates;

/// Forks a child that accepts one coordinator session on \p listener
/// and serves it to completion; the child's exit status reports the
/// outcome (0 = orderly shutdown). The parent's copy of the listener
/// is closed before returning.
pid_t ForkWorkerProcess(TcpListener* listener) {
  pid_t pid = fork();
  if (pid == 0) {
    // Child: no gtest machinery, no return — only _exit, so a failure
    // can never run the parent's teardown twice.
    auto connection = listener->Accept();
    if (!connection.ok()) _exit(2);
    listener->Close();
    Status served = ServeConnection(connection->get(), nullptr);
    _exit(served.ok() ? 0 : 3);
  }
  listener->Close();  // parent's copy; the child keeps its own fd
  return pid;
}

int WaitForExit(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  if (!WIFEXITED(status)) return -2;
  return WEXITSTATUS(status);
}

TEST(MultiProcessJoinTest, TwoWorkerProcessesMatchSingleProcessJoin) {
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(101, 150, &dist);
  const JoinOptions options = test::AdversarialJoinOptions(0.8, 101);
  auto expected = test::ReferenceSelfJoin(data, dist, options);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->size(), 0u) << "identity needs a non-trivial output";

  constexpr int kWorkers = 2;
  std::vector<pid_t> children;
  std::vector<uint16_t> ports;
  for (int w = 0; w < kWorkers; ++w) {
    auto listener = TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok()) << listener.status().ToString();
    ports.push_back(listener->port());
    pid_t pid = ForkWorkerProcess(&listener.value());
    ASSERT_NE(pid, -1);
    children.push_back(pid);
  }

  DistributedJoinOptions distributed;
  distributed.index = options.index;
  distributed.threshold = options.threshold;
  distributed.workers = kWorkers;
  distributed.probe_batch = 64;
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (uint16_t port : ports) {
    auto connection = TcpConnect("127.0.0.1", port);
    ASSERT_TRUE(connection.ok()) << connection.status().ToString();
    connections.push_back(std::move(connection).value());
  }
  ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());

  DistributedJoinStats stats;
  auto got = join.SelfJoin(&stats);
  ASSERT_TRUE(got.ok());
  ExpectSamePairs(*expected, *got);
  EXPECT_GT(stats.wire_bytes_sent, 0u);
  EXPECT_GT(stats.wire_bytes_received, 0u);

  join.DetachRemote();  // orderly Shutdown; the children exit 0
  for (pid_t pid : children) {
    EXPECT_EQ(WaitForExit(pid), 0);
  }
}

TEST(MultiProcessJoinTest, WorkerProcessSurvivesCoordinatorRestart) {
  // Two sequential coordinator sessions against freshly forked workers:
  // the second join (after a full detach) must still be identical, and
  // every worker process must exit cleanly both times.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(103, 100, &dist);
  DistributedJoinOptions distributed;
  distributed.index.mode = IndexMode::kAdversarial;
  distributed.index.b1 = 0.8;
  distributed.index.repetition_boost = 3.0;
  distributed.index.seed = 103;
  distributed.workers = 2;
  auto expected = test::ReferenceSelfJoin(data, dist, distributed);
  ASSERT_TRUE(expected.ok());
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());

  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::vector<pid_t> children;
    std::vector<std::unique_ptr<FrameConnection>> connections;
    for (int w = 0; w < 2; ++w) {
      auto listener = TcpListener::Listen(0);
      ASSERT_TRUE(listener.ok());
      const uint16_t port = listener->port();
      pid_t pid = ForkWorkerProcess(&listener.value());
      ASSERT_NE(pid, -1);
      children.push_back(pid);
      auto connection = TcpConnect("127.0.0.1", port);
      ASSERT_TRUE(connection.ok());
      connections.push_back(std::move(connection).value());
    }
    ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());
    auto got = join.SelfJoin();
    ASSERT_TRUE(got.ok());
    ExpectSamePairs(*expected, *got);
    join.DetachRemote();
    for (pid_t pid : children) EXPECT_EQ(WaitForExit(pid), 0);
  }
}

TEST(MultiProcessJoinTest, WorkerKilledMidJoinRecoversByteIdentical) {
  // The PR's acceptance criterion: SIGKILL one worker process with the
  // probe stream pending, and the coordinator must re-derive the lost
  // posting slices from the deterministic plan, re-ship them to a
  // surviving process, replay the unacknowledged batches, and complete
  // with byte-identical output.
  ProductDistribution dist;
  Dataset data = ZipfDataWithDuplicates(107, 150, &dist);
  DistributedJoinOptions distributed;
  distributed.index.mode = IndexMode::kAdversarial;
  distributed.index.b1 = 0.8;
  distributed.index.repetition_boost = 3.0;
  distributed.index.seed = 107;
  distributed.workers = 3;
  distributed.probe_batch = 16;
  auto expected = test::ReferenceSelfJoin(data, dist, distributed);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->size(), 0u) << "identity needs a non-trivial output";
  DistributedJoin join;
  ASSERT_TRUE(join.Build(&data, &dist, distributed).ok());

  std::vector<pid_t> children;
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (int w = 0; w < 3; ++w) {
    auto listener = TcpListener::Listen(0);
    ASSERT_TRUE(listener.ok());
    const uint16_t port = listener->port();
    pid_t pid = ForkWorkerProcess(&listener.value());
    ASSERT_NE(pid, -1);
    children.push_back(pid);
    auto connection = TcpConnect("127.0.0.1", port);
    ASSERT_TRUE(connection.ok());
    connections.push_back(std::move(connection).value());
  }
  ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());

  // The victim dies *after* the attach (its slices are shipped and its
  // session live) and is reaped before the probe phase, so every one of
  // its batches fails and must be replayed elsewhere.
  ASSERT_EQ(kill(children[1], SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(children[1], &status, 0), children[1]);
  ASSERT_TRUE(WIFSIGNALED(status));

  DistributedJoinStats stats;
  auto got = join.SelfJoin(&stats);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectSamePairs(*expected, *got);
  EXPECT_EQ(stats.worker_recoveries, 1u);
  EXPECT_GE(stats.replayed_batches, 1u);

  join.DetachRemote();  // the survivors still exit 0
  EXPECT_EQ(WaitForExit(children[0]), 0);
  EXPECT_EQ(WaitForExit(children[2]), 0);
}

}  // namespace
}  // namespace skewsearch
