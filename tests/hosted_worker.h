// Copyright 2026 The skewsearch Authors.
// A join worker hosted on a thread of the test process: ServeConnection
// with the given ServeOptions, over an in-process loopback pair or the
// one connection a localhost TCP listener accepts. The session's status
// and counters stay behind for the test to assert on after Join().

#ifndef SKEWSEARCH_TESTS_HOSTED_WORKER_H_
#define SKEWSEARCH_TESTS_HOSTED_WORKER_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "distributed/transport/session.h"
#include "distributed/transport/tcp_transport.h"
#include "distributed/transport/transport.h"

namespace skewsearch {
namespace test {

enum class Transport { kLoopback, kTcp };

/// \brief One ServeConnection session on its own thread, started by one
/// call to Listen or Connect.
///
/// Joined on destruction, so declare it before the coordinator that
/// drives it: the coordinator, destroyed first, shuts the session down.
class HostedWorker {
 public:
  explicit HostedWorker(const ServeOptions& options = {})
      : options_(options) {}
  HostedWorker(const HostedWorker&) = delete;
  HostedWorker& operator=(const HostedWorker&) = delete;
  ~HostedWorker() { Join(); }

  /// Listens on a free localhost port and serves the first connection
  /// it accepts. Returns the "127.0.0.1:port" endpoint.
  std::string Listen() {
    auto listener = TcpListener::Listen(0);
    if (!listener.ok()) {
      ADD_FAILURE() << listener.status().ToString();
      return "127.0.0.1:0";  // ConnectEndpoint rejects it
    }
    listener_ = std::make_shared<TcpListener>(std::move(listener).value());
    thread_ = std::thread([this, l = listener_] {
      auto connection = l->Accept();
      status_ = connection.ok()
                    ? ServeConnection(connection->get(), &stats_, options_)
                    : connection.status();
    });
    return "127.0.0.1:" + std::to_string(listener_->port());
  }

  /// Starts serving over \p transport and returns the coordinator's end.
  std::unique_ptr<FrameConnection> Connect(
      Transport transport = Transport::kLoopback) {
    if (transport == Transport::kTcp) {
      auto connection = ConnectEndpoint(Listen());
      if (connection.ok()) return std::move(connection).value();
      ADD_FAILURE() << connection.status().ToString();
      return LoopbackPair().first;  // its peer is gone: every use fails
    }
    auto [coordinator, worker] = LoopbackPair();
    thread_ = std::thread([this, end = std::move(worker)] {
      status_ = ServeConnection(end.get(), &stats_, options_);
    });
    return std::move(coordinator);
  }

  /// Wakes an Accept no coordinator reached, then joins the thread.
  void Join() {
    if (listener_) listener_->Shutdown();
    if (thread_.joinable()) thread_.join();
  }

  /// The session's outcome and counters; read them after Join().
  const Status& status() const { return status_; }
  const WorkerServeStats& stats() const { return stats_; }

 private:
  ServeOptions options_;
  std::shared_ptr<TcpListener> listener_;
  Status status_;
  WorkerServeStats stats_;
  std::thread thread_;  // after everything the session writes
};

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_HOSTED_WORKER_H_
