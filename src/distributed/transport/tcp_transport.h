// Copyright 2026 The skewsearch Authors.
// Blocking TCP implementation of the FrameConnection seam: a listener
// for `join-worker` processes and a connector for the coordinator.
//
// Frames go out as one gathered write (header + payload in a single
// writev-style sendmsg call, so small frames cost one syscall and never
// interleave), and come in as exactly header-then-payload reads with
// the header validated — magic, version, type, payload bound — before
// a single payload byte is accepted. TCP_NODELAY is set on every
// connection (the probe protocol is request/response; Nagle would
// serialize round trips), and SIGPIPE is suppressed per send, so a
// vanished peer surfaces as a Status, never a signal.

#ifndef SKEWSEARCH_DISTRIBUTED_TRANSPORT_TCP_TRANSPORT_H_
#define SKEWSEARCH_DISTRIBUTED_TRANSPORT_TCP_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "distributed/transport/transport.h"
#include "util/result.h"

namespace skewsearch {

/// \brief Socket-level knobs shared by listener and connector.
struct TcpOptions {
  /// Per-operation send/receive timeout in milliseconds; 0 disables.
  /// With a timeout set, a hung peer turns a blocked Send/Receive into
  /// an IOError after roughly this long — the failure invariant the
  /// coordinator relies on to abort a join instead of hanging.
  uint32_t io_timeout_ms = 0;
};

/// Connects to `host:port` and returns a frame connection over the
/// socket. \p host is a name or numeric address resolved via
/// getaddrinfo (IPv4).
Result<std::unique_ptr<FrameConnection>> TcpConnect(
    const std::string& host, uint16_t port, const TcpOptions& options = {});

/// TcpConnect for an endpoint written `host:port` (the last ':' splits,
/// so numeric hosts with dots are fine) — what `--connect` and
/// JoinOptions::remote_workers take. A missing ':', an empty host or
/// port, or a port that is not a number in 1..65535 fails with
/// InvalidArgument before anything is resolved or connected.
Result<std::unique_ptr<FrameConnection>> ConnectEndpoint(
    const std::string& endpoint);

/// \brief A listening TCP socket accepting frame connections.
///
/// Movable, not copyable; the socket closes with the object. Listen on
/// port 0 to let the kernel pick a free port (query it via port()) —
/// the pattern the tests and the smoke script use.
class TcpListener {
 public:
  /// Binds 0.0.0.0:\p port and listens.
  static Result<TcpListener> Listen(uint16_t port,
                                    const TcpOptions& options = {});

  TcpListener(TcpListener&& other) noexcept;
  TcpListener& operator=(TcpListener&& other) noexcept;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// Blocks until a coordinator connects; returns the connection. The
  /// accept loop survives transient per-connection failures (EINTR,
  /// ECONNABORTED, EPROTO, an unconfigurable client socket) — only a
  /// broken listener surfaces as an error.
  Result<std::unique_ptr<FrameConnection>> Accept();

  /// Accept with a bound: waits at most \p timeout_ms (against a
  /// deadline, so EINTR cannot extend the total wait) and sets
  /// \p *timed_out when the bound — not the listener — ended the wait.
  /// 0 waits forever, exactly like Accept(). The multi-session worker
  /// server's idle-timeout guard is built on this.
  Result<std::unique_ptr<FrameConnection>> Accept(uint32_t timeout_ms,
                                                 bool* timed_out);

  /// The bound port (resolves a requested port of 0).
  uint16_t port() const { return port_; }

  /// Wakes a blocked Accept (it fails with an error) without touching
  /// this object's state — the one member safe to call from a thread
  /// other than the listener's owner, which should then Close().
  void Shutdown();

  /// Closes the listening socket; idempotent. Owner thread only.
  void Close();

 private:
  TcpListener(int fd, uint16_t port, const TcpOptions& options)
      : fd_(fd), port_(port), options_(options) {}

  int fd_ = -1;
  uint16_t port_ = 0;
  TcpOptions options_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_TRANSPORT_TCP_TRANSPORT_H_
