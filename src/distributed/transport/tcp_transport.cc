#include "distributed/transport/tcp_transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace skewsearch {

namespace {

using SteadyClock = std::chrono::steady_clock;

Status Errno(const std::string& what) {
  return Status::IOError("tcp: " + what + ": " + std::strerror(errno));
}

/// Milliseconds left until \p deadline, clamped at zero.
int RemainingMs(SteadyClock::time_point deadline) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - SteadyClock::now());
  return left.count() <= 0
             ? 0
             : static_cast<int>(
                   std::min<long long>(left.count(), 1000LL * 60 * 60 * 24));
}

/// Blocks until \p fd is ready for \p events or \p deadline passes.
/// EINTR restarts the wait with the *remaining* time (never the full
/// budget again — a signal storm cannot extend the total wait), which
/// is the whole point of polling against a deadline instead of leaning
/// on SO_RCVTIMEO/SO_SNDTIMEO restarts.
Status WaitReady(int fd, short events, SteadyClock::time_point deadline,
                 const char* op) {
  for (;;) {
    const int remaining = RemainingMs(deadline);
    if (remaining <= 0) {
      return Status::IOError(std::string("tcp: ") + op + " timed out");
    }
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = events;
    const int ready = poll(&pfd, 1, remaining);
    if (ready > 0) return Status::OK();
    if (ready == 0) {
      return Status::IOError(std::string("tcp: ") + op + " timed out");
    }
    if (errno == EINTR) continue;  // recomputes the remaining time above
    return Errno(std::string("poll (") + op + ")");
  }
}

Status ApplySocketOptions(int fd, const TcpOptions& options) {
  int one = 1;
  if (setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Errno("setsockopt(TCP_NODELAY)");
  }
  if (options.io_timeout_ms > 0) {
    timeval tv;
    tv.tv_sec = options.io_timeout_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>(options.io_timeout_ms % 1000) * 1000;
    if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
        setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
      return Errno("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO)");
    }
  }
  return Status::OK();
}

class TcpConnection : public FrameConnection {
 public:
  TcpConnection(int fd, const TcpOptions& options)
      : fd_(fd), io_timeout_ms_(options.io_timeout_ms) {}

  ~TcpConnection() override { Close(); }

  Status Send(const wire::Frame& frame) override {
    if (fd_ < 0) return Status::IOError("tcp: connection closed");
    if (poisoned_) return PoisonedStatus();
    std::vector<uint8_t> header;
    header.reserve(wire::kFrameHeaderBytes);
    wire::AppendFrameHeader(frame.type,
                            static_cast<uint32_t>(frame.payload.size()),
                            frame_version(), &header);
    // One gathered write for header + payload; partial writes resume at
    // the right offset within whichever buffer the kernel stopped in.
    iovec iov[2];
    iov[0].iov_base = header.data();
    iov[0].iov_len = header.size();
    iov[1].iov_base = const_cast<uint8_t*>(frame.payload.data());
    iov[1].iov_len = frame.payload.size();
    size_t active = frame.payload.empty() ? 1 : 2;
    iovec* cursor = iov;
    const auto deadline =
        SteadyClock::now() + std::chrono::milliseconds(io_timeout_ms_);
    bool wrote_any = false;
    // A failure after any byte of this frame went out leaves the peer's
    // stream cut mid-frame: poison so no later Send can interleave a
    // fresh header into the torn frame.
    auto fail = [&](Status status) {
      if (wrote_any) poisoned_ = true;
      return status;
    };
    while (active > 0) {
      if (io_timeout_ms_ > 0) {
        Status ready = WaitReady(fd_, POLLOUT, deadline, "send");
        if (!ready.ok()) return fail(std::move(ready));
      }
      msghdr msg{};
      msg.msg_iov = cursor;
      msg.msg_iovlen = active;
      ssize_t sent = sendmsg(fd_, &msg, MSG_NOSIGNAL);
      if (sent < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
          // No timeout configured: plain blocking retry. With one, the
          // WaitReady above re-enters with the remaining budget only.
          if (io_timeout_ms_ == 0 && errno != EINTR) {
            return fail(Status::IOError("tcp: send timed out"));
          }
          continue;
        }
        return fail(Errno("sendmsg"));
      }
      if (sent > 0) wrote_any = true;
      size_t progress = static_cast<size_t>(sent);
      while (active > 0 && progress >= cursor->iov_len) {
        progress -= cursor->iov_len;
        ++cursor;
        --active;
      }
      if (active > 0) {
        cursor->iov_base = static_cast<uint8_t*>(cursor->iov_base) + progress;
        cursor->iov_len -= progress;
      }
    }
    stats_.frames_sent++;
    stats_.bytes_sent += wire::kFrameHeaderBytes + frame.payload.size();
    return Status::OK();
  }

  Status Receive(wire::Frame* frame) override {
    if (fd_ < 0) return Status::IOError("tcp: connection closed");
    if (poisoned_) return PoisonedStatus();
    uint8_t header[wire::kFrameHeaderBytes];
    bool consumed_any = false;
    Status read = ReadExactly(header, sizeof(header), &consumed_any);
    if (!read.ok()) {
      // A timeout (or any failure) after part of a header was consumed
      // leaves the stream desynchronized: the next read would decode
      // mid-frame bytes as a header. Between frames (nothing consumed)
      // the stream is still aligned and the error is returned as-is.
      if (consumed_any) poisoned_ = true;
      return read;
    }
    wire::FrameHeader decoded;
    Status header_ok = wire::DecodeFrameHeader(
        std::span<const uint8_t>(header, sizeof(header)), &decoded);
    if (!header_ok.ok()) {
      poisoned_ = true;  // 12 bytes of garbage consumed: no resync point
      return header_ok;
    }
    frame->type = decoded.type;
    frame->payload.resize(decoded.payload_length);
    if (decoded.payload_length > 0) {
      consumed_any = false;
      read = ReadExactly(frame->payload.data(), decoded.payload_length,
                         &consumed_any);
      if (!read.ok()) {
        poisoned_ = true;  // header consumed, payload cut short
        return read;
      }
    }
    stats_.frames_received++;
    stats_.bytes_received += wire::kFrameHeaderBytes + decoded.payload_length;
    return Status::OK();
  }

  void Close() override {
    if (fd_ >= 0) {
      ::shutdown(fd_, SHUT_RDWR);
      ::close(fd_);
      fd_ = -1;
    }
  }

 private:
  static Status PoisonedStatus() {
    return Status::Aborted(
        "tcp: connection poisoned: an earlier failure mid-frame left the "
        "stream desynchronized; close and reconnect");
  }

  Status ReadExactly(uint8_t* out, size_t count, bool* consumed_any) {
    size_t done = 0;
    const auto deadline =
        SteadyClock::now() + std::chrono::milliseconds(io_timeout_ms_);
    while (done < count) {
      if (io_timeout_ms_ > 0) {
        SKEWSEARCH_RETURN_NOT_OK(
            WaitReady(fd_, POLLIN, deadline, "receive"));
      }
      ssize_t got = recv(fd_, out + done, count - done, 0);
      if (got < 0) {
        if (errno == EINTR) continue;  // deadline enforced by WaitReady
        if (errno == EAGAIN || errno == EWOULDBLOCK) {
          if (io_timeout_ms_ == 0) {
            return Status::IOError("tcp: receive timed out");
          }
          continue;
        }
        return Errno("recv");
      }
      if (got == 0) {
        return Status::IOError("tcp: connection closed by peer");
      }
      done += static_cast<size_t>(got);
      *consumed_any = true;
    }
    return Status::OK();
  }

  int fd_;
  uint32_t io_timeout_ms_;
  /// Set once a frame boundary has been lost (short read/write inside a
  /// frame, or garbage where a header should be); every later Send and
  /// Receive fails with a distinct Aborted status instead of decoding
  /// garbage.
  bool poisoned_ = false;
};

}  // namespace

Result<std::unique_ptr<FrameConnection>> TcpConnect(
    const std::string& host, uint16_t port, const TcpOptions& options) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  const std::string service = std::to_string(port);
  int rc = getaddrinfo(host.c_str(), service.c_str(), &hints, &resolved);
  if (rc != 0) {
    return Status::IOError("tcp: cannot resolve '" + host +
                           "': " + gai_strerror(rc));
  }
  Status last = Status::IOError("tcp: no addresses for '" + host + "'");
  for (addrinfo* ai = resolved; ai != nullptr; ai = ai->ai_next) {
    int fd = socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    if (connect(fd, ai->ai_addr, ai->ai_addrlen) != 0) {
      last = Errno("connect to " + host + ":" + service);
      ::close(fd);
      continue;
    }
    Status configured = ApplySocketOptions(fd, options);
    if (!configured.ok()) {
      ::close(fd);
      last = configured;
      continue;
    }
    freeaddrinfo(resolved);
    return std::unique_ptr<FrameConnection>(
        std::make_unique<TcpConnection>(fd, options));
  }
  freeaddrinfo(resolved);
  return last;
}

Result<std::unique_ptr<FrameConnection>> ConnectEndpoint(
    const std::string& endpoint) {
  const size_t colon = endpoint.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == endpoint.size()) {
    return Status::InvalidArgument("endpoint '" + endpoint +
                                   "' is not host:port");
  }
  const std::string port_text = endpoint.substr(colon + 1);
  char* end = nullptr;
  const unsigned long port = std::strtoul(port_text.c_str(), &end, 10);
  if (end == port_text.c_str() || *end != '\0' || port == 0 ||
      port > 65535) {
    return Status::InvalidArgument("endpoint '" + endpoint +
                                   "' has an invalid port");
  }
  return TcpConnect(endpoint.substr(0, colon), static_cast<uint16_t>(port));
}

TcpListener::TcpListener(TcpListener&& other) noexcept
    : fd_(other.fd_), port_(other.port_), options_(other.options_) {
  other.fd_ = -1;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    options_ = other.options_;
    other.fd_ = -1;
  }
  return *this;
}

TcpListener::~TcpListener() { Close(); }

Result<TcpListener> TcpListener::Listen(uint16_t port,
                                        const TcpOptions& options) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
    Status status = Errno("setsockopt(SO_REUSEADDR)");
    ::close(fd);
    return status;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status = Errno("bind port " + std::to_string(port));
    ::close(fd);
    return status;
  }
  if (listen(fd, SOMAXCONN) != 0) {
    Status status = Errno("listen");
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status status = Errno("getsockname");
    ::close(fd);
    return status;
  }
  return TcpListener(fd, ntohs(addr.sin_port), options);
}

Result<std::unique_ptr<FrameConnection>> TcpListener::Accept() {
  bool timed_out = false;
  return Accept(/*timeout_ms=*/0, &timed_out);
}

Result<std::unique_ptr<FrameConnection>> TcpListener::Accept(
    uint32_t timeout_ms, bool* timed_out) {
  *timed_out = false;
  if (fd_ < 0) return Status::IOError("tcp: listener closed");
  const auto deadline =
      SteadyClock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (timeout_ms > 0) {
      Status ready = WaitReady(fd_, POLLIN, deadline, "accept");
      if (!ready.ok()) {
        *timed_out = true;
        return ready;
      }
    }
    int fd = accept(fd_, nullptr, nullptr);
    if (fd < 0) {
      // Transient per-connection conditions: the connection that was
      // pending aborted (or tripped a protocol error) before we got to
      // it. The listener itself is fine — keep accepting, a server's
      // accept loop must outlive any one bad client.
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        continue;
      }
      return Errno("accept");
    }
    Status configured = ApplySocketOptions(fd, options_);
    if (!configured.ok()) {
      // A client socket we cannot configure is that client's problem,
      // not the listener's: drop it and keep serving.
      ::close(fd);
      continue;
    }
    return std::unique_ptr<FrameConnection>(
        std::make_unique<TcpConnection>(fd, options_));
  }
}

void TcpListener::Shutdown() {
  // shutdown() on a listening socket reliably wakes a blocked accept()
  // on Linux (close() alone would not); fd_ is deliberately left alone
  // so the owner thread's Close() still runs.
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void TcpListener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace skewsearch
