// Copyright 2026 The skewsearch Authors.
// The transport seam of the distributed join: a blocking, bidirectional
// stream of wire::Frames. Two implementations ship — the in-process
// loopback pair below (tests, benches, single-machine runs without
// sockets) and the TCP transport in tcp_transport.h — and the
// coordinator/worker sessions (session.h) are written against this
// interface only, so results can never depend on which transport
// carries the frames.

#ifndef SKEWSEARCH_DISTRIBUTED_TRANSPORT_TRANSPORT_H_
#define SKEWSEARCH_DISTRIBUTED_TRANSPORT_TRANSPORT_H_

#include <cstdint>
#include <memory>
#include <utility>

#include "distributed/transport/wire.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Byte and frame counters of one connection endpoint.
///
/// Counts complete frames (header + payload bytes) as they cross this
/// endpoint; the loopback transport counts exactly what TCP would put
/// on the wire, so bytes-on-wire reports are transport-independent.
struct WireStats {
  uint64_t frames_sent = 0;
  uint64_t frames_received = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
};

/// \brief One endpoint of a bidirectional frame stream.
///
/// Send and Receive block until the frame is fully transferred or the
/// connection fails; neither is required to be thread-safe against
/// itself (one driver thread per endpoint, the model every caller in
/// this repository follows). Closing an endpoint makes the peer's
/// blocked and future Receives fail with an IOError.
class FrameConnection {
 public:
  virtual ~FrameConnection() = default;
  FrameConnection(const FrameConnection&) = delete;
  FrameConnection& operator=(const FrameConnection&) = delete;

  /// Writes one frame (header + payload). Fails with IOError when the
  /// connection is closed or the peer is gone.
  virtual Status Send(const wire::Frame& frame) = 0;

  /// Reads the next frame, validating its header (magic, version,
  /// type, bounded payload length) before accepting the payload.
  virtual Status Receive(wire::Frame* frame) = 0;

  /// Closes this endpoint; idempotent. In-flight and later calls on
  /// either endpoint fail cleanly instead of blocking forever.
  virtual void Close() = 0;

  /// The protocol version stamped on outgoing frame headers. Starts at
  /// wire::kVersionMin — the oldest version this build speaks, so the
  /// pre-negotiation Hello stays parseable by the oldest peer the range
  /// admits — and is set to the negotiated version by the session layer
  /// once the handshake has chosen one (the spec requires every
  /// post-handshake frame to be stamped with the chosen version).
  void set_frame_version(uint8_t version) { version_byte_ = version; }
  uint8_t frame_version() const { return version_byte_; }

  /// Traffic counters of this endpoint.
  const WireStats& stats() const { return stats_; }

 protected:
  FrameConnection() = default;
  WireStats stats_;
  uint8_t version_byte_ = wire::kVersionMin;
};

/// Creates a connected in-process pair: frames sent on one endpoint are
/// received on the other, in order, with the same framing overhead TCP
/// would add. Both endpoints are safe to drive from different threads
/// (that is the point); each individual endpoint expects one driver.
std::pair<std::unique_ptr<FrameConnection>, std::unique_ptr<FrameConnection>>
LoopbackPair();

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_TRANSPORT_TRANSPORT_H_
