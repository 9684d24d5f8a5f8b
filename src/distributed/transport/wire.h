// Copyright 2026 The skewsearch Authors.
// The distributed join's wire codec: versioned, length-prefixed binary
// frames for everything that crosses the coordinator <-> worker seam
// (handshake, posting-slice assignment, probe batches, responses,
// errors). docs/WIRE_PROTOCOL.md is the normative byte-level spec of
// this file; when code and spec disagree, fix one of them in the same
// change.
//
// Design rules, shared with core/index_io:
//   * Fixed-width little-endian fields, no alignment, no padding.
//   * Every variable-length count is validated against the bytes that
//     are actually present before anything is allocated, so a corrupt
//     or hostile length field can never demand unbounded memory
//     (bounded-allocation decode). The frame header's payload length is
//     itself capped at kMaxFramePayload.
//   * Decoding never trusts the peer: enum ranges, reserved bits,
//     sortedness and cross-references are all checked, and a failure is
//     a Status, never UB. An Assignment's arrays are the exception the
//     decoder leaves to its consumer: the worker checks what they mean
//     in one pass before it adopts them (session.h, WorkerState).

#ifndef SKEWSEARCH_DISTRIBUTED_TRANSPORT_WIRE_H_
#define SKEWSEARCH_DISTRIBUTED_TRANSPORT_WIRE_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/inverted_index.h"
#include "data/dataset.h"
#include "distributed/messages.h"
#include "obs/metrics.h"
#include "sim/measures.h"
#include "util/result.h"

namespace skewsearch {
namespace wire {

// The codec writes native representations via memcpy while the spec
// mandates little-endian bytes on the wire (unlike the on-disk formats,
// these bytes cross machines). Until a big-endian port byte-swaps in
// PayloadWriter/PayloadReader, building one must be a compile error,
// not a silent protocol violation.
static_assert(std::endian::native == std::endian::little,
              "the wire codec requires a little-endian host (see "
              "docs/WIRE_PROTOCOL.md, Conventions)");

/// First four payload-frame bytes, the ASCII "SKWJ" read little-endian.
inline constexpr uint32_t kMagic = 0x4A574B53u;

/// \name Protocol versions this build can speak.
/// The Hello frame carries the coordinator's [min, max] range; the
/// worker's HelloAck picks the highest version both sides support (see
/// docs/WIRE_PROTOCOL.md, "Version negotiation"). Version 6 is the
/// only one: its Assignment is columnar, and a self-join ProbeRequest
/// names the probe, which the worker pairs inside its own lists that
/// hold it, and ships only the keys of lists that do not. Versions 1
/// to 5 are retired, so a header stamped with any of them is rejected
/// and a Hello whose range excludes 6 is refused. The range and the
/// negotiation stay so a later version can be added.
/// @{
inline constexpr uint8_t kVersionMin = 6;
inline constexpr uint8_t kVersionMax = 6;
/// @}

/// Hard cap on a frame's payload length. A header announcing more is
/// rejected before any payload is read or allocated.
inline constexpr uint32_t kMaxFramePayload = 256u * 1024u * 1024u;

/// Serialized frame-header size in bytes: magic u32, version u8,
/// type u8, reserved u16 (must be zero), payload length u32.
inline constexpr size_t kFrameHeaderBytes = 12;

/// \brief Frame types (the `type` header field).
enum class FrameType : uint8_t {
  kHello = 1,          ///< coordinator -> worker: version range + identity
  kHelloAck = 2,       ///< worker -> coordinator: chosen version
  kAssignment = 3,     ///< coordinator -> worker: epoch, slices, vectors
  kAssignmentAck = 4,  ///< worker -> coordinator: epoch + slice counters
  kProbeBatch = 5,     ///< coordinator -> worker: batched ProbeRequests
  kResponseBatch = 6,  ///< worker -> coordinator: batched ProbeResponses
  kShutdown = 7,       ///< coordinator -> worker: orderly end of session
  kError = 8,          ///< either direction: fatal error, then close
  // 9 and 10 (v3's Reassignment pair) are retired and not reused.
  kStatsRequest = 11,    ///< scraper -> worker: ask for a metrics
                         ///< snapshot (empty payload)
  kStatsResponse = 12,   ///< worker -> scraper: the registry snapshot
  kShardAssignment = 13, ///< coordinator -> worker: serve a shard of
                         ///< the worker's pre-mapped frozen file
};

/// True iff \p type is one of the FrameType enumerators.
bool IsValidFrameType(uint8_t type);

/// \brief One decoded frame: its type plus the raw payload bytes. The
/// header's version byte is the connection's business (stamped from
/// FrameConnection::frame_version(), checked by DecodeFrameHeader).
struct Frame {
  FrameType type = FrameType::kError;
  std::vector<uint8_t> payload;
};

/// \brief A decoded frame header.
struct FrameHeader {
  uint8_t version = 0;
  FrameType type = FrameType::kError;
  uint32_t payload_length = 0;
};

/// Appends the 12-byte header for a \p type frame with
/// \p payload_length payload bytes, stamped with \p version.
void AppendFrameHeader(FrameType type, uint32_t payload_length,
                       uint8_t version, std::vector<uint8_t>* out);

/// Decodes and validates a frame header: magic, version within
/// [kVersionMin, kVersionMax], known type, reserved bits zero, payload
/// length <= kMaxFramePayload. \p bytes must hold >= kFrameHeaderBytes.
Status DecodeFrameHeader(std::span<const uint8_t> bytes, FrameHeader* out);

/// \brief Little-endian payload builder.
class PayloadWriter {
 public:
  void U8(uint8_t v);
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F64(double v);
  /// Appends \p count raw bytes.
  void Bytes(const void* data, size_t count);

  size_t size() const { return buf_.size(); }

  /// Surrenders the built payload.
  std::vector<uint8_t> Take() && { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// \brief Bounded little-endian payload reader.
///
/// Every accessor fails (without advancing past the end) when fewer
/// bytes remain than requested; remaining() is what decode routines
/// check counts against before allocating.
class PayloadReader {
 public:
  explicit PayloadReader(std::span<const uint8_t> data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U16(uint16_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F64(double* v);
  /// Copies \p count raw bytes into \p out.
  Status Bytes(void* out, size_t count);

  /// Bytes not yet consumed.
  size_t remaining() const { return data_.size() - pos_; }

  /// True iff every payload byte has been consumed (decoders require
  /// this, so trailing garbage is corruption, not slack).
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

/// \brief Hello: opens a session, proposes a version range.
struct HelloFrame {
  uint8_t min_version = kVersionMin;
  uint8_t max_version = kVersionMax;
  uint32_t worker_id = 0;    ///< plan slot this connection will serve
  uint32_t num_workers = 0;  ///< total workers in the plan
};

/// \brief HelloAck: the version the worker chose.
struct HelloAckFrame {
  uint8_t version = 0;       ///< highest version both sides support
  uint32_t worker_id = 0;    ///< echo of HelloFrame::worker_id
};

/// \brief A decoded Assignment: one worker's posting slice and the
/// build-side vectors it references, as the columnar arrays the worker
/// adopts.
///
/// The slice is over *positions*: a posting's position is the rank of
/// its VectorId among the shipped vector_ids, so each list keeps the
/// ascending order of the coordinator's slice. DecodeAssignment checks
/// only that the arrays fit the payload, and it derives both offset
/// arrays from the per-key and per-vector counts on the wire;
/// WorkerState::Apply (session.h) checks what the arrays mean before it
/// adopts them.
struct Assignment {
  double threshold = 0.0;
  Measure measure = Measure::kBraunBlanquet;
  /// The filter keys. Key k's positions are
  /// positions[offsets[k] .. offsets[k + 1]).
  std::vector<uint64_t> keys;
  std::vector<uint32_t> offsets = {0};
  std::vector<VectorId> positions;
  /// The shipped vectors' VectorIds. Vector v's items are
  /// items[item_offsets[v] .. item_offsets[v + 1]).
  std::vector<VectorId> vector_ids;
  std::vector<uint32_t> item_offsets = {0};
  std::vector<ItemId> items;
};

/// \brief AssignmentAck: the epoch and the counters of the slice as
/// shipped (not a table it was merged into), which the coordinator
/// cross-checks against the counters of the slice it encoded.
struct AssignmentAckFrame {
  uint32_t epoch = 0;             ///< echo of the assignment's epoch
  uint64_t num_keys = 0;          ///< keys shipped
  uint64_t num_entries = 0;       ///< positions (posting entries) shipped
  uint64_t distinct_vectors = 0;  ///< vectors shipped
};

/// \brief One decoded probe with owned storage (the wire-side twin of
/// ProbeRequest, whose items are a borrowed span).
struct OwnedProbe {
  VectorId left = 0;
  bool exclude_left_and_below = false;
  std::vector<ItemId> items;
  std::vector<uint64_t> keys;

  /// A ProbeRequest viewing this probe's storage (valid while the
  /// OwnedProbe lives and is not mutated).
  ProbeRequest View() const;
};

/// \brief A decoded ProbeBatch frame.
///
/// Every batch carries the coordinator's current session epoch and a
/// per-session strictly increasing sequence number; the worker rejects
/// any epoch but its current one (a stale coordinator after a
/// re-shipped assignment) and echoes both on the ResponseBatch — that
/// echo is the acknowledgement the coordinator's recovery replays
/// against.
struct ProbeBatch {
  uint32_t epoch = 0;
  uint64_t seq = 0;
  std::vector<OwnedProbe> probes;
};

/// \brief A decoded ResponseBatch frame.
struct ResponseBatch {
  uint32_t epoch = 0;  ///< echo of the answered ProbeBatch
  uint64_t seq = 0;    ///< echo of the answered ProbeBatch
  std::vector<ProbeResponse> responses;
};

/// \brief ShardAssignment: serve a shard of a pre-mapped file.
///
/// Replaces the Assignment for a worker that mapped an SKF2 frozen
/// file (`join-worker --shard-file`): instead of shipping posting
/// slices and vectors, the coordinator names the shard to serve and
/// the verification parameters. The worker cross-checks num_shards and
/// the dataset fingerprint against its own mapping — both sides must
/// hold byte-identical files — and answers with an AssignmentAck whose
/// counters (keys, entries, dataset size) the coordinator verifies
/// against its copy's section table, at epoch 0. Shard sessions reject
/// any later Assignment: a shard is not re-shippable state, the file
/// holds it.
struct ShardAssignmentFrame {
  uint32_t num_shards = 0;   ///< must equal the file's shard count
  uint32_t shard_index = 0;  ///< which shard this session serves
  uint64_t fingerprint = 0;  ///< dataset fingerprint stored in the file
  double threshold = 0.0;
  Measure measure = Measure::kBraunBlanquet;
};

/// \brief StatsResponse: a worker's metrics-registry snapshot.
///
/// The request (kStatsRequest, empty payload) may arrive in place of an
/// Assignment — a scrape-only session, what `join-stats` opens — or
/// interleaved with ProbeBatches on a serving session; either way the
/// worker answers with its whole obs registry and the session
/// continues.
struct StatsFrame {
  /// The scraped registry, sorted by metric name (the order
  /// MetricsRegistry::Snapshot() produces; the decoder enforces it).
  std::vector<obs::MetricSnapshot> metrics;
};

/// \brief Error frame: a Status crossing the wire.
struct ErrorFrame {
  uint16_t code = 0;     ///< Status::Code numeric value
  std::string message;
};

/// \name Frame encoders. Each returns a complete Frame (type + payload).
/// The assignment encoder writes the session \p epoch ahead of the
/// body; the probe/response encoders write the session \p epoch and
/// batch \p seq ahead of the batch.
/// @{
Frame EncodeHello(const HelloFrame& hello);
Frame EncodeHelloAck(const HelloAckFrame& ack);
/// The Assignment shipping \p slice, a posting table over \p build's
/// VectorIds, with the vectors it references. When \p ships_list is
/// set, only the lists k of \p slice it holds true for go, with only the
/// vectors they reference, so a caller ships part of a slice without
/// copying it. Written in one pass per array into a payload sized up
/// front: a bitmap over \p build marks the referenced ids, and each
/// posting id is written as its rank among them. \p shipped, if
/// non-null, receives the epoch and the counts of what the frame ships:
/// the AssignmentAck a worker that applies it answers.
Frame EncodeAssignment(const FilterTable& slice, const Dataset& build,
                       double threshold, Measure measure, uint32_t epoch = 0,
                       const std::function<bool(size_t)>& ships_list = {},
                       AssignmentAckFrame* shipped = nullptr);
Frame EncodeAssignmentAck(const AssignmentAckFrame& ack);
Frame EncodeProbeBatch(std::span<const ProbeRequest> batch,
                       uint32_t epoch = 0, uint64_t seq = 0);
Frame EncodeResponseBatch(std::span<const ProbeResponse> batch,
                          uint32_t epoch = 0, uint64_t seq = 0);
Frame EncodeStatsRequest();
Frame EncodeStatsResponse(const StatsFrame& stats);
Frame EncodeShardAssignment(const ShardAssignmentFrame& shard);
Frame EncodeShutdown();
Frame EncodeError(const Status& status);
/// @}

/// \name Frame decoders. Each checks the frame type, every field range
/// and bound, and that the payload is consumed exactly. The assignment
/// decoder stores the epoch the frame carries in \p epoch (if non-null).
/// @{
Status DecodeHello(const Frame& frame, HelloFrame* out);
Status DecodeHelloAck(const Frame& frame, HelloAckFrame* out);
Status DecodeAssignment(const Frame& frame, Assignment* out,
                        uint32_t* epoch = nullptr);
Status DecodeAssignmentAck(const Frame& frame, AssignmentAckFrame* out);
Status DecodeProbeBatch(const Frame& frame, ProbeBatch* out);
Status DecodeResponseBatch(const Frame& frame, ResponseBatch* out);
Status DecodeStatsResponse(const Frame& frame, StatsFrame* out);
Status DecodeShardAssignment(const Frame& frame, ShardAssignmentFrame* out);
Status DecodeError(const Frame& frame, ErrorFrame* out);
/// @}

/// Reconstructs the Status an Error frame carries (unknown codes map to
/// Status::Internal so a newer peer's error is never silently OK).
Status StatusFromError(const ErrorFrame& error);

}  // namespace wire
}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_TRANSPORT_WIRE_H_
