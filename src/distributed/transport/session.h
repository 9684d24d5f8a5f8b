// Copyright 2026 The skewsearch Authors.
// The coordinator/worker session protocol over any FrameConnection.
//
// A session is one ordered stream of frames (normatively specified,
// with the frame encodings, in docs/WIRE_PROTOCOL.md):
//
//   1. Handshake — the coordinator sends Hello (version range, worker
//      id, worker count); the worker answers HelloAck with the highest
//      version both sides support, or an Error frame when the ranges
//      are disjoint.
//   2. Assignments — an Assignment at epoch 0 ships the worker's
//      posting lists that can pair in a self-join, over positions, and
//      the build-side vectors they reference as columnar arrays (or a
//      ShardAssignment names a shard of a frozen file the worker
//      mapped); the worker validates the arrays, adopts them as its
//      table (WorkerState below) and answers AssignmentAck with the
//      epoch and counters the coordinator cross-checks, so a corrupted
//      or misrouted assignment fails instead of silently dropping
//      pairs. An Assignment at the next epoch is merged in: the first
//      R-S join ships the worker's one-id lists that way, and recovery
//      a lost worker's pairing lists.
//   3. Probes — ProbeBatch frames answered by ResponseBatch frames
//      (responses in request order, one per request), until Shutdown
//      ends the session in an orderly way. A self-join request names
//      the probe: the worker pairs it inside its own lists that hold it
//      and looks up only the keys the request ships, and it verifies
//      against its stored copy when the request ships no items. The
//      probe stream is pipelined: the coordinator may have several
//      batches in flight (SendProbeBatch / ReceiveResponses below), each
//      stamped with the session epoch and a sequence number the worker
//      echoes.
//
// A StatsRequest frame may arrive at any point (a scrape-only session
// — what `join-stats` opens via ScrapeWorkerStats below — sends nothing
// else); the worker answers with a StatsResponse carrying its
// metrics-registry snapshot and the session continues.
//
// Either side may send Error at any point and close; the other side
// surfaces it as the carried Status. The worker's answers are computed
// by the same JoinWorker used in-process, which is what keeps remote
// joins byte-identical to local ones.

#ifndef SKEWSEARCH_DISTRIBUTED_TRANSPORT_SESSION_H_
#define SKEWSEARCH_DISTRIBUTED_TRANSPORT_SESSION_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "distributed/messages.h"
#include "distributed/transport/transport.h"
#include "distributed/worker.h"
#include "obs/metrics.h"
#include "util/result.h"

namespace skewsearch {

class FrozenShardFile;

/// \brief Coordinator-side handle on one remote worker.
///
/// Created by Open(), which runs the handshake and sends the first
/// assignment, and acknowledged by Acknowledge(). Afterwards the probe
/// loop is pipelined (SendProbeBatch() / ReceiveResponses(), up to a
/// caller-chosen window of batches in flight so the round trip of one
/// batch is hidden behind the service time of the previous one). One
/// thread at a time uses a session (matching FrameConnection's
/// contract).
class RemoteWorkerSession {
 public:
  /// Runs the handshake as worker \p worker_id of \p num_workers, then
  /// sends \p assignment without waiting for its ack: an Assignment at
  /// epoch 0 (wire::EncodeAssignment), or a ShardAssignment naming the
  /// shard of the worker's pre-mapped SKF2 file this session serves.
  /// A coordinator opens every session before it acknowledges any, so
  /// its workers adopt their assignments side by side. On failure the
  /// connection is closed and the error returned: a HelloAck choosing a
  /// version outside [kVersionMin, kVersionMax] fails with
  /// NotSupported, one echoing another worker id with IOError.
  static Result<RemoteWorkerSession> Open(
      std::unique_ptr<FrameConnection> connection, uint32_t worker_id,
      uint32_t num_workers, const wire::Frame& assignment);

  /// Waits for the AssignmentAck of the assignment Open sent and
  /// cross-checks it against \p expected: the epoch and the keys,
  /// posting entries and vectors of the slice the frame was encoded
  /// from (for a shard, what the coordinator's own mapping of the same
  /// file records for it, and the dataset size). Closes the connection
  /// on failure.
  Status Acknowledge(const wire::AssignmentAckFrame& expected);

  RemoteWorkerSession(RemoteWorkerSession&&) = default;
  RemoteWorkerSession& operator=(RemoteWorkerSession&&) = default;

  /// Pipelined send half: ships one ProbeBatch stamped with the current
  /// epoch and the next sequence number without waiting for its
  /// response. The caller bounds how many are outstanding.
  Status SendProbeBatch(std::span<const ProbeRequest> batch);

  /// Pipelined receive half: blocks for the response of the *oldest*
  /// in-flight batch (responses arrive in send order) and validates the
  /// count, the per-response probe echo and the epoch/sequence echo.
  Result<std::vector<ProbeResponse>> ReceiveResponses();

  /// ProbeBatches sent whose responses have not been received yet.
  size_t in_flight() const { return in_flight_.size(); }

  /// Scrapes the worker's metrics registry: sends a StatsRequest and
  /// blocks for the StatsResponse. Requires no batch in flight (the
  /// response would be mistaken for a batch answer otherwise).
  Result<wire::StatsFrame> QueryStats();

  /// Ships this worker more lists (a deferred ship of one-id lists, or
  /// a lost worker's re-shipped pairing lists on a survivor):
  /// sends \p assignment, an Assignment frame at epoch() + 1, waits for
  /// the AssignmentAck and cross-checks it against \p expected, as
  /// Acknowledge does. Fails with InvalidArgument, sending nothing, when a
  /// batch is in flight or \p expected is not at epoch() + 1. After
  /// success every later batch is stamped with the new epoch.
  Status Reassign(const wire::Frame& assignment,
                  const wire::AssignmentAckFrame& expected);

  /// Sends Shutdown and closes; idempotent. The session is unusable
  /// afterwards.
  Status Shutdown();

  /// Traffic counters of the underlying connection.
  const WireStats& stats() const { return connection_->stats(); }

  uint32_t worker_id() const { return worker_id_; }

  /// The current session epoch (0 until the first Reassign succeeds).
  uint32_t epoch() const { return epoch_; }

 private:
  RemoteWorkerSession(std::unique_ptr<FrameConnection> connection,
                      uint32_t worker_id)
      : connection_(std::move(connection)), worker_id_(worker_id) {}

  /// What ReceiveResponses needs to validate one outstanding batch.
  struct InFlightBatch {
    uint64_t seq = 0;
    std::vector<VectorId> lefts;
  };

  std::unique_ptr<FrameConnection> connection_;
  uint32_t worker_id_ = 0;
  uint32_t epoch_ = 0;
  uint64_t next_seq_ = 0;
  std::deque<InFlightBatch> in_flight_;
  bool shut_down_ = false;
};

/// \brief The state a worker builds from its Assignments: the shipped
/// vectors, stored by position, and the JoinWorker over the slices.
///
/// The first Apply adopts the shipped arrays as they arrived: the table
/// is FilterTable::AdoptArrays over the shipped keys, offsets and
/// positions, and the vectors are stored in shipped order, so a shipped
/// position is a stored one. A later Apply (at the next epoch: the
/// worker's one-id lists, or a lost worker's pairing lists) merges the
/// held and the shipped vectors by VectorId, maps held and shipped
/// positions to merged ones through one array each, and builds the
/// table anew with FilterTable::Build over the held pairs and the
/// mapped shipped ones.
/// Either way the table equals FilterTable::Build over every applied
/// (key, stored position) pair.
/// ServeConnection keeps one per session; it is not thread-safe.
class WorkerState {
 public:
  explicit WorkerState(int worker_id) : worker_id_(worker_id) {}
  WorkerState(const WorkerState&) = delete;
  WorkerState& operator=(const WorkerState&) = delete;

  /// Validates \p assignment in one pass, then applies it. Fails with
  /// InvalidArgument, changing nothing, unless: the keys strictly
  /// increase; no posting list is empty; the counts sum to the number
  /// of positions; every position is below the vector count and none
  /// descends within its list; every shipped vector is referenced; and
  /// the vector ids, and each vector's items, strictly increase (the
  /// list in docs/WIRE_PROTOCOL.md, "Assignment").
  Status Apply(wire::Assignment assignment);

  /// The worker serving every applied slice; null before the first
  /// Apply succeeds.
  const JoinWorker* worker() const { return worker_ ? &*worker_ : nullptr; }

  /// The VectorId of each stored position.
  const std::vector<VectorId>& original_ids() const { return original_ids_; }

 private:
  int worker_id_;
  /// The stored vectors; a vector's position is its index here.
  Dataset data_;
  std::vector<VectorId> original_ids_;
  std::optional<JoinWorker> worker_;
};

/// \brief Worker-side counters of one served session.
struct WorkerServeStats {
  uint32_t worker_id = 0;        ///< plan slot assigned by the handshake
  uint64_t batches = 0;          ///< ProbeBatch frames answered
  uint64_t probes = 0;           ///< individual probes answered
  uint64_t matches = 0;          ///< verified pairs returned
  uint64_t posting_entries = 0;  ///< entries in the reconstructed table
  uint64_t reassignments = 0;    ///< Assignments applied at epoch > 0
  WireStats wire;                ///< connection traffic totals
};

/// \brief Worker-side serving knobs (all test/ops hooks; zero = off).
struct ServeOptions {
  /// Fault-injection hook for the kill-recovery smoke and tests: after
  /// answering this many ProbeBatch frames the worker drops the
  /// connection mid-stream (no Error frame, no Shutdown — exactly what
  /// a crashed process looks like to the coordinator) and returns
  /// Aborted. 0 disables.
  uint64_t fail_after_batches = 0;

  /// The registry this session records `worker.*` metrics into and
  /// answers StatsRequest frames from. Null means the process-wide
  /// MetricsRegistry::Global() — the production configuration; tests
  /// point it at a private registry to assert exact counts.
  obs::MetricsRegistry* metrics = nullptr;

  /// \name Frozen-shard serving (`join-worker --shard-file`).
  /// When both are set, a session may open with a ShardAssignment
  /// frame instead of an Assignment at epoch 0: the worker then serves
  /// the named shard zero-copy out of `frozen_file` (an SKF2 mapping
  /// shared read-only by every session) and verifies candidates against
  /// `frozen_data`, the full build-side dataset the file was frozen
  /// from. Classic Assignment sessions still work on the same worker.
  /// Both null = ship-everything serving only.
  /// @{
  const FrozenShardFile* frozen_file = nullptr;
  const Dataset* frozen_data = nullptr;
  /// @}
};

/// Serves one coordinator session on \p connection: accepts the
/// handshake, then answers frames until a Shutdown frame arrives
/// (returns OK) or the session fails (returns the error after sending a
/// best-effort Error frame). The first assignment (an Assignment at
/// epoch 0 or a ShardAssignment) builds a local JoinWorker over the
/// shipped slices and vectors; each later Assignment, at the current
/// epoch + 1, is added to its table (WorkerState); probe batches
/// stamped with the current epoch are answered. A self-join probe that
/// ships no items fails the session unless the worker stores it. Each
/// applied Assignment records its decode, validation and adoption or
/// rebuild time in the `worker.assignment_ns` histogram. This is the
/// per-connection body of the `join-worker` server
/// (distributed/server.h).
Status ServeConnection(FrameConnection* connection,
                       WorkerServeStats* stats = nullptr,
                       const ServeOptions& options = {});

/// Opens a scrape-only session on \p connection and returns the
/// worker's metrics snapshot: the same Hello handshake as Open (a
/// worker acking a version outside this build's range fails with
/// NotSupported), one StatsRequest/StatsResponse exchange, then
/// Shutdown; the connection is closed either way. This is what the
/// `join-stats` CLI command runs against a live `join-worker`; the
/// worker serves it as just another session, concurrently with any
/// joins in flight.
Result<wire::StatsFrame> ScrapeWorkerStats(FrameConnection* connection);

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_TRANSPORT_SESSION_H_
