#include "distributed/transport/session.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/frozen_shard.h"
#include "data/dataset.h"
#include "distributed/worker.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

/// Receives the next frame, unwrapping a peer Error frame into the
/// Status it carries.
Status ReceiveChecked(FrameConnection* connection, wire::Frame* frame) {
  SKEWSEARCH_RETURN_NOT_OK(connection->Receive(frame));
  if (frame->type == wire::FrameType::kError) {
    wire::ErrorFrame error;
    SKEWSEARCH_RETURN_NOT_OK(wire::DecodeError(*frame, &error));
    return wire::StatusFromError(error);
  }
  return Status::OK();
}

/// Worker-side failure path: best-effort Error frame, close, propagate.
Status FailSession(FrameConnection* connection, const Status& status) {
  (void)connection->Send(wire::EncodeError(status));
  connection->Close();
  return status;
}

/// The coordinator half of the handshake, shared by every session a
/// coordinator or scraper opens: sends Hello as worker \p worker_id of
/// \p num_workers and checks the HelloAck. A version outside
/// [kVersionMin, kVersionMax] fails with NotSupported, a wrong
/// worker-id echo with IOError.
Status Handshake(FrameConnection* connection, uint32_t worker_id,
                 uint32_t num_workers) {
  wire::HelloFrame hello;
  hello.worker_id = worker_id;
  hello.num_workers = num_workers;
  SKEWSEARCH_RETURN_NOT_OK(connection->Send(wire::EncodeHello(hello)));
  wire::Frame frame;
  SKEWSEARCH_RETURN_NOT_OK(ReceiveChecked(connection, &frame));
  wire::HelloAckFrame ack;
  SKEWSEARCH_RETURN_NOT_OK(wire::DecodeHelloAck(frame, &ack));
  if (ack.version < wire::kVersionMin || ack.version > wire::kVersionMax) {
    return Status::NotSupported(
        "session: worker chose protocol version " +
        std::to_string(ack.version) + ", this coordinator speaks " +
        std::to_string(wire::kVersionMin) + ".." +
        std::to_string(wire::kVersionMax));
  }
  if (ack.worker_id != worker_id) {
    return Status::IOError("session: handshake ack echoes worker " +
                           std::to_string(ack.worker_id) + ", expected " +
                           std::to_string(worker_id));
  }
  connection->set_frame_version(ack.version);
  return Status::OK();
}

/// Requires the next frame to be an AssignmentAck carrying exactly
/// \p expected: the epoch the assignment opens and the counters of what
/// was shipped.
Status ReceiveAssignmentAck(FrameConnection* connection,
                            const wire::AssignmentAckFrame& expected) {
  wire::Frame frame;
  SKEWSEARCH_RETURN_NOT_OK(ReceiveChecked(connection, &frame));
  wire::AssignmentAckFrame ack;
  SKEWSEARCH_RETURN_NOT_OK(wire::DecodeAssignmentAck(frame, &ack));
  if (ack.epoch != expected.epoch || ack.num_keys != expected.num_keys ||
      ack.num_entries != expected.num_entries ||
      ack.distinct_vectors != expected.distinct_vectors) {
    return Status::Internal(
        "session: worker acknowledged a different assignment than was "
        "sent (epoch " + std::to_string(ack.epoch) + "/" +
        std::to_string(expected.epoch) + ", keys " +
        std::to_string(ack.num_keys) + "/" +
        std::to_string(expected.num_keys) + ", entries " +
        std::to_string(ack.num_entries) + "/" +
        std::to_string(expected.num_entries) + ", vectors " +
        std::to_string(ack.distinct_vectors) + "/" +
        std::to_string(expected.distinct_vectors) + ")");
  }
  return Status::OK();
}

/// Checks what a decoded Assignment's arrays mean, one pass over each:
/// the rules WorkerState::Apply lists. Names the first broken one.
Status ValidateAssignment(const wire::Assignment& a) {
  auto invalid = [](const std::string& what) {
    return Status::InvalidArgument("session: assignment " + what);
  };
  const size_t num_keys = a.keys.size();
  if (a.offsets.size() != num_keys + 1 || a.offsets.front() != 0) {
    return invalid("offsets do not bracket its keys");
  }
  for (size_t k = 0; k < num_keys; ++k) {
    if (k > 0 && a.keys[k] <= a.keys[k - 1]) {
      return invalid("keys are not strictly increasing");
    }
    if (a.offsets[k + 1] <= a.offsets[k]) {
      return invalid("posting list " + std::to_string(k) + " is empty");
    }
  }
  if (a.offsets.back() != a.positions.size()) {
    return invalid("counts sum to " + std::to_string(a.offsets.back()) +
                   " but it holds " + std::to_string(a.positions.size()) +
                   " positions");
  }
  const size_t num_vectors = a.vector_ids.size();
  std::vector<uint8_t> referenced(num_vectors, 0);
  for (size_t k = 0; k < num_keys; ++k) {
    for (uint32_t i = a.offsets[k]; i < a.offsets[k + 1]; ++i) {
      const VectorId position = a.positions[i];
      if (position >= num_vectors) {
        return invalid("position " + std::to_string(position) +
                       " names no vector (it ships " +
                       std::to_string(num_vectors) + ")");
      }
      if (i > a.offsets[k] && position < a.positions[i - 1]) {
        return invalid("positions descend within posting list " +
                       std::to_string(k));
      }
      referenced[position] = 1;
    }
  }
  // Every item offset is checked before any item is read.
  if (a.item_offsets.size() != num_vectors + 1 ||
      a.item_offsets.front() != 0 || a.item_offsets.back() != a.items.size() ||
      !std::is_sorted(a.item_offsets.begin(), a.item_offsets.end())) {
    return invalid("item offsets do not bracket its items");
  }
  for (size_t v = 0; v < num_vectors; ++v) {
    if (referenced[v] == 0) {
      return invalid("ships vector " + std::to_string(a.vector_ids[v]) +
                     " but no posting references it");
    }
    if (v > 0 && a.vector_ids[v] <= a.vector_ids[v - 1]) {
      return invalid("vector ids are not strictly increasing");
    }
    for (uint32_t i = a.item_offsets[v] + 1; i < a.item_offsets[v + 1]; ++i) {
      if (a.items[i] <= a.items[i - 1]) {
        return invalid("vector " + std::to_string(a.vector_ids[v]) +
                       " has items that are not strictly increasing");
      }
    }
  }
  return Status::OK();
}

/// Serves the shard \p shard names zero-copy out of the worker's mapped
/// file in \p options, after cross-checking it against the mapping:
/// \p worker receives the JoinWorker and \p ack the counters the
/// coordinator verifies.
Status AdoptShard(const wire::ShardAssignmentFrame& shard,
                  const ServeOptions& options,
                  std::optional<JoinWorker>* worker,
                  wire::AssignmentAckFrame* ack) {
  if (options.frozen_file == nullptr || options.frozen_data == nullptr) {
    return Status::InvalidArgument(
        "session: ShardAssignment but this worker holds no mapped shard "
        "file (start it with --shard-file/--data)");
  }
  const FrozenShardFile& file = *options.frozen_file;
  const Dataset& full = *options.frozen_data;
  if (shard.num_shards != static_cast<uint32_t>(file.num_shards())) {
    return Status::InvalidArgument(
        "session: ShardAssignment names " +
        std::to_string(shard.num_shards) + " shard(s) but the mapped "
        "file holds " + std::to_string(file.num_shards()));
  }
  if (shard.fingerprint != file.fingerprint()) {
    return Status::InvalidArgument(
        "session: ShardAssignment fingerprint does not match the mapped "
        "shard file (different dataset or file)");
  }
  Result<FilterTable> view =
      file.MakeShardView(static_cast<int>(shard.shard_index));
  SKEWSEARCH_RETURN_NOT_OK(view.status());
  // The default Map does not check the payload's ids, and Probe reads
  // every id's vector.
  const std::span<const VectorId> ids = view->ids_span();
  const auto beyond =
      std::find_if(ids.begin(), ids.end(),
                   [&](VectorId id) { return id >= full.size(); });
  if (beyond != ids.end()) {
    return Status::InvalidArgument(
        "session: mapped shard references id " + std::to_string(*beyond) +
        " but the worker's dataset holds " + std::to_string(full.size()) +
        " vectors");
  }
  ack->num_keys = view->num_keys();
  ack->num_entries = view->num_pairs();
  ack->distinct_vectors = full.size();
  worker->emplace(static_cast<int>(shard.shard_index),
                  std::move(view).value(), &full, shard.threshold,
                  shard.measure);
  return Status::OK();
}

}  // namespace

Status WorkerState::Apply(wire::Assignment assignment) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateAssignment(assignment));
  wire::Assignment& a = assignment;
  auto shipped_items = [&a](size_t v) {
    return std::span<const ItemId>(a.items).subspan(
        a.item_offsets[v], a.item_offsets[v + 1] - a.item_offsets[v]);
  };
  // Vectors are stored densely (memory proportional to what was
  // shipped, never to the coordinator's id space) in ascending VectorId
  // order, so a list's positions ascend with its VectorIds.
  FilterTable table;
  if (!worker_) {
    // The first slice's vectors are stored in shipped order, which
    // ascends, so its positions are stored positions and its arrays are
    // the table.
    for (size_t v = 0; v < a.vector_ids.size(); ++v) {
      data_.Add(shipped_items(v));
    }
    original_ids_ = std::move(a.vector_ids);
    const Status adopted = table.AdoptArrays(
        std::move(a.keys), std::move(a.offsets), std::move(a.positions));
    assert(adopted.ok() && "validated offsets bracket the positions");
    (void)adopted;
  } else {
    // A re-ship merges the held and the shipped vectors by VectorId;
    // both ascend. A vector in both keeps one copy: its bytes are
    // identical by construction (both ships encode the same build-side
    // dataset), so verification cannot change. held_at and shipped_at
    // map the old positions and the shipped indexes to merged ones.
    Dataset data;
    std::vector<VectorId> ids;
    std::vector<VectorId> held_at(original_ids_.size());
    std::vector<VectorId> shipped_at(a.vector_ids.size());
    for (size_t h = 0, v = 0; h < held_at.size() || v < shipped_at.size();) {
      const bool held = v == shipped_at.size() ||
                        (h < held_at.size() &&
                         original_ids_[h] <= a.vector_ids[v]);
      const VectorId id = held ? original_ids_[h] : a.vector_ids[v];
      const auto position = static_cast<VectorId>(ids.size());
      ids.push_back(id);
      data.Add(held ? data_.Get(static_cast<VectorId>(h)) : shipped_items(v));
      if (held) held_at[h++] = position;
      if (v < shipped_at.size() && a.vector_ids[v] == id) {
        shipped_at[v++] = position;
      }
    }
    // The table over both: the held pairs and the re-shipped ones, at
    // their merged positions, built anew.
    const FilterTable& held_table = worker_->table();
    std::vector<Posting> postings;
    postings.reserve(held_table.num_pairs() + a.positions.size());
    for (size_t k = 0; k < held_table.num_keys(); ++k) {
      for (VectorId position : held_table.postings_at(k)) {
        postings.push_back({held_table.key_at(k), held_at[position]});
      }
    }
    for (size_t k = 0; k < a.keys.size(); ++k) {
      for (uint32_t i = a.offsets[k]; i < a.offsets[k + 1]; ++i) {
        postings.push_back({a.keys[k], shipped_at[a.positions[i]]});
      }
    }
    table = FilterTable::Build(std::move(postings));
    data_ = std::move(data);
    original_ids_ = std::move(ids);
  }
  worker_.emplace(worker_id_, std::move(table), &data_, a.threshold,
                  a.measure, &original_ids_);
  return Status::OK();
}

Result<RemoteWorkerSession> RemoteWorkerSession::Open(
    std::unique_ptr<FrameConnection> connection, uint32_t worker_id,
    uint32_t num_workers, const wire::Frame& assignment) {
  Status status = Handshake(connection.get(), worker_id, num_workers);
  if (status.ok()) status = connection->Send(assignment);
  if (!status.ok()) {
    connection->Close();
    return status;
  }
  return RemoteWorkerSession(std::move(connection), worker_id);
}

Status RemoteWorkerSession::Acknowledge(
    const wire::AssignmentAckFrame& expected) {
  const Status acked = ReceiveAssignmentAck(connection_.get(), expected);
  if (!acked.ok()) connection_->Close();
  return acked;
}

Status RemoteWorkerSession::SendProbeBatch(
    std::span<const ProbeRequest> batch) {
  if (shut_down_) return Status::InvalidArgument("session: already shut down");
  InFlightBatch record;
  record.seq = next_seq_;
  record.lefts.reserve(batch.size());
  for (const ProbeRequest& request : batch) {
    record.lefts.push_back(request.left);
  }
  SKEWSEARCH_RETURN_NOT_OK(
      connection_->Send(wire::EncodeProbeBatch(batch, epoch_, next_seq_)));
  next_seq_++;
  in_flight_.push_back(std::move(record));
  return Status::OK();
}

Result<std::vector<ProbeResponse>> RemoteWorkerSession::ReceiveResponses() {
  if (shut_down_) return Status::InvalidArgument("session: already shut down");
  if (in_flight_.empty()) {
    return Status::InvalidArgument("session: no probe batch in flight");
  }
  const InFlightBatch& oldest = in_flight_.front();
  wire::Frame frame;
  SKEWSEARCH_RETURN_NOT_OK(ReceiveChecked(connection_.get(), &frame));
  wire::ResponseBatch responses;
  SKEWSEARCH_RETURN_NOT_OK(wire::DecodeResponseBatch(frame, &responses));
  if (responses.epoch != epoch_ || responses.seq != oldest.seq) {
    return Status::IOError(
        "session: response echoes (epoch " + std::to_string(responses.epoch) +
        ", seq " + std::to_string(responses.seq) + ") but batch (epoch " +
        std::to_string(epoch_) + ", seq " + std::to_string(oldest.seq) +
        ") is the oldest in flight");
  }
  if (responses.responses.size() != oldest.lefts.size()) {
    return Status::IOError("session: response count does not match the "
                           "batch");
  }
  for (size_t i = 0; i < oldest.lefts.size(); ++i) {
    if (responses.responses[i].left != oldest.lefts[i]) {
      return Status::IOError("session: response order does not match the "
                             "batch");
    }
  }
  in_flight_.pop_front();
  return std::move(responses.responses);
}

Result<wire::StatsFrame> RemoteWorkerSession::QueryStats() {
  if (shut_down_) return Status::InvalidArgument("session: already shut down");
  if (!in_flight_.empty()) {
    return Status::InvalidArgument(
        "session: stats scrape requires no batch in flight");
  }
  SKEWSEARCH_RETURN_NOT_OK(connection_->Send(wire::EncodeStatsRequest()));
  wire::Frame frame;
  SKEWSEARCH_RETURN_NOT_OK(ReceiveChecked(connection_.get(), &frame));
  wire::StatsFrame stats;
  SKEWSEARCH_RETURN_NOT_OK(wire::DecodeStatsResponse(frame, &stats));
  return stats;
}

Status RemoteWorkerSession::Reassign(const wire::Frame& assignment,
                                     const wire::AssignmentAckFrame& expected) {
  if (shut_down_) return Status::InvalidArgument("session: already shut down");
  if (!in_flight_.empty()) {
    return Status::InvalidArgument(
        "session: reassignment requires no batch in flight");
  }
  if (expected.epoch != epoch_ + 1) {
    return Status::InvalidArgument(
        "session: reassignment at epoch " + std::to_string(expected.epoch) +
        " but the session is at epoch " + std::to_string(epoch_));
  }
  SKEWSEARCH_RETURN_NOT_OK(connection_->Send(assignment));
  SKEWSEARCH_RETURN_NOT_OK(ReceiveAssignmentAck(connection_.get(), expected));
  epoch_ = expected.epoch;
  return Status::OK();
}

Status RemoteWorkerSession::Shutdown() {
  if (shut_down_) return Status::OK();
  shut_down_ = true;
  Status sent = connection_->Send(wire::EncodeShutdown());
  connection_->Close();
  return sent;
}

Status ServeConnection(FrameConnection* connection, WorkerServeStats* stats,
                       const ServeOptions& options) {
  WorkerServeStats local;

  // The session's `worker.*` metrics (docs/OBSERVABILITY.md). Pointers
  // are looked up once per session; everything recorded in the probe
  // loop below is a relaxed atomic add, so serving stays wait-free.
  obs::MetricsRegistry& registry = options.metrics != nullptr
                                       ? *options.metrics
                                       : obs::MetricsRegistry::Global();
  obs::Counter* batches_metric = registry.GetCounter("worker.batches");
  obs::Counter* probes_metric = registry.GetCounter("worker.probes");
  obs::Counter* matches_metric = registry.GetCounter("worker.matches");
  obs::Counter* reassignments_metric =
      registry.GetCounter("worker.reassignments");
  obs::Counter* scrapes_metric = registry.GetCounter("worker.stats_scrapes");
  obs::Counter* bytes_sent_metric =
      registry.GetCounter("worker.wire.bytes_sent");
  obs::Counter* bytes_received_metric =
      registry.GetCounter("worker.wire.bytes_received");
  obs::Histogram* batch_time_metric = registry.GetHistogram("worker.batch_ns");
  obs::Histogram* assignment_time_metric =
      registry.GetHistogram("worker.assignment_ns");
  obs::Histogram* session_time_metric =
      registry.GetHistogram("worker.session_ns");
  Timer session_timer;
  // Connection traffic already folded into the byte counters; the
  // counters advance by deltas so a live scrape sees bytes as they
  // flow, not only at session end.
  WireStats reported;
  auto flush_wire = [&] {
    const WireStats now = connection->stats();
    bytes_sent_metric->Increment(now.bytes_sent - reported.bytes_sent);
    bytes_received_metric->Increment(now.bytes_received -
                                     reported.bytes_received);
    reported = now;
  };
  auto send = [&](const wire::Frame& reply) -> Status {
    Status sent = connection->Send(reply);
    flush_wire();
    return sent;
  };

  // The handshake: pick the highest mutually supported version.
  wire::Frame frame;
  SKEWSEARCH_RETURN_NOT_OK(connection->Receive(&frame));
  wire::HelloFrame hello;
  Status decoded = wire::DecodeHello(frame, &hello);
  if (!decoded.ok()) return FailSession(connection, decoded);
  if (hello.max_version < wire::kVersionMin ||
      hello.min_version > wire::kVersionMax) {
    return FailSession(
        connection,
        Status::NotSupported(
            "session: no common protocol version (peer speaks " +
            std::to_string(hello.min_version) + ".." +
            std::to_string(hello.max_version) + ", this worker " +
            std::to_string(wire::kVersionMin) + ".." +
            std::to_string(wire::kVersionMax) + ")"));
  }
  wire::HelloAckFrame ack;
  ack.version = std::min(hello.max_version, wire::kVersionMax);
  ack.worker_id = hello.worker_id;
  local.worker_id = hello.worker_id;
  // The ack and everything after it travel under the chosen version
  // (overlap was verified above, so the coordinator accepts it).
  connection->set_frame_version(ack.version);
  SKEWSEARCH_RETURN_NOT_OK(connection->Send(wire::EncodeHelloAck(ack)));

  // After the handshake, one frame loop. The first assignment builds
  // the JoinWorker: an Assignment at epoch 0 adopts the shipped arrays
  // as a worker that answers exactly as the in-process one does (its
  // table over positions, not ids), and a ShardAssignment serves a
  // shard of the worker's mapped frozen file. Each later Assignment, at
  // the current epoch + 1, adds a lost worker's re-shipped slices to
  // the table. StatsRequest frames are answered at any point, so a
  // scraper's session is its scrapes and a Shutdown.
  //
  // Responses are computed and sent strictly in frame-arrival order,
  // which is what lets the coordinator pipeline batches: the k-th
  // response always answers the k-th outstanding batch. A replayed
  // (duplicate-delivered) batch is recomputed from scratch against
  // read-only state, so its response is identical — answering is
  // idempotent by construction. The dedup scratch carries nothing from
  // one probe to the next.
  WorkerState state(static_cast<int>(hello.worker_id));
  std::optional<JoinWorker> shard_worker;  // set by a ShardAssignment
  const JoinWorker* serving = nullptr;     // null until assigned
  uint32_t epoch = 0;
  std::vector<ProbeResponse> responses;
  ProbeScratch scratch;
  auto send_ack = [&](const wire::AssignmentAckFrame& ack) -> Status {
    local.posting_entries = serving->num_entries();
    return send(wire::EncodeAssignmentAck(ack));
  };
  // Serves one frame other than Shutdown; an error fails the session.
  auto serve = [&]() -> Status {
    switch (frame.type) {
      case wire::FrameType::kStatsRequest: {
        scrapes_metric->Increment();
        wire::StatsFrame snapshot;
        snapshot.metrics = registry.Snapshot();
        return send(wire::EncodeStatsResponse(snapshot));
      }
      case wire::FrameType::kShardAssignment: {
        if (serving != nullptr) {
          return Status::InvalidArgument(
              "session: ShardAssignment after the first assignment");
        }
        wire::ShardAssignmentFrame shard;
        SKEWSEARCH_RETURN_NOT_OK(wire::DecodeShardAssignment(frame, &shard));
        wire::AssignmentAckFrame ack;
        SKEWSEARCH_RETURN_NOT_OK(
            AdoptShard(shard, options, &shard_worker, &ack));
        serving = &*shard_worker;
        return send_ack(ack);
      }
      case wire::FrameType::kAssignment: {
        if (shard_worker) {
          // A mapped shard is not re-shippable state: its postings live
          // in the file, disjoint from every other shard's, so adopting
          // a lost worker's slice has no representation here. The
          // coordinator treats this as an unrecoverable worker loss.
          return Status::NotSupported(
              "session: a frozen-shard session cannot adopt reassigned "
              "slices");
        }
        Timer assignment_timer;
        wire::Assignment assignment;
        wire::AssignmentAckFrame ack;
        SKEWSEARCH_RETURN_NOT_OK(
            wire::DecodeAssignment(frame, &assignment, &ack.epoch));
        // The decoded arrays hold everything now; the payload would only
        // double the memory the adoption needs.
        frame.payload = std::vector<uint8_t>();
        const bool reassigned = serving != nullptr;
        const uint32_t expected = reassigned ? epoch + 1 : 0;
        if (ack.epoch != expected) {
          return Status::InvalidArgument(
              "session: assignment at epoch " + std::to_string(ack.epoch) +
              " but this worker expects epoch " + std::to_string(expected));
        }
        ack.num_keys = assignment.keys.size();
        ack.num_entries = assignment.positions.size();
        ack.distinct_vectors = assignment.vector_ids.size();
        SKEWSEARCH_RETURN_NOT_OK(state.Apply(std::move(assignment)));
        assignment_time_metric->Record(
            static_cast<uint64_t>(assignment_timer.ElapsedNanos()));
        serving = state.worker();
        if (reassigned) {
          local.reassignments++;
          reassignments_metric->Increment();
        }
        epoch = ack.epoch;
        return send_ack(ack);
      }
      case wire::FrameType::kProbeBatch:
        break;
      default:
        return Status::InvalidArgument(
            "session: unexpected frame type " +
            std::to_string(static_cast<int>(frame.type)));
    }
    if (serving == nullptr) {
      return Status::InvalidArgument(
          "session: probe batch before any assignment");
    }
    wire::ProbeBatch batch;
    SKEWSEARCH_RETURN_NOT_OK(wire::DecodeProbeBatch(frame, &batch));
    if (batch.epoch != epoch) {
      return Status::InvalidArgument(
          "session: probe batch stamped epoch " +
          std::to_string(batch.epoch) + " but this worker is at epoch " +
          std::to_string(epoch));
    }
    Timer batch_timer;
    uint64_t batch_matches = 0;
    responses.clear();
    responses.reserve(batch.probes.size());
    for (const wire::OwnedProbe& probe : batch.probes) {
      if (probe.exclude_left_and_below && probe.items.empty() &&
          !serving->Stores(probe.left)) {
        return Status::InvalidArgument(
            "session: self-join probe " + std::to_string(probe.left) +
            " ships no items and this worker stores no copy of it");
      }
      responses.push_back(serving->Probe(probe.View(), &scratch));
      batch_matches += responses.back().matches.size();
    }
    local.matches += batch_matches;
    local.batches++;
    local.probes += batch.probes.size();
    SKEWSEARCH_RETURN_NOT_OK(
        send(wire::EncodeResponseBatch(responses, batch.epoch, batch.seq)));
    batch_time_metric->Record(
        static_cast<uint64_t>(batch_timer.ElapsedNanos()));
    batches_metric->Increment();
    probes_metric->Increment(batch.probes.size());
    matches_metric->Increment(batch_matches);
    return Status::OK();
  };
  for (;;) {
    SKEWSEARCH_RETURN_NOT_OK(ReceiveChecked(connection, &frame));
    if (frame.type == wire::FrameType::kShutdown) {
      session_time_metric->Record(
          static_cast<uint64_t>(session_timer.ElapsedNanos()));
      flush_wire();
      local.wire = connection->stats();
      if (stats != nullptr) *stats = local;
      return Status::OK();
    }
    Status served = serve();
    if (!served.ok()) return FailSession(connection, served);
    if (options.fail_after_batches > 0 &&
        local.batches >= options.fail_after_batches) {
      // Simulated crash: vanish mid-stream without Error or Shutdown.
      connection->Close();
      if (stats != nullptr) *stats = local;
      return Status::Aborted("session: dropped by fail_after_batches");
    }
  }
}

Result<wire::StatsFrame> ScrapeWorkerStats(FrameConnection* connection) {
  // Scrape-only sessions identify as worker 0 of 1 — the slot is never
  // used because no Assignment follows.
  wire::StatsFrame stats;
  const Status scraped = [&]() -> Status {
    SKEWSEARCH_RETURN_NOT_OK(Handshake(connection, 0, 1));
    SKEWSEARCH_RETURN_NOT_OK(connection->Send(wire::EncodeStatsRequest()));
    wire::Frame frame;
    SKEWSEARCH_RETURN_NOT_OK(ReceiveChecked(connection, &frame));
    SKEWSEARCH_RETURN_NOT_OK(wire::DecodeStatsResponse(frame, &stats));
    (void)connection->Send(wire::EncodeShutdown());
    return Status::OK();
  }();
  connection->Close();
  SKEWSEARCH_RETURN_NOT_OK(scraped);
  return stats;
}

}  // namespace skewsearch
