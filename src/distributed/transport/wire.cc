#include "distributed/transport/wire.h"

#include <cmath>
#include <cstring>

namespace skewsearch {
namespace wire {

namespace {

/// Smallest possible encodings of the variable-count elements; counts
/// are bounded by remaining / these before any allocation.
constexpr size_t kMinPostingBytes = 12;   // u64 key + u32 count
constexpr size_t kMinVectorBytes = 8;     // u32 id + u32 count
constexpr size_t kMinProbeBytes = 13;     // u32 + u8 + u32 + u32
constexpr size_t kMinResponseBytes = 24;  // u32 + u64 + u64 + u32
constexpr size_t kMatchBytes = 12;        // u32 id + f64 similarity
constexpr size_t kMinMetricBytes = 12;    // u16 len + 1 name + u8 + u64
constexpr size_t kMetricBucketBytes = 9;  // u8 index + u64 count

Status Corrupt(const char* what) {
  return Status::IOError(std::string("wire: ") + what);
}

Status ExpectType(const Frame& frame, FrameType type, const char* name) {
  if (frame.type != type) {
    return Corrupt((std::string(name) + " decoder got a different frame "
                    "type").c_str());
  }
  return Status::OK();
}

Status ExpectConsumed(const PayloadReader& reader, const char* name) {
  if (!reader.AtEnd()) {
    return Corrupt((std::string(name) + " payload has trailing bytes")
                       .c_str());
  }
  return Status::OK();
}

/// Reads a count field and bounds it: each counted element occupies at
/// least \p min_element_bytes of the remaining payload.
Status BoundedCount(PayloadReader* reader, size_t min_element_bytes,
                    const char* what, uint32_t* count) {
  SKEWSEARCH_RETURN_NOT_OK(reader->U32(count));
  if (*count > reader->remaining() / min_element_bytes) {
    return Corrupt((std::string(what) + " count exceeds the payload")
                       .c_str());
  }
  return Status::OK();
}

}  // namespace

bool IsValidFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kAssignment:
    case FrameType::kAssignmentAck:
    case FrameType::kProbeBatch:
    case FrameType::kResponseBatch:
    case FrameType::kShutdown:
    case FrameType::kError:
    case FrameType::kStatsRequest:
    case FrameType::kStatsResponse:
    case FrameType::kShardAssignment:
      return true;
  }
  return false;  // includes 9 and 10, v3's retired Reassignment pair
}

void AppendFrameHeader(FrameType type, uint32_t payload_length,
                       uint8_t version, std::vector<uint8_t>* out) {
  PayloadWriter writer;
  writer.U32(kMagic);
  writer.U8(version);
  writer.U8(static_cast<uint8_t>(type));
  writer.U16(0);  // reserved
  writer.U32(payload_length);
  std::vector<uint8_t> header = std::move(writer).Take();
  out->insert(out->end(), header.begin(), header.end());
}

Status DecodeFrameHeader(std::span<const uint8_t> bytes, FrameHeader* out) {
  PayloadReader reader(bytes);
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  uint16_t reserved = 0;
  uint32_t length = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&magic));
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&version));
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&type));
  SKEWSEARCH_RETURN_NOT_OK(reader.U16(&reserved));
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&length));
  if (magic != kMagic) return Corrupt("bad frame magic");
  if (version < kVersionMin || version > kVersionMax) {
    return Corrupt("unsupported protocol version");
  }
  if (!IsValidFrameType(type)) return Corrupt("unknown frame type");
  if (reserved != 0) return Corrupt("reserved header bits set");
  if (length > kMaxFramePayload) {
    return Corrupt("frame payload length exceeds the limit");
  }
  out->version = version;
  out->type = static_cast<FrameType>(type);
  out->payload_length = length;
  return Status::OK();
}

void PayloadWriter::U8(uint8_t v) { buf_.push_back(v); }

void PayloadWriter::U16(uint16_t v) { Bytes(&v, sizeof(v)); }

void PayloadWriter::U32(uint32_t v) { Bytes(&v, sizeof(v)); }

void PayloadWriter::U64(uint64_t v) { Bytes(&v, sizeof(v)); }

void PayloadWriter::F64(double v) { Bytes(&v, sizeof(v)); }

void PayloadWriter::Bytes(const void* data, size_t count) {
  if (count == 0) return;  // an empty vector's data() may be null
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), bytes, bytes + count);
}

Status PayloadReader::U8(uint8_t* v) { return Bytes(v, sizeof(*v)); }

Status PayloadReader::U16(uint16_t* v) { return Bytes(v, sizeof(*v)); }

Status PayloadReader::U32(uint32_t* v) { return Bytes(v, sizeof(*v)); }

Status PayloadReader::U64(uint64_t* v) { return Bytes(v, sizeof(*v)); }

Status PayloadReader::F64(double* v) { return Bytes(v, sizeof(*v)); }

Status PayloadReader::Bytes(void* out, size_t count) {
  if (count > remaining()) return Corrupt("payload truncated");
  if (count > 0) {  // an empty destination's data() may be null
    std::memcpy(out, data_.data() + pos_, count);
    pos_ += count;
  }
  return Status::OK();
}

ProbeRequest OwnedProbe::View() const {
  ProbeRequest request;
  request.left = left;
  request.items = std::span<const ItemId>(items.data(), items.size());
  request.exclude_left_and_below = exclude_left_and_below;
  request.keys = keys;
  return request;
}

Frame EncodeHello(const HelloFrame& hello) {
  PayloadWriter writer;
  writer.U8(hello.min_version);
  writer.U8(hello.max_version);
  writer.U32(hello.worker_id);
  writer.U32(hello.num_workers);
  return {FrameType::kHello, std::move(writer).Take()};
}

Status DecodeHello(const Frame& frame, HelloFrame* out) {
  SKEWSEARCH_RETURN_NOT_OK(ExpectType(frame, FrameType::kHello, "Hello"));
  PayloadReader reader(frame.payload);
  HelloFrame hello;
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&hello.min_version));
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&hello.max_version));
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&hello.worker_id));
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&hello.num_workers));
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "Hello"));
  if (hello.min_version == 0 || hello.min_version > hello.max_version) {
    return Corrupt("Hello carries an empty version range");
  }
  if (hello.num_workers == 0 || hello.worker_id >= hello.num_workers) {
    return Corrupt("Hello worker id out of range");
  }
  *out = std::move(hello);
  return Status::OK();
}

Frame EncodeHelloAck(const HelloAckFrame& ack) {
  PayloadWriter writer;
  writer.U8(ack.version);
  writer.U32(ack.worker_id);
  return {FrameType::kHelloAck, std::move(writer).Take()};
}

Status DecodeHelloAck(const Frame& frame, HelloAckFrame* out) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kHelloAck, "HelloAck"));
  PayloadReader reader(frame.payload);
  HelloAckFrame ack;
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&ack.version));
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&ack.worker_id));
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "HelloAck"));
  if (ack.version == 0) return Corrupt("HelloAck chose version 0");
  *out = ack;
  return Status::OK();
}

Frame EncodeAssignment(const WorkerAssignment& assignment, uint32_t epoch) {
  PayloadWriter writer;
  writer.U32(epoch);
  writer.F64(assignment.threshold);
  writer.U8(static_cast<uint8_t>(assignment.measure));
  writer.U32(static_cast<uint32_t>(assignment.postings.size()));
  for (const auto& [key, ids] : assignment.postings) {
    writer.U64(key);
    writer.U32(static_cast<uint32_t>(ids.size()));
    writer.Bytes(ids.data(), ids.size() * sizeof(VectorId));
  }
  writer.U32(static_cast<uint32_t>(assignment.vectors.size()));
  for (const auto& [id, items] : assignment.vectors) {
    writer.U32(id);
    writer.U32(static_cast<uint32_t>(items.size()));
    writer.Bytes(items.data(), items.size() * sizeof(ItemId));
  }
  return {FrameType::kAssignment, std::move(writer).Take()};
}

Status DecodeAssignment(const Frame& frame, WorkerAssignment* out,
                        uint32_t* epoch) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kAssignment, "Assignment"));
  PayloadReader reader(frame.payload);
  uint32_t frame_epoch = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&frame_epoch));
  WorkerAssignment assignment;
  SKEWSEARCH_RETURN_NOT_OK(reader.F64(&assignment.threshold));
  if (!std::isfinite(assignment.threshold)) {
    return Corrupt("Assignment threshold is not finite");
  }
  uint8_t measure = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&measure));
  if (measure > static_cast<uint8_t>(Measure::kCosine)) {
    return Corrupt("Assignment measure out of range");
  }
  assignment.measure = static_cast<Measure>(measure);

  uint32_t num_keys = 0;
  SKEWSEARCH_RETURN_NOT_OK(
      BoundedCount(&reader, kMinPostingBytes, "Assignment key", &num_keys));
  assignment.postings.reserve(num_keys);
  uint64_t previous_key = 0;
  for (uint32_t k = 0; k < num_keys; ++k) {
    uint64_t key = 0;
    uint32_t count = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U64(&key));
    if (k > 0 && key <= previous_key) {
      return Corrupt("Assignment keys are not strictly increasing");
    }
    previous_key = key;
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&count));
    if (count == 0) return Corrupt("Assignment posting list is empty");
    if (count > reader.remaining() / sizeof(VectorId)) {
      return Corrupt("Assignment posting count exceeds the payload");
    }
    std::vector<VectorId> ids(count);
    SKEWSEARCH_RETURN_NOT_OK(
        reader.Bytes(ids.data(), count * sizeof(VectorId)));
    assignment.postings.emplace_back(key, std::move(ids));
  }

  uint32_t num_vectors = 0;
  SKEWSEARCH_RETURN_NOT_OK(BoundedCount(&reader, kMinVectorBytes,
                                        "Assignment vector", &num_vectors));
  assignment.vectors.reserve(num_vectors);
  for (uint32_t v = 0; v < num_vectors; ++v) {
    uint32_t id = 0;
    uint32_t count = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&id));
    if (v > 0 && id <= assignment.vectors.back().first) {
      return Corrupt("Assignment vector ids are not strictly increasing");
    }
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&count));
    if (count > reader.remaining() / sizeof(ItemId)) {
      return Corrupt("Assignment item count exceeds the payload");
    }
    std::vector<ItemId> items(count);
    SKEWSEARCH_RETURN_NOT_OK(
        reader.Bytes(items.data(), count * sizeof(ItemId)));
    for (size_t i = 1; i < items.size(); ++i) {
      if (items[i] <= items[i - 1]) {
        return Corrupt("Assignment vector items are not strictly "
                       "increasing");
      }
    }
    assignment.vectors.emplace_back(id, std::move(items));
  }
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "Assignment"));
  *out = std::move(assignment);
  if (epoch != nullptr) *epoch = frame_epoch;
  return Status::OK();
}

Frame EncodeAssignmentAck(const AssignmentAckFrame& ack) {
  PayloadWriter writer;
  writer.U32(ack.epoch);
  writer.U64(ack.num_keys);
  writer.U64(ack.num_entries);
  writer.U64(ack.distinct_vectors);
  return {FrameType::kAssignmentAck, std::move(writer).Take()};
}

Status DecodeAssignmentAck(const Frame& frame, AssignmentAckFrame* out) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kAssignmentAck, "AssignmentAck"));
  PayloadReader reader(frame.payload);
  AssignmentAckFrame ack;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&ack.epoch));
  SKEWSEARCH_RETURN_NOT_OK(reader.U64(&ack.num_keys));
  SKEWSEARCH_RETURN_NOT_OK(reader.U64(&ack.num_entries));
  SKEWSEARCH_RETURN_NOT_OK(reader.U64(&ack.distinct_vectors));
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "AssignmentAck"));
  *out = ack;
  return Status::OK();
}

Frame EncodeProbeBatch(std::span<const ProbeRequest> batch, uint32_t epoch,
                       uint64_t seq) {
  PayloadWriter writer;
  writer.U32(epoch);
  writer.U64(seq);
  writer.U32(static_cast<uint32_t>(batch.size()));
  for (const ProbeRequest& request : batch) {
    writer.U32(request.left);
    writer.U8(request.exclude_left_and_below ? 1 : 0);
    writer.U32(static_cast<uint32_t>(request.items.size()));
    writer.Bytes(request.items.data(), request.items.size() * sizeof(ItemId));
    writer.U32(static_cast<uint32_t>(request.keys.size()));
    writer.Bytes(request.keys.data(), request.keys.size() * sizeof(uint64_t));
  }
  return {FrameType::kProbeBatch, std::move(writer).Take()};
}

Status DecodeProbeBatch(const Frame& frame, ProbeBatch* out) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kProbeBatch, "ProbeBatch"));
  PayloadReader reader(frame.payload);
  ProbeBatch batch;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&batch.epoch));
  SKEWSEARCH_RETURN_NOT_OK(reader.U64(&batch.seq));
  uint32_t count = 0;
  SKEWSEARCH_RETURN_NOT_OK(
      BoundedCount(&reader, kMinProbeBytes, "ProbeBatch probe", &count));
  batch.probes.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    OwnedProbe probe;
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&probe.left));
    uint8_t flags = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U8(&flags));
    if (flags > 1) return Corrupt("ProbeBatch has unknown flag bits");
    probe.exclude_left_and_below = flags != 0;
    uint32_t num_items = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&num_items));
    if (num_items > reader.remaining() / sizeof(ItemId)) {
      return Corrupt("ProbeBatch item count exceeds the payload");
    }
    probe.items.resize(num_items);
    SKEWSEARCH_RETURN_NOT_OK(
        reader.Bytes(probe.items.data(), num_items * sizeof(ItemId)));
    // The intersection kernels and the size bound both assume a set.
    for (size_t j = 1; j < probe.items.size(); ++j) {
      if (probe.items[j] <= probe.items[j - 1]) {
        return Corrupt("ProbeBatch items are not strictly increasing");
      }
    }
    uint32_t num_keys = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&num_keys));
    if (num_keys > reader.remaining() / sizeof(uint64_t)) {
      return Corrupt("ProbeBatch key count exceeds the payload");
    }
    probe.keys.resize(num_keys);
    SKEWSEARCH_RETURN_NOT_OK(
        reader.Bytes(probe.keys.data(), num_keys * sizeof(uint64_t)));
    batch.probes.push_back(std::move(probe));
  }
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "ProbeBatch"));
  *out = std::move(batch);
  return Status::OK();
}

Frame EncodeResponseBatch(std::span<const ProbeResponse> batch,
                          uint32_t epoch, uint64_t seq) {
  PayloadWriter writer;
  writer.U32(epoch);
  writer.U64(seq);
  writer.U32(static_cast<uint32_t>(batch.size()));
  for (const ProbeResponse& response : batch) {
    writer.U32(response.left);
    writer.U64(response.candidates);
    writer.U64(response.verifications);
    writer.U32(static_cast<uint32_t>(response.matches.size()));
    for (const Match& match : response.matches) {
      writer.U32(match.id);
      writer.F64(match.similarity);
    }
  }
  return {FrameType::kResponseBatch, std::move(writer).Take()};
}

Status DecodeResponseBatch(const Frame& frame, ResponseBatch* out) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kResponseBatch, "ResponseBatch"));
  PayloadReader reader(frame.payload);
  ResponseBatch batch;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&batch.epoch));
  SKEWSEARCH_RETURN_NOT_OK(reader.U64(&batch.seq));
  uint32_t count = 0;
  SKEWSEARCH_RETURN_NOT_OK(BoundedCount(&reader, kMinResponseBytes,
                                        "ResponseBatch response", &count));
  batch.responses.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ProbeResponse response;
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&response.left));
    SKEWSEARCH_RETURN_NOT_OK(reader.U64(&response.candidates));
    SKEWSEARCH_RETURN_NOT_OK(reader.U64(&response.verifications));
    uint32_t num_matches = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U32(&num_matches));
    if (num_matches > reader.remaining() / kMatchBytes) {
      return Corrupt("ResponseBatch match count exceeds the payload");
    }
    response.matches.reserve(num_matches);
    for (uint32_t m = 0; m < num_matches; ++m) {
      Match match{0, 0.0};
      SKEWSEARCH_RETURN_NOT_OK(reader.U32(&match.id));
      SKEWSEARCH_RETURN_NOT_OK(reader.F64(&match.similarity));
      response.matches.push_back(match);
    }
    batch.responses.push_back(std::move(response));
  }
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "ResponseBatch"));
  *out = std::move(batch);
  return Status::OK();
}

Frame EncodeStatsRequest() { return {FrameType::kStatsRequest, {}}; }

Frame EncodeStatsResponse(const StatsFrame& stats) {
  PayloadWriter writer;
  writer.U32(static_cast<uint32_t>(stats.metrics.size()));
  for (const obs::MetricSnapshot& metric : stats.metrics) {
    writer.U16(static_cast<uint16_t>(metric.name.size()));
    writer.Bytes(metric.name.data(), metric.name.size());
    writer.U8(static_cast<uint8_t>(metric.kind));
    switch (metric.kind) {
      case obs::MetricKind::kCounter:
        writer.U64(metric.counter_value);
        break;
      case obs::MetricKind::kGauge:
        writer.U64(static_cast<uint64_t>(metric.gauge_value));
        break;
      case obs::MetricKind::kHistogram: {
        const obs::HistogramData& h = metric.histogram;
        writer.U64(h.count);
        writer.U64(h.sum);
        writer.U64(h.max);
        writer.U8(static_cast<uint8_t>(h.buckets.size()));
        for (const auto& [index, bucket_count] : h.buckets) {
          writer.U8(index);
          writer.U64(bucket_count);
        }
        break;
      }
    }
  }
  return {FrameType::kStatsResponse, std::move(writer).Take()};
}

Status DecodeStatsResponse(const Frame& frame, StatsFrame* out) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kStatsResponse, "StatsResponse"));
  PayloadReader reader(frame.payload);
  StatsFrame stats;
  uint32_t count = 0;
  SKEWSEARCH_RETURN_NOT_OK(
      BoundedCount(&reader, kMinMetricBytes, "StatsResponse metric", &count));
  stats.metrics.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::MetricSnapshot metric;
    uint16_t name_length = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U16(&name_length));
    if (name_length == 0) {
      return Corrupt("StatsResponse metric name is empty");
    }
    if (name_length > reader.remaining()) {
      return Corrupt("StatsResponse metric name exceeds the payload");
    }
    metric.name.resize(name_length);
    SKEWSEARCH_RETURN_NOT_OK(reader.Bytes(metric.name.data(), name_length));
    if (i > 0 && metric.name <= stats.metrics.back().name) {
      return Corrupt("StatsResponse metrics are not strictly increasing "
                     "by name");
    }
    uint8_t kind = 0;
    SKEWSEARCH_RETURN_NOT_OK(reader.U8(&kind));
    if (kind > static_cast<uint8_t>(obs::MetricKind::kHistogram)) {
      return Corrupt("StatsResponse metric kind out of range");
    }
    metric.kind = static_cast<obs::MetricKind>(kind);
    switch (metric.kind) {
      case obs::MetricKind::kCounter:
        SKEWSEARCH_RETURN_NOT_OK(reader.U64(&metric.counter_value));
        break;
      case obs::MetricKind::kGauge: {
        uint64_t raw = 0;
        SKEWSEARCH_RETURN_NOT_OK(reader.U64(&raw));
        metric.gauge_value = static_cast<int64_t>(raw);
        break;
      }
      case obs::MetricKind::kHistogram: {
        obs::HistogramData& h = metric.histogram;
        SKEWSEARCH_RETURN_NOT_OK(reader.U64(&h.count));
        SKEWSEARCH_RETURN_NOT_OK(reader.U64(&h.sum));
        SKEWSEARCH_RETURN_NOT_OK(reader.U64(&h.max));
        uint8_t num_buckets = 0;
        SKEWSEARCH_RETURN_NOT_OK(reader.U8(&num_buckets));
        if (num_buckets > obs::Histogram::kNumBuckets ||
            num_buckets > reader.remaining() / kMetricBucketBytes) {
          return Corrupt("StatsResponse bucket count exceeds the payload");
        }
        h.buckets.reserve(num_buckets);
        for (uint8_t b = 0; b < num_buckets; ++b) {
          uint8_t index = 0;
          uint64_t bucket_count = 0;
          SKEWSEARCH_RETURN_NOT_OK(reader.U8(&index));
          if (index >= obs::Histogram::kNumBuckets) {
            return Corrupt("StatsResponse bucket index out of range");
          }
          if (b > 0 && index <= h.buckets.back().first) {
            return Corrupt("StatsResponse bucket indexes are not strictly "
                           "increasing");
          }
          SKEWSEARCH_RETURN_NOT_OK(reader.U64(&bucket_count));
          if (bucket_count == 0) {
            return Corrupt("StatsResponse bucket has a zero count");
          }
          h.buckets.emplace_back(index, bucket_count);
        }
        break;
      }
    }
    stats.metrics.push_back(std::move(metric));
  }
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "StatsResponse"));
  *out = std::move(stats);
  return Status::OK();
}

Frame EncodeShardAssignment(const ShardAssignmentFrame& shard) {
  PayloadWriter writer;
  writer.U32(shard.num_shards);
  writer.U32(shard.shard_index);
  writer.U64(shard.fingerprint);
  writer.F64(shard.threshold);
  writer.U8(static_cast<uint8_t>(shard.measure));
  return {FrameType::kShardAssignment, std::move(writer).Take()};
}

Status DecodeShardAssignment(const Frame& frame, ShardAssignmentFrame* out) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kShardAssignment, "ShardAssignment"));
  PayloadReader reader(frame.payload);
  ShardAssignmentFrame shard;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&shard.num_shards));
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&shard.shard_index));
  SKEWSEARCH_RETURN_NOT_OK(reader.U64(&shard.fingerprint));
  SKEWSEARCH_RETURN_NOT_OK(reader.F64(&shard.threshold));
  uint8_t measure = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&measure));
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "ShardAssignment"));
  if (shard.num_shards == 0 || shard.shard_index >= shard.num_shards) {
    return Corrupt("ShardAssignment shard index out of range");
  }
  if (!std::isfinite(shard.threshold)) {
    return Corrupt("ShardAssignment threshold is not finite");
  }
  if (measure > static_cast<uint8_t>(Measure::kCosine)) {
    return Corrupt("ShardAssignment measure out of range");
  }
  shard.measure = static_cast<Measure>(measure);
  *out = shard;
  return Status::OK();
}

Frame EncodeShutdown() { return {FrameType::kShutdown, {}}; }

Frame EncodeError(const Status& status) {
  PayloadWriter writer;
  writer.U16(static_cast<uint16_t>(status.code()));
  writer.U16(0);  // reserved
  const std::string& message = status.message();
  writer.U32(static_cast<uint32_t>(message.size()));
  writer.Bytes(message.data(), message.size());
  return {FrameType::kError, std::move(writer).Take()};
}

Status DecodeError(const Frame& frame, ErrorFrame* out) {
  SKEWSEARCH_RETURN_NOT_OK(ExpectType(frame, FrameType::kError, "Error"));
  PayloadReader reader(frame.payload);
  ErrorFrame error;
  uint16_t reserved = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U16(&error.code));
  SKEWSEARCH_RETURN_NOT_OK(reader.U16(&reserved));
  if (reserved != 0) return Corrupt("Error frame reserved bits set");
  uint32_t length = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&length));
  if (length != reader.remaining()) {
    return Corrupt("Error message length mismatch");
  }
  error.message.resize(length);
  SKEWSEARCH_RETURN_NOT_OK(reader.Bytes(error.message.data(), length));
  *out = std::move(error);
  return Status::OK();
}

Status StatusFromError(const ErrorFrame& error) {
  switch (static_cast<Status::Code>(error.code)) {
    case Status::Code::kOk:
      return Status::Internal("peer sent an Error frame with code OK: " +
                              error.message);
    case Status::Code::kInvalidArgument:
      return Status::InvalidArgument(error.message);
    case Status::Code::kNotFound:
      return Status::NotFound(error.message);
    case Status::Code::kIOError:
      return Status::IOError(error.message);
    case Status::Code::kAborted:
      return Status::Aborted(error.message);
    case Status::Code::kNotSupported:
      return Status::NotSupported(error.message);
    case Status::Code::kInternal:
      return Status::Internal(error.message);
  }
  return Status::Internal("peer error (unknown code): " + error.message);
}

}  // namespace wire
}  // namespace skewsearch
