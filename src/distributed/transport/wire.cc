#include "distributed/transport/wire.h"

#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>

namespace skewsearch {
namespace wire {

namespace {

/// Smallest possible encodings of the variable-count elements; counts
/// are bounded by remaining / these before any allocation.
constexpr size_t kMinKeyBytes = 12;       // u64 key + u32 count
constexpr size_t kMinVectorBytes = 8;     // u32 id + u32 count
/// An Assignment's fixed fields: epoch, threshold, measure and the key
/// and vector counts.
constexpr size_t kAssignmentFixedBytes = 4 + 8 + 1 + 4 + 4;
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

/// Reads \p count u32 counts into \p offsets as their count + 1
/// running sums: the offsets of an array of u32 elements (positions or
/// items) that follows. The total is summed in 64 bits, so no count can
/// wrap it, and must fit the payload left.
Status ReadOffsets(PayloadReader* reader, uint32_t count, const char* what,
                   std::vector<uint32_t>* offsets) {
  offsets->assign(size_t{count} + 1, 0);
  SKEWSEARCH_RETURN_NOT_OK(
      reader->Bytes(offsets->data() + 1, size_t{count} * sizeof(uint32_t)));
  uint64_t total = 0;
  for (size_t i = 1; i <= count; ++i) {
    total += (*offsets)[i];
    // A total past 2^32 wraps here but fails the bound below.
    (*offsets)[i] = static_cast<uint32_t>(total);
  }
  if (total > reader->remaining() / sizeof(uint32_t)) {
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

Frame EncodeAssignment(const FilterTable& slice, const Dataset& build,
                       double threshold, Measure measure, uint32_t epoch,
                       const std::function<bool(size_t)>& ships_list,
                       AssignmentAckFrame* shipped) {
  // The lists that go, as indexes into the slice, and their positions.
  std::vector<uint32_t> lists;
  size_t num_positions = 0;
  for (size_t k = 0; k < slice.num_keys(); ++k) {
    if (ships_list && !ships_list(k)) continue;
    lists.push_back(static_cast<uint32_t>(k));
    num_positions += slice.postings_at(k).size();
  }
  // One bit per build vector marks the referenced ones. A vector's
  // position is its rank among them: rank[w] counts the marked ids
  // below word w, and a popcount adds those below it in its word.
  std::vector<uint64_t> marked((build.size() + 63) / 64, 0);
  for (uint32_t k : lists) {
    for (VectorId id : slice.postings_at(k)) {
      marked[id / 64] |= uint64_t{1} << (id % 64);
    }
  }
  std::vector<uint32_t> rank(marked.size());
  std::vector<VectorId> referenced;
  size_t num_items = 0;
  for (size_t w = 0; w < marked.size(); ++w) {
    rank[w] = static_cast<uint32_t>(referenced.size());
    for (uint64_t bits = marked[w]; bits != 0; bits &= bits - 1) {
      const int bit = std::countr_zero(bits);
      const auto id = static_cast<VectorId>(w * 64 + static_cast<size_t>(bit));
      referenced.push_back(id);
      num_items += build.SizeOf(id);
    }
  }

  // Past the fixed fields a key takes 12 bytes with its count, a vector
  // 8 with its item count, and a position or an item 4.
  size_t bytes = kAssignmentFixedBytes + lists.size() * kMinKeyBytes;
  bytes += referenced.size() * kMinVectorBytes;
  bytes += (num_positions + num_items) * sizeof(uint32_t);
  std::vector<uint8_t> payload(bytes);
  uint8_t* out = payload.data();
  auto put = [&out](const void* data, size_t bytes) {
    if (bytes > 0) std::memcpy(out, data, bytes);
    out += bytes;
  };
  auto put_u32 = [&put](size_t value) {
    const auto v = static_cast<uint32_t>(value);
    put(&v, sizeof(v));
  };
  put_u32(epoch);
  put(&threshold, sizeof(threshold));
  const auto measure_byte = static_cast<uint8_t>(measure);
  put(&measure_byte, 1);
  put_u32(lists.size());
  for (uint32_t k : lists) {
    const uint64_t key = slice.key_at(k);
    put(&key, sizeof(key));
  }
  for (uint32_t k : lists) put_u32(slice.postings_at(k).size());
  for (uint32_t k : lists) {
    for (VectorId id : slice.postings_at(k)) {
      const uint64_t below =
          marked[id / 64] & ((uint64_t{1} << (id % 64)) - 1);
      put_u32(rank[id / 64] + static_cast<size_t>(std::popcount(below)));
    }
  }
  put_u32(referenced.size());
  put(referenced.data(), referenced.size() * sizeof(VectorId));
  for (VectorId id : referenced) put_u32(build.SizeOf(id));
  for (VectorId id : referenced) {
    const std::span<const ItemId> items = build.Get(id);
    put(items.data(), items.size() * sizeof(ItemId));
  }
  assert(out == payload.data() + payload.size());
  if (shipped != nullptr) {
    shipped->epoch = epoch;
    shipped->num_keys = lists.size();
    shipped->num_entries = num_positions;
    shipped->distinct_vectors = referenced.size();
  }
  return {FrameType::kAssignment, std::move(payload)};
}

Status DecodeAssignment(const Frame& frame, Assignment* out,
                        uint32_t* epoch) {
  SKEWSEARCH_RETURN_NOT_OK(
      ExpectType(frame, FrameType::kAssignment, "Assignment"));
  PayloadReader reader(frame.payload);
  uint32_t frame_epoch = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U32(&frame_epoch));
  Assignment a;
  SKEWSEARCH_RETURN_NOT_OK(reader.F64(&a.threshold));
  if (!std::isfinite(a.threshold)) {
    return Corrupt("Assignment threshold is not finite");
  }
  uint8_t measure = 0;
  SKEWSEARCH_RETURN_NOT_OK(reader.U8(&measure));
  if (measure > static_cast<uint8_t>(Measure::kCosine)) {
    return Corrupt("Assignment measure out of range");
  }
  a.measure = static_cast<Measure>(measure);

  // Each count is bounded by the bytes left before its array is sized.
  uint32_t num_keys = 0;
  SKEWSEARCH_RETURN_NOT_OK(
      BoundedCount(&reader, kMinKeyBytes, "Assignment key", &num_keys));
  a.keys.resize(num_keys);
  SKEWSEARCH_RETURN_NOT_OK(
      reader.Bytes(a.keys.data(), num_keys * sizeof(uint64_t)));
  SKEWSEARCH_RETURN_NOT_OK(
      ReadOffsets(&reader, num_keys, "Assignment id", &a.offsets));
  a.positions.resize(a.offsets.back());
  SKEWSEARCH_RETURN_NOT_OK(
      reader.Bytes(a.positions.data(), a.positions.size() * sizeof(VectorId)));

  uint32_t num_vectors = 0;
  SKEWSEARCH_RETURN_NOT_OK(BoundedCount(&reader, kMinVectorBytes,
                                        "Assignment vector", &num_vectors));
  a.vector_ids.resize(num_vectors);
  SKEWSEARCH_RETURN_NOT_OK(
      reader.Bytes(a.vector_ids.data(), num_vectors * sizeof(VectorId)));
  SKEWSEARCH_RETURN_NOT_OK(
      ReadOffsets(&reader, num_vectors, "Assignment item", &a.item_offsets));
  a.items.resize(a.item_offsets.back());
  SKEWSEARCH_RETURN_NOT_OK(
      reader.Bytes(a.items.data(), a.items.size() * sizeof(ItemId)));
  SKEWSEARCH_RETURN_NOT_OK(ExpectConsumed(reader, "Assignment"));
  *out = std::move(a);
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
