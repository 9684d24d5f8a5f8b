// Tests for the distributed join's wire codec: randomized round-trip
// property tests over every frame type, and the negative paths the
// spec (docs/WIRE_PROTOCOL.md) requires a decoder to reject — corrupt
// magic/version/type, truncated frames at every prefix, and oversized
// count fields that must fail before allocating anything.

#include "distributed/transport/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "util/random.h"

namespace skewsearch {
namespace wire {
namespace {

std::vector<uint8_t> HeaderBytes(FrameType type, uint32_t length,
                                 uint8_t version = kVersionMax) {
  std::vector<uint8_t> bytes;
  AppendFrameHeader(type, length, version, &bytes);
  return bytes;
}

TEST(DistributedWireTest, FrameHeaderRoundTrip) {
  std::vector<uint8_t> bytes = HeaderBytes(FrameType::kProbeBatch, 12345);
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes);
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(bytes, &header).ok());
  EXPECT_EQ(header.type, FrameType::kProbeBatch);
  EXPECT_EQ(header.payload_length, 12345u);
  EXPECT_EQ(header.version, kVersionMax);
}

TEST(DistributedWireTest, FrameHeaderRejectsCorruptMagic) {
  std::vector<uint8_t> bytes = HeaderBytes(FrameType::kHello, 0);
  for (size_t byte = 0; byte < 4; ++byte) {
    std::vector<uint8_t> corrupt = bytes;
    corrupt[byte] ^= 0x40;
    FrameHeader header;
    EXPECT_FALSE(DecodeFrameHeader(corrupt, &header).ok())
        << "flipped magic byte " << byte;
  }
}

TEST(DistributedWireTest, FrameHeaderRejectsBadVersion) {
  // 0 was never a version, 1 to 3 are retired, and anything above
  // kVersionMax is a future peer.
  const uint8_t rejected[] = {0, 1, 2, 3, kVersionMax + 1};
  for (uint8_t version : rejected) {
    FrameHeader header;
    Status status = DecodeFrameHeader(
        HeaderBytes(FrameType::kHello, 0, version), &header);
    EXPECT_FALSE(status.ok()) << "version " << int{version};
    EXPECT_NE(status.ToString().find("version"), std::string::npos)
        << status.ToString();
  }
}

TEST(DistributedWireTest, FrameHeaderRejectsUnknownTypeAndReservedBits) {
  std::vector<uint8_t> bytes = HeaderBytes(FrameType::kHello, 0);
  std::vector<uint8_t> bad_type = bytes;
  bad_type[5] = 0;  // type field
  FrameHeader header;
  EXPECT_FALSE(DecodeFrameHeader(bad_type, &header).ok());
  bad_type[5] = 99;
  EXPECT_FALSE(DecodeFrameHeader(bad_type, &header).ok());
  // 9 and 10 were v3's Reassignment pair; retired, not reused.
  for (uint8_t retired : {uint8_t{9}, uint8_t{10}}) {
    bad_type[5] = retired;
    EXPECT_FALSE(DecodeFrameHeader(bad_type, &header).ok())
        << "type " << int{retired};
  }

  std::vector<uint8_t> bad_reserved = bytes;
  bad_reserved[6] = 1;  // reserved u16
  EXPECT_FALSE(DecodeFrameHeader(bad_reserved, &header).ok());
}

TEST(DistributedWireTest, FrameHeaderRejectsOversizedPayloadLength) {
  // A header announcing more than kMaxFramePayload must be rejected
  // before any payload is read — this is the transport's allocation
  // bound.
  std::vector<uint8_t> bytes =
      HeaderBytes(FrameType::kAssignment, kMaxFramePayload);
  FrameHeader header;
  EXPECT_TRUE(DecodeFrameHeader(bytes, &header).ok());
  const uint32_t oversized = kMaxFramePayload + 1;
  std::memcpy(bytes.data() + 8, &oversized, sizeof(oversized));
  EXPECT_FALSE(DecodeFrameHeader(bytes, &header).ok());
}

TEST(DistributedWireTest, FrameHeaderRejectsShortBuffer) {
  std::vector<uint8_t> bytes = HeaderBytes(FrameType::kHello, 0);
  FrameHeader header;
  for (size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(DecodeFrameHeader(
                     std::span<const uint8_t>(bytes.data(), len), &header)
                     .ok())
        << "prefix " << len;
  }
}

TEST(DistributedWireTest, HelloRoundTripAndValidation) {
  HelloFrame hello;
  hello.min_version = 1;
  hello.max_version = 3;
  hello.worker_id = 2;
  hello.num_workers = 7;
  Frame frame = EncodeHello(hello);
  EXPECT_EQ(frame.type, FrameType::kHello);
  HelloFrame decoded;
  ASSERT_TRUE(DecodeHello(frame, &decoded).ok());
  EXPECT_EQ(decoded.min_version, 1);
  EXPECT_EQ(decoded.max_version, 3);
  EXPECT_EQ(decoded.worker_id, 2u);
  EXPECT_EQ(decoded.num_workers, 7u);

  // Inverted version range and out-of-range worker ids are corruption.
  hello.min_version = 4;
  EXPECT_FALSE(DecodeHello(EncodeHello(hello), &decoded).ok());
  hello.min_version = 1;
  hello.worker_id = 7;
  EXPECT_FALSE(DecodeHello(EncodeHello(hello), &decoded).ok());
}

TEST(DistributedWireTest, DecodersRejectMismatchedFrameType) {
  Frame frame = EncodeShutdown();
  HelloFrame hello;
  HelloAckFrame hello_ack;
  WorkerAssignment assignment;
  AssignmentAckFrame assignment_ack;
  ProbeBatch probes;
  ResponseBatch responses;
  ErrorFrame error;
  EXPECT_FALSE(DecodeHello(frame, &hello).ok());
  EXPECT_FALSE(DecodeHelloAck(frame, &hello_ack).ok());
  EXPECT_FALSE(DecodeAssignment(frame, &assignment).ok());
  EXPECT_FALSE(DecodeAssignmentAck(frame, &assignment_ack).ok());
  EXPECT_FALSE(DecodeProbeBatch(frame, &probes).ok());
  EXPECT_FALSE(DecodeResponseBatch(frame, &responses).ok());
  EXPECT_FALSE(DecodeError(frame, &error).ok());
}

WorkerAssignment RandomAssignment(Rng* rng) {
  WorkerAssignment assignment;
  assignment.threshold = 0.5 + 0.4 * rng->NextDouble();
  assignment.measure = static_cast<Measure>(rng->NextBounded(5));
  const size_t num_keys = 1 + rng->NextBounded(20);
  uint64_t key = 0;
  std::vector<VectorId> referenced;
  for (size_t k = 0; k < num_keys; ++k) {
    key += 1 + rng->NextBounded(1000);
    std::vector<VectorId> ids;
    const size_t count = 1 + rng->NextBounded(6);
    for (size_t i = 0; i < count; ++i) {
      ids.push_back(static_cast<VectorId>(rng->NextBounded(50)));
    }
    for (VectorId id : ids) referenced.push_back(id);
    assignment.postings.emplace_back(key, std::move(ids));
  }
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  for (VectorId id : referenced) {
    std::vector<ItemId> items;
    ItemId item = 0;
    const size_t count = rng->NextBounded(8);
    for (size_t i = 0; i < count; ++i) {
      item += 1 + static_cast<ItemId>(rng->NextBounded(100));
      items.push_back(item);
    }
    assignment.vectors.emplace_back(id, std::move(items));
  }
  return assignment;
}

TEST(DistributedWireTest, AssignmentRandomizedRoundTrip) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    WorkerAssignment assignment = RandomAssignment(&rng);
    Frame frame = EncodeAssignment(assignment);
    WorkerAssignment decoded;
    ASSERT_TRUE(DecodeAssignment(frame, &decoded).ok());
    EXPECT_EQ(decoded.threshold, assignment.threshold);
    EXPECT_EQ(decoded.measure, assignment.measure);
    ASSERT_EQ(decoded.postings.size(), assignment.postings.size());
    for (size_t k = 0; k < assignment.postings.size(); ++k) {
      EXPECT_EQ(decoded.postings[k].first, assignment.postings[k].first);
      EXPECT_EQ(decoded.postings[k].second, assignment.postings[k].second);
    }
    ASSERT_EQ(decoded.vectors.size(), assignment.vectors.size());
    for (size_t v = 0; v < assignment.vectors.size(); ++v) {
      EXPECT_EQ(decoded.vectors[v].first, assignment.vectors[v].first);
      EXPECT_EQ(decoded.vectors[v].second, assignment.vectors[v].second);
    }
  }
}

TEST(DistributedWireTest, AssignmentTruncatedAtEveryPrefixFails) {
  Rng rng(42);
  WorkerAssignment assignment = RandomAssignment(&rng);
  Frame frame = EncodeAssignment(assignment);
  // Every strict prefix must decode to an error — never crash, never
  // succeed (the payload is consumed exactly, so success on a prefix
  // would mean trailing-byte tolerance or a short read).
  for (size_t len = 0; len < frame.payload.size(); ++len) {
    Frame truncated;
    truncated.type = frame.type;
    truncated.payload.assign(frame.payload.begin(),
                             frame.payload.begin() + len);
    WorkerAssignment decoded;
    EXPECT_FALSE(DecodeAssignment(truncated, &decoded).ok())
        << "prefix " << len << " of " << frame.payload.size();
  }
  // And the full payload with trailing garbage fails too.
  Frame padded = frame;
  padded.payload.push_back(0);
  WorkerAssignment decoded;
  EXPECT_FALSE(DecodeAssignment(padded, &decoded).ok());
}

TEST(DistributedWireTest, AssignmentRejectsUnsortedKeysAndVectors) {
  WorkerAssignment assignment;
  assignment.threshold = 0.5;
  assignment.postings.emplace_back(10, std::vector<VectorId>{1});
  assignment.postings.emplace_back(10, std::vector<VectorId>{2});
  assignment.vectors.emplace_back(1, std::vector<ItemId>{3});
  assignment.vectors.emplace_back(2, std::vector<ItemId>{3});
  WorkerAssignment decoded;
  EXPECT_FALSE(DecodeAssignment(EncodeAssignment(assignment), &decoded).ok())
      << "duplicate keys must be rejected";

  assignment.postings[1].first = 11;
  ASSERT_TRUE(DecodeAssignment(EncodeAssignment(assignment), &decoded).ok());

  assignment.vectors[1].first = 1;  // duplicate vector id
  EXPECT_FALSE(
      DecodeAssignment(EncodeAssignment(assignment), &decoded).ok());

  assignment.vectors[1].first = 2;
  assignment.vectors[1].second = {5, 5};  // non-increasing items
  EXPECT_FALSE(
      DecodeAssignment(EncodeAssignment(assignment), &decoded).ok());
}

TEST(DistributedWireTest, OversizedCountsFailBeforeAllocating) {
  // Hand-craft payloads whose count fields wildly exceed the bytes
  // present. The bounded-allocation rule: the decoder must reject them
  // by comparing the count against the remaining payload, so a 30-byte
  // frame can never make it resize a vector to 2^32 elements. (Run
  // under ASan in CI, an actual oversized allocation would abort.)
  //
  // Each row must fail on its count check, not on some earlier field:
  // the error names the count that exceeds the payload.
  auto expect_count_error = [](const Status& status, const char* field) {
    EXPECT_FALSE(status.ok()) << field;
    EXPECT_NE(status.ToString().find(std::string(field) +
                                     " count exceeds"),
              std::string::npos)
        << status.ToString();
  };
  {
    PayloadWriter writer;
    writer.U32(0);  // epoch
    writer.F64(0.5);
    writer.U8(0);
    writer.U32(0xFFFFFFFFu);  // posting-key count
    Frame frame{FrameType::kAssignment, std::move(writer).Take()};
    WorkerAssignment decoded;
    expect_count_error(DecodeAssignment(frame, &decoded), "Assignment key");
  }
  {
    PayloadWriter writer;
    writer.U32(0);  // epoch
    writer.F64(0.5);
    writer.U8(0);
    writer.U32(1);            // one key...
    writer.U64(7);            // key
    writer.U32(0xFFFFFFFFu);  // ...claiming 4G posting ids
    Frame frame{FrameType::kAssignment, std::move(writer).Take()};
    WorkerAssignment decoded;
    expect_count_error(DecodeAssignment(frame, &decoded),
                       "Assignment posting");
  }
  {
    PayloadWriter writer;
    writer.U32(0);            // epoch
    writer.U64(0);            // seq
    writer.U32(0xFFFFFFFFu);  // probe count
    Frame frame{FrameType::kProbeBatch, std::move(writer).Take()};
    ProbeBatch decoded;
    expect_count_error(DecodeProbeBatch(frame, &decoded), "ProbeBatch probe");
  }
  {
    PayloadWriter writer;
    writer.U32(0);            // epoch
    writer.U64(0);            // seq
    writer.U32(1);            // one probe...
    writer.U32(3);            // left
    writer.U8(0);             // flags
    writer.U32(0xFFFFFFFFu);  // ...claiming 4G items
    writer.U32(0);            // key count: the probe's minimum size
    Frame frame{FrameType::kProbeBatch, std::move(writer).Take()};
    ProbeBatch decoded;
    expect_count_error(DecodeProbeBatch(frame, &decoded), "ProbeBatch item");
  }
  {
    PayloadWriter writer;
    writer.U32(0);            // epoch
    writer.U64(0);            // seq
    writer.U32(0xFFFFFFFFu);  // response count
    Frame frame{FrameType::kResponseBatch, std::move(writer).Take()};
    ResponseBatch decoded;
    expect_count_error(DecodeResponseBatch(frame, &decoded),
                       "ResponseBatch response");
  }
  {
    PayloadWriter writer;
    writer.U32(0);            // epoch
    writer.U64(0);            // seq
    writer.U32(1);            // one response...
    writer.U32(3);            // left
    writer.U64(0);            // candidates
    writer.U64(0);            // verifications
    writer.U32(0xFFFFFFFFu);  // ...claiming 4G matches
    Frame frame{FrameType::kResponseBatch, std::move(writer).Take()};
    ResponseBatch decoded;
    expect_count_error(DecodeResponseBatch(frame, &decoded),
                       "ResponseBatch match");
  }
}

TEST(DistributedWireTest, ProbeBatchRandomizedRoundTrip) {
  for (uint64_t seed = 11; seed <= 16; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::vector<ItemId>> item_storage;
    std::vector<ProbeRequest> batch;
    const size_t count = rng.NextBounded(10);
    item_storage.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      std::vector<ItemId> items;
      const size_t num_items = rng.NextBounded(12);
      ItemId item = 0;
      for (size_t j = 0; j < num_items; ++j) {
        item += 1 + static_cast<ItemId>(rng.NextBounded(50));
        items.push_back(item);
      }
      item_storage.push_back(std::move(items));
      ProbeRequest request;
      request.left = static_cast<VectorId>(rng.NextBounded(1000));
      request.items = item_storage.back();
      request.exclude_left_and_below = rng.NextBounded(2) == 1;
      const size_t num_keys = rng.NextBounded(8);
      for (size_t k = 0; k < num_keys; ++k) {
        request.keys.push_back(rng.NextUint64());
      }
      batch.push_back(std::move(request));
    }
    Frame frame = EncodeProbeBatch(batch);
    ProbeBatch decoded;
    ASSERT_TRUE(DecodeProbeBatch(frame, &decoded).ok());
    ASSERT_EQ(decoded.probes.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(decoded.probes[i].left, batch[i].left);
      EXPECT_EQ(decoded.probes[i].exclude_left_and_below,
                batch[i].exclude_left_and_below);
      EXPECT_TRUE(std::equal(decoded.probes[i].items.begin(),
                             decoded.probes[i].items.end(),
                             batch[i].items.begin(), batch[i].items.end()));
      EXPECT_EQ(decoded.probes[i].keys, batch[i].keys);
      // The owned probe's view must reproduce the original request.
      ProbeRequest view = decoded.probes[i].View();
      EXPECT_EQ(view.left, batch[i].left);
      EXPECT_EQ(view.keys, batch[i].keys);
    }
  }
}

TEST(DistributedWireTest, ProbeBatchRejectsUnknownFlags) {
  ProbeRequest request;
  request.left = 1;
  Frame frame = EncodeProbeBatch(std::span<const ProbeRequest>(&request, 1));
  // The flags byte sits after the epoch (u32), seq (u64), count (u32)
  // and left (u32).
  ASSERT_EQ(frame.payload[20], 0x00);
  frame.payload[20] = 0x02;
  ProbeBatch decoded;
  Status status = DecodeProbeBatch(frame, &decoded);
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.ToString().find("flag"), std::string::npos)
      << status.ToString();
}

TEST(DistributedWireTest, ProbeBatchRejectsItemsNotStrictlyIncreasing) {
  // A repeated item and a descending pair: intersection kernels differ on
  // such lists, so they must not decode.
  const std::vector<ItemId> rows[] = {{1, 5, 5, 9}, {1, 9, 7}};
  for (const std::vector<ItemId>& items : rows) {
    ProbeRequest request;
    request.left = 1;
    request.items = items;
    request.keys = {7};
    ProbeBatch decoded;
    const Status status = DecodeProbeBatch(
        EncodeProbeBatch(std::span<const ProbeRequest>(&request, 1)),
        &decoded);
    EXPECT_FALSE(status.ok());
    EXPECT_NE(status.ToString().find("ProbeBatch items are not strictly "
                                     "increasing"),
              std::string::npos)
        << status.ToString();
  }
}

TEST(DistributedWireTest, ResponseBatchRandomizedRoundTrip) {
  for (uint64_t seed = 21; seed <= 26; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    std::vector<ProbeResponse> batch;
    const size_t count = rng.NextBounded(10);
    for (size_t i = 0; i < count; ++i) {
      ProbeResponse response;
      response.left = static_cast<VectorId>(rng.NextBounded(1000));
      response.candidates = rng.NextUint64();
      response.verifications = rng.NextUint64();
      const size_t num_matches = rng.NextBounded(6);
      for (size_t m = 0; m < num_matches; ++m) {
        response.matches.push_back(
            {static_cast<VectorId>(rng.NextBounded(1000)),
             rng.NextDouble()});
      }
      batch.push_back(std::move(response));
    }
    Frame frame = EncodeResponseBatch(batch);
    ResponseBatch decoded;
    ASSERT_TRUE(DecodeResponseBatch(frame, &decoded).ok());
    ASSERT_EQ(decoded.responses.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(decoded.responses[i].left, batch[i].left);
      EXPECT_EQ(decoded.responses[i].candidates, batch[i].candidates);
      EXPECT_EQ(decoded.responses[i].verifications, batch[i].verifications);
      ASSERT_EQ(decoded.responses[i].matches.size(),
                batch[i].matches.size());
      for (size_t m = 0; m < batch[i].matches.size(); ++m) {
        EXPECT_EQ(decoded.responses[i].matches[m], batch[i].matches[m]);
      }
    }
  }
}

TEST(DistributedWireTest, ErrorFrameCarriesEveryStatusCode) {
  const Status statuses[] = {
      Status::InvalidArgument("bad arg"), Status::NotFound("missing"),
      Status::IOError("io"),              Status::Aborted("stop"),
      Status::NotSupported("nope"),       Status::Internal("bug"),
  };
  for (const Status& status : statuses) {
    SCOPED_TRACE(status.ToString());
    Frame frame = EncodeError(status);
    ErrorFrame error;
    ASSERT_TRUE(DecodeError(frame, &error).ok());
    Status round_tripped = StatusFromError(error);
    EXPECT_EQ(round_tripped.code(), status.code());
    EXPECT_EQ(round_tripped.message(), status.message());
  }
  // An Error frame claiming code OK must not decode into success.
  Frame ok_error = EncodeError(Status::Internal("x"));
  ok_error.payload[0] = 0;
  ok_error.payload[1] = 0;
  ErrorFrame error;
  ASSERT_TRUE(DecodeError(ok_error, &error).ok());
  EXPECT_FALSE(StatusFromError(error).ok());
}

TEST(DistributedWireTest, ErrorFrameLengthMismatchRejected) {
  Frame frame = EncodeError(Status::Internal("hello"));
  frame.payload.pop_back();  // message shorter than its declared length
  ErrorFrame error;
  EXPECT_FALSE(DecodeError(frame, &error).ok());
}

TEST(DistributedWireTest, ShutdownHasEmptyPayload) {
  Frame frame = EncodeShutdown();
  EXPECT_EQ(frame.type, FrameType::kShutdown);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(DistributedWireTest, ProbeBatchV2CarriesEpochAndSeq) {
  ProbeRequest request;
  request.left = 42;
  request.keys = {11, 12};
  const std::span<const ProbeRequest> batch(&request, 1);

  Frame frame = EncodeProbeBatch(batch, /*epoch=*/3, /*seq=*/9);
  ProbeBatch decoded;
  ASSERT_TRUE(DecodeProbeBatch(frame, &decoded).ok());
  EXPECT_EQ(decoded.epoch, 3u);
  EXPECT_EQ(decoded.seq, 9u);
  ASSERT_EQ(decoded.probes.size(), 1u);
  EXPECT_EQ(decoded.probes[0].left, 42u);
  EXPECT_EQ(decoded.probes[0].keys, request.keys);

  // The 12-byte epoch/seq prefix is always present: an empty batch is
  // exactly prefix + count, and dropping the prefix is truncation.
  Frame empty = EncodeProbeBatch({}, /*epoch=*/3, /*seq=*/9);
  EXPECT_EQ(empty.payload.size(), 16u);
  empty.payload.erase(empty.payload.begin(), empty.payload.begin() + 12);
  EXPECT_FALSE(DecodeProbeBatch(empty, &decoded).ok());
}

TEST(DistributedWireTest, ResponseBatchV2CarriesEpochAndSeq) {
  ProbeResponse response;
  response.left = 7;
  response.matches.push_back({3, 0.9});
  response.candidates = 5;
  response.verifications = 2;
  const std::span<const ProbeResponse> batch(&response, 1);

  Frame frame = EncodeResponseBatch(batch, /*epoch=*/1, /*seq=*/4);
  ResponseBatch decoded;
  ASSERT_TRUE(DecodeResponseBatch(frame, &decoded).ok());
  EXPECT_EQ(decoded.epoch, 1u);
  EXPECT_EQ(decoded.seq, 4u);
  ASSERT_EQ(decoded.responses.size(), 1u);
  EXPECT_EQ(decoded.responses[0].left, 7u);
  ASSERT_EQ(decoded.responses[0].matches.size(), 1u);
  EXPECT_EQ(decoded.responses[0].matches[0].id, 3u);

  Frame empty = EncodeResponseBatch({}, /*epoch=*/1, /*seq=*/4);
  EXPECT_EQ(empty.payload.size(), 16u);
  empty.payload.erase(empty.payload.begin(), empty.payload.begin() + 12);
  EXPECT_FALSE(DecodeResponseBatch(empty, &decoded).ok());
}

TEST(DistributedWireTest, AssignmentCarriesEpochRandomizedRoundTrip) {
  // Recovery re-ships a lost worker's slices as an Assignment at the
  // session's next epoch; the epoch prefix round-trips with the body.
  for (uint64_t seed = 21; seed <= 24; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const uint32_t epoch = static_cast<uint32_t>(rng.NextBounded(100));
    WorkerAssignment assignment = RandomAssignment(&rng);
    Frame frame = EncodeAssignment(assignment, epoch);
    EXPECT_EQ(frame.type, FrameType::kAssignment);
    uint32_t prefix = 0;
    std::memcpy(&prefix, frame.payload.data(), sizeof(prefix));
    EXPECT_EQ(prefix, epoch);
    WorkerAssignment decoded;
    uint32_t decoded_epoch = epoch + 1;
    ASSERT_TRUE(DecodeAssignment(frame, &decoded, &decoded_epoch).ok());
    EXPECT_EQ(decoded_epoch, epoch);
    EXPECT_EQ(decoded.threshold, assignment.threshold);
    ASSERT_EQ(decoded.postings.size(), assignment.postings.size());
    for (size_t k = 0; k < decoded.postings.size(); ++k) {
      EXPECT_EQ(decoded.postings[k], assignment.postings[k]);
    }
    ASSERT_EQ(decoded.vectors.size(), assignment.vectors.size());
  }
}

TEST(DistributedWireTest, AssignmentAckRoundTripAndTruncation) {
  AssignmentAckFrame ack;
  ack.epoch = 6;
  ack.num_keys = 10;
  ack.num_entries = 55;
  ack.distinct_vectors = 17;
  Frame frame = EncodeAssignmentAck(ack);
  EXPECT_EQ(frame.type, FrameType::kAssignmentAck);
  EXPECT_EQ(frame.payload.size(), 28u);
  AssignmentAckFrame decoded;
  ASSERT_TRUE(DecodeAssignmentAck(frame, &decoded).ok());
  EXPECT_EQ(decoded.epoch, 6u);
  EXPECT_EQ(decoded.num_keys, 10u);
  EXPECT_EQ(decoded.num_entries, 55u);
  EXPECT_EQ(decoded.distinct_vectors, 17u);
  for (size_t cut = 0; cut < frame.payload.size(); ++cut) {
    Frame truncated = frame;
    truncated.payload.resize(cut);
    AssignmentAckFrame out;
    EXPECT_FALSE(DecodeAssignmentAck(truncated, &out).ok())
        << "prefix " << cut;
  }
  Frame padded = frame;
  padded.payload.push_back(0);
  AssignmentAckFrame out;
  EXPECT_FALSE(DecodeAssignmentAck(padded, &out).ok());
}

}  // namespace
}  // namespace wire
}  // namespace skewsearch
