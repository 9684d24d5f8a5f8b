// Tests for the distributed join's wire codec: randomized round-trip
// property tests over every frame type, and the negative paths the
// spec (docs/WIRE_PROTOCOL.md) requires a decoder to reject — corrupt
// magic/version/type, truncated frames at every prefix, and oversized
// count fields that must fail before allocating anything. Mutated
// Assignments also go through the worker's validation, which must
// reject them or adopt a table it can serve.

#include "distributed/transport/wire.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "assignment_test_util.h"
#include "distributed/transport/session.h"
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
  // 0 was never a version, 1 to 5 are retired, and anything above
  // kVersionMax is a future peer.
  const uint8_t rejected[] = {0, 1, 2, 3, 4, 5, kVersionMax + 1};
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
  Assignment assignment;
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

/// What the coordinator's encoder reads: a posting slice over a build
/// side's VectorIds, and the verification parameters.
struct Slice {
  Dataset build;
  FilterTable table;
  double threshold = 0.5;
  Measure measure = Measure::kBraunBlanquet;

  Frame Encode(uint32_t epoch = 0) const {
    return EncodeAssignment(table, build, threshold, measure, epoch);
  }
};

/// A random slice: up to \p max_vectors build vectors of up to 7 items
/// (some empty), and up to \p max_keys keys from a small key space,
/// each listing up to 6 ids, repeats kept as FilterTable::Build keeps
/// them.
Slice RandomSlice(Rng* rng, size_t max_vectors = 60, size_t max_keys = 20) {
  Slice slice;
  slice.threshold = 0.5 + 0.4 * rng->NextDouble();
  slice.measure = static_cast<Measure>(rng->NextBounded(5));
  const size_t n = 1 + rng->NextBounded(max_vectors);
  for (size_t v = 0; v < n; ++v) {
    std::vector<ItemId> items;
    ItemId item = 0;
    const size_t count = rng->NextBounded(8);
    for (size_t i = 0; i < count; ++i) {
      item += 1 + static_cast<ItemId>(rng->NextBounded(100));
      items.push_back(item);
    }
    slice.build.Add(std::span<const ItemId>(items));
  }
  std::vector<Posting> postings;
  const size_t num_keys = 1 + rng->NextBounded(max_keys);
  for (size_t k = 0; k < num_keys; ++k) {
    const uint64_t key = rng->NextBounded(4 * max_keys) * 0x9E3779B97F4A7C15u;
    const size_t count = 1 + rng->NextBounded(6);
    for (size_t i = 0; i < count; ++i) {
      postings.push_back({key, static_cast<VectorId>(rng->NextBounded(n))});
    }
  }
  slice.table = FilterTable::Build(std::move(postings));
  return slice;
}

/// Checks that \p decoded ships \p slice: its keys and offsets, each id
/// as its rank among the referenced ids, those ids ascending with their
/// items, and a payload of \p payload_bytes, byte for byte as large as
/// the per-key (v4) layout of the same slice.
void ExpectShipsSlice(const Assignment& decoded, const Slice& slice,
                      size_t payload_bytes) {
  EXPECT_EQ(decoded.threshold, slice.threshold);
  EXPECT_EQ(decoded.measure, slice.measure);
  const std::span<const VectorId> ids = slice.table.ids_span();
  std::vector<VectorId> referenced(ids.begin(), ids.end());
  std::sort(referenced.begin(), referenced.end());
  referenced.erase(std::unique(referenced.begin(), referenced.end()),
                   referenced.end());
  ASSERT_EQ(decoded.keys.size(), slice.table.num_keys());
  EXPECT_TRUE(std::equal(decoded.keys.begin(), decoded.keys.end(),
                         slice.table.keys_span().begin()));
  EXPECT_TRUE(std::equal(decoded.offsets.begin(), decoded.offsets.end(),
                         slice.table.offsets_span().begin(),
                         slice.table.offsets_span().end()));
  ASSERT_EQ(decoded.positions.size(), ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(decoded.positions[i],
              std::lower_bound(referenced.begin(), referenced.end(), ids[i]) -
                  referenced.begin());
  }
  EXPECT_EQ(decoded.vector_ids, referenced);
  size_t items = 0;
  ASSERT_EQ(decoded.item_offsets.size(), referenced.size() + 1);
  for (size_t v = 0; v < referenced.size(); ++v) {
    const std::span<const ItemId> expected = slice.build.Get(referenced[v]);
    const auto first = decoded.items.begin() + decoded.item_offsets[v];
    const auto last = decoded.items.begin() + decoded.item_offsets[v + 1];
    EXPECT_TRUE(std::equal(first, last, expected.begin(), expected.end()));
    items += expected.size();
  }
  const size_t v4_bytes = 4 + 8 + 1 + 4 + slice.table.num_keys() * (8 + 4) +
                          ids.size() * 4 + 4 + referenced.size() * (4 + 4) +
                          items * 4;
  EXPECT_EQ(payload_bytes, v4_bytes);
}

TEST(DistributedWireTest, AssignmentRandomizedRoundTrip) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed = " + std::to_string(seed));
    Rng rng(seed);
    const Slice slice = RandomSlice(&rng);
    const Frame frame = slice.Encode();
    Assignment decoded;
    ASSERT_TRUE(DecodeAssignment(frame, &decoded).ok());
    ExpectShipsSlice(decoded, slice, frame.payload.size());
    // What the encoder writes is what a worker accepts.
    WorkerState state(0);
    const Status applied = state.Apply(std::move(decoded));
    EXPECT_TRUE(applied.ok()) << applied.ToString();

    // Shipped in two parts, the odd lists and then the others at the
    // next epoch: each part ships its lists and only the vectors they
    // reference, counts what it ships, and the two applied make the
    // table the whole slice makes.
    auto odd = [](size_t k) { return k % 2 == 1; };
    Slice part = slice;
    std::vector<Posting> postings;
    for (size_t k = 1; k < slice.table.num_keys(); k += 2) {
      for (VectorId id : slice.table.postings_at(k)) {
        postings.push_back({slice.table.key_at(k), id});
      }
    }
    part.table = FilterTable::Build(std::move(postings));
    AssignmentAckFrame shipped;
    const Frame first = EncodeAssignment(slice.table, slice.build,
                                         slice.threshold, slice.measure, 0,
                                         odd, &shipped);
    Assignment first_decoded;
    ASSERT_TRUE(DecodeAssignment(first, &first_decoded).ok());
    ExpectShipsSlice(first_decoded, part, first.payload.size());
    EXPECT_EQ(shipped.epoch, 0u);
    EXPECT_EQ(shipped.num_keys, part.table.num_keys());
    EXPECT_EQ(shipped.num_entries, part.table.num_pairs());
    EXPECT_EQ(shipped.distinct_vectors, first_decoded.vector_ids.size());
    const Frame second = EncodeAssignment(
        slice.table, slice.build, slice.threshold, slice.measure, 1,
        [&](size_t k) { return !odd(k); });
    Assignment second_decoded;
    ASSERT_TRUE(DecodeAssignment(second, &second_decoded).ok());
    WorkerState split(0);
    ASSERT_TRUE(split.Apply(std::move(first_decoded)).ok());
    ASSERT_TRUE(split.Apply(std::move(second_decoded)).ok());
    const FilterTable& whole = state.worker()->table();
    const FilterTable& merged = split.worker()->table();
    EXPECT_EQ(split.original_ids(), state.original_ids());
    EXPECT_TRUE(std::ranges::equal(merged.keys_span(), whole.keys_span()));
    EXPECT_TRUE(
        std::ranges::equal(merged.offsets_span(), whole.offsets_span()));
    EXPECT_TRUE(std::ranges::equal(merged.ids_span(), whole.ids_span()));
  }
}

TEST(DistributedWireTest, AssignmentTruncatedAtEveryPrefixFails) {
  Rng rng(42);
  const Frame frame = RandomSlice(&rng).Encode();
  // Every strict prefix must decode to an error — never crash, never
  // succeed (the payload is consumed exactly, so success on a prefix
  // would mean trailing-byte tolerance or a short read).
  for (size_t len = 0; len < frame.payload.size(); ++len) {
    Frame truncated;
    truncated.type = frame.type;
    truncated.payload.assign(frame.payload.begin(),
                             frame.payload.begin() + len);
    Assignment decoded;
    EXPECT_FALSE(DecodeAssignment(truncated, &decoded).ok())
        << "prefix " << len << " of " << frame.payload.size();
  }
  // And the full payload with trailing garbage fails too.
  Frame padded = frame;
  padded.payload.push_back(0);
  Assignment decoded;
  EXPECT_FALSE(DecodeAssignment(padded, &decoded).ok());
}

TEST(DistributedWireTest, AssignmentRejectsUnsortedKeysAndVectors) {
  // The decoder checks only that the arrays fit the payload; the worker
  // that adopts them rejects what they must not mean. An empty rule
  // marks the sorted row, which the worker adopts.
  auto decode = [](const Frame& frame) {
    Assignment decoded;
    EXPECT_TRUE(DecodeAssignment(frame, &decoded).ok());
    return decoded;
  };
  const Assignment sorted = decode(
      test::AssignmentFrame({{10, {1}}, {11, {2}}}, {{1, {3}}, {2, {3}}}));
  // Both positions referenced, both vectors shipped as id 1: the frame
  // helper would write both postings as the first position.
  Assignment duplicate_id = sorted;
  duplicate_id.vector_ids = {1, 1};
  const struct {
    Assignment assignment;
    const char* rule;
  } rows[] = {
      {decode(test::AssignmentFrame({{10, {1}}, {10, {2}}},
                                    {{1, {3}}, {2, {3}}})),
       "keys are not strictly increasing"},
      {sorted, ""},
      {duplicate_id, "vector ids are not strictly increasing"},
      {decode(test::AssignmentFrame({{10, {2}}, {11, {1}}},
                                    {{2, {3}}, {1, {3}}})),
       "vector ids are not strictly increasing"},
      {decode(test::AssignmentFrame({{10, {1}}, {11, {2}}},
                                    {{1, {3}}, {2, {5, 5}}})),
       "items that are not strictly increasing"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.rule);
    Assignment decoded = row.assignment;
    WorkerState state(0);
    const Status status = state.Apply(std::move(decoded));
    if (*row.rule == '\0') {
      EXPECT_TRUE(status.ok()) << status.ToString();
      continue;
    }
    EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
    EXPECT_NE(status.ToString().find(row.rule), std::string::npos)
        << status.ToString();
    EXPECT_EQ(state.worker(), nullptr);
  }
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
  // An Assignment has four counts: keys and vectors on the wire, ids
  // and items summed from the per-key and per-vector counts. Each sum
  // is taken in 64 bits: two counts of 2^31 wrap a 32-bit sum to 0.
  auto assignment_head = [](PayloadWriter* writer) {
    writer->U32(0);  // epoch
    writer->F64(0.5);
    writer->U8(0);
  };
  auto one_key = [](PayloadWriter* writer) {
    writer->U32(1);  // one key...
    writer->U64(7);
    writer->U32(1);  // ...listing one position
    writer->U32(0);
  };
  {
    PayloadWriter writer;
    assignment_head(&writer);
    writer.U32(0xFFFFFFFFu);  // key count
    Frame frame{FrameType::kAssignment, std::move(writer).Take()};
    Assignment decoded;
    expect_count_error(DecodeAssignment(frame, &decoded), "Assignment key");
  }
  for (const uint32_t count : {0xFFFFFFFFu, 0x80000000u}) {
    PayloadWriter writer;
    assignment_head(&writer);
    writer.U32(2);  // two keys...
    writer.U64(7);
    writer.U64(8);
    writer.U32(count);  // ...claiming 4G positions, or 2^32 in all
    writer.U32(0x80000000u);
    Frame frame{FrameType::kAssignment, std::move(writer).Take()};
    Assignment decoded;
    expect_count_error(DecodeAssignment(frame, &decoded), "Assignment id");
  }
  {
    PayloadWriter writer;
    assignment_head(&writer);
    one_key(&writer);
    writer.U32(0xFFFFFFFFu);  // vector count
    Frame frame{FrameType::kAssignment, std::move(writer).Take()};
    Assignment decoded;
    expect_count_error(DecodeAssignment(frame, &decoded),
                       "Assignment vector");
  }
  for (const uint32_t count : {0xFFFFFFFFu, 0x80000000u}) {
    PayloadWriter writer;
    assignment_head(&writer);
    one_key(&writer);
    writer.U32(2);  // two vectors...
    writer.U32(1);
    writer.U32(2);
    writer.U32(count);  // ...claiming 4G items, or 2^32 in all
    writer.U32(0x80000000u);
    Frame frame{FrameType::kAssignment, std::move(writer).Take()};
    Assignment decoded;
    expect_count_error(DecodeAssignment(frame, &decoded), "Assignment item");
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
    const Slice slice = RandomSlice(&rng);
    const Frame frame = slice.Encode(epoch);
    EXPECT_EQ(frame.type, FrameType::kAssignment);
    uint32_t prefix = 0;
    std::memcpy(&prefix, frame.payload.data(), sizeof(prefix));
    EXPECT_EQ(prefix, epoch);
    Assignment decoded;
    uint32_t decoded_epoch = epoch + 1;
    ASSERT_TRUE(DecodeAssignment(frame, &decoded, &decoded_epoch).ok());
    EXPECT_EQ(decoded_epoch, epoch);
    ExpectShipsSlice(decoded, slice, frame.payload.size());
  }
}

TEST(DistributedWireTest, MutatedAssignmentsAreRejectedOrServeStoredVectors) {
  // About 10k seeded byte flips and overwrites of one valid Assignment.
  // Each result goes through the decoder and the worker's validation:
  // it is rejected, or the worker adopts a table whose every position
  // indexes a stored vector, and serves a probe over every key. Under
  // ASan+UBSan an out-of-bounds read would abort the row.
  Rng rng(2718);
  const Slice slice = RandomSlice(&rng, 40, 30);
  const Frame valid = slice.Encode();
  size_t rejected = 0;
  size_t adopted = 0;
  for (int round = 0; round < 10000; ++round) {
    Frame mutated = valid;
    const size_t edits = 1 + rng.NextBounded(4);
    for (size_t e = 0; e < edits; ++e) {
      uint8_t& byte = mutated.payload[rng.NextBounded(valid.payload.size())];
      if (rng.NextBounded(2) == 0) {
        byte ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      } else {
        byte = static_cast<uint8_t>(rng.NextBounded(256));
      }
    }
    Assignment decoded;
    WorkerState state(0);
    if (!DecodeAssignment(mutated, &decoded).ok() ||
        !state.Apply(std::move(decoded)).ok()) {
      rejected++;
      EXPECT_EQ(state.worker(), nullptr);
      continue;
    }
    adopted++;
    const JoinWorker* worker = state.worker();
    ASSERT_NE(worker, nullptr);
    const FilterTable& table = worker->table();
    for (VectorId position : table.ids_span()) {
      ASSERT_LT(position, state.original_ids().size()) << "round " << round;
    }
    const std::vector<ItemId> items = {1, 50, 100, 200};
    ProbeRequest request;
    request.items = items;
    request.keys.assign(table.keys_span().begin(), table.keys_span().end());
    ProbeScratch scratch;
    const ProbeResponse response = worker->Probe(request, &scratch);
    EXPECT_EQ(response.candidates, table.num_pairs());
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(adopted, 0u);
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
