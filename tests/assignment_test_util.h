// Copyright 2026 The skewsearch Authors.
// Hand-made wire v6 Assignment frames (layout: docs/WIRE_PROTOCOL.md,
// "Assignment"). A test spells out the (key, ids) postings and the
// (id, items) vectors a coordinator would ship, and the helper writes
// them exactly as given, so a frame can break any rule the worker
// checks. ExpectedAck gives the ack a session cross-checks a valid one
// against.

#ifndef SKEWSEARCH_TESTS_ASSIGNMENT_TEST_UTIL_H_
#define SKEWSEARCH_TESTS_ASSIGNMENT_TEST_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "distributed/transport/wire.h"

namespace skewsearch {
namespace test {

/// The Assignment frame at \p epoch shipping \p postings, as (filter key,
/// VectorIds) pairs, and \p vectors, as (VectorId, items) pairs, in the
/// order given. A posting id is written as the index of its first pair
/// in \p vectors: its position. An id no pair ships is written as
/// vectors.size(), one past the last position.
inline wire::Frame AssignmentFrame(
    const std::vector<std::pair<uint64_t, std::vector<VectorId>>>& postings,
    const std::vector<std::pair<VectorId, std::vector<ItemId>>>& vectors,
    double threshold = 0.5, uint32_t epoch = 0,
    Measure measure = Measure::kBraunBlanquet) {
  wire::PayloadWriter writer;
  writer.U32(epoch);
  writer.F64(threshold);
  writer.U8(static_cast<uint8_t>(measure));
  writer.U32(static_cast<uint32_t>(postings.size()));
  for (const auto& [key, ids] : postings) writer.U64(key);
  for (const auto& [key, ids] : postings) {
    writer.U32(static_cast<uint32_t>(ids.size()));
  }
  for (const auto& [key, ids] : postings) {
    for (VectorId id : ids) {
      const auto shipped =
          std::find_if(vectors.begin(), vectors.end(),
                       [id](const auto& vector) { return vector.first == id; });
      writer.U32(static_cast<uint32_t>(shipped - vectors.begin()));
    }
  }
  writer.U32(static_cast<uint32_t>(vectors.size()));
  for (const auto& [id, items] : vectors) writer.U32(id);
  for (const auto& [id, items] : vectors) {
    writer.U32(static_cast<uint32_t>(items.size()));
  }
  for (const auto& [id, items] : vectors) {
    writer.Bytes(items.data(), items.size() * sizeof(ItemId));
  }
  return {wire::FrameType::kAssignment, std::move(writer).Take()};
}

/// The AssignmentAck a worker answers the valid Assignment \p frame
/// with: its epoch and the keys, positions and vectors it ships.
inline wire::AssignmentAckFrame ExpectedAck(const wire::Frame& frame) {
  wire::Assignment assignment;
  wire::AssignmentAckFrame ack;
  if (wire::DecodeAssignment(frame, &assignment, &ack.epoch).ok()) {
    ack.num_keys = assignment.keys.size();
    ack.num_entries = assignment.positions.size();
    ack.distinct_vectors = assignment.vector_ids.size();
  }
  return ack;
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_ASSIGNMENT_TEST_UTIL_H_
