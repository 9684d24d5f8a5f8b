// Copyright 2026 The skewsearch Authors.
// The coordinator <-> worker wire types of the distributed join.
//
// These are deliberately plain aggregates of POD fields and flat
// vectors: everything that crosses the planner/worker seam is spelled
// out here, so a transport can serialize them without touching any
// index internals — transport/wire.h does exactly that (ProbeBatch /
// ResponseBatch frames; docs/WIRE_PROTOCOL.md is the normative spec).
// The only state the seam does NOT carry is the read-only FilterFamily
// and the build-side vectors a worker verifies against — those are
// distributed once at attach time (the vectors shipped per worker are
// what the duplication factor counts; see transport/session.h's
// Assignment phase). Ids here are always original VectorIds. A remote
// worker stores its shipped vectors by position and receives its slices
// over positions; an id map serves only to place a re-shipped slice and
// to find a self-join probe's stored copy.

#ifndef SKEWSEARCH_DISTRIBUTED_MESSAGES_H_
#define SKEWSEARCH_DISTRIBUTED_MESSAGES_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "sim/brute_force.h"

namespace skewsearch {

/// \brief One probe routed to one worker.
struct ProbeRequest {
  /// Id of the probing (left-side) vector.
  VectorId left = 0;

  /// The probe vector's items (the payload a wire format would inline;
  /// in-process it is a view into the probing dataset). A self-join
  /// request leaves them empty when the worker stores the probe, and
  /// the worker verifies against its stored copy.
  std::span<const ItemId> items;

  /// True for self-joins: the worker only emits matches with id > left,
  /// so each unordered pair is reported once and self-matches never.
  /// It also pairs the probe against every list of its table that holds
  /// the probe and an id above it (JoinWorker::Probe); `keys` add only
  /// lists that do not hold it.
  bool exclude_left_and_below = false;

  /// Filter keys of F(left) this worker owns under the plan. An R-S
  /// join computes them with the filter kernel and sends all of them,
  /// in repetition-major order. A self-join sends only the keys whose
  /// list on this worker does not hold `left` but holds an id above it
  /// (a heavy key's other slices, a frozen file's other shards), in
  /// slice order (the holding worker's slices in turn, ascending key
  /// within each); under a plan without heavy keys it sends none. May
  /// repeat a key when the table holds a (key, id) pair twice; the
  /// worker dedups candidates, so repeats are harmless.
  std::vector<uint64_t> keys;
};

/// \brief A worker's answer to one ProbeRequest.
struct ProbeResponse {
  /// Echo of ProbeRequest::left.
  VectorId left = 0;

  /// Verified matches from this worker's posting slices: similarity >=
  /// the join threshold, each distinct id at most once per response.
  /// The same id may appear in another worker's response (the
  /// coordinator dedups cross-worker).
  std::vector<Match> matches;

  /// The entries of the posting lists this request reaches. A
  /// self-join list's part at or below the probe still counts, though
  /// the worker skips it without reading it.
  uint64_t candidates = 0;

  /// Intersections computed: the distinct candidates left after the
  /// self-join exclusion and the size bound (MinOverlap).
  uint64_t verifications = 0;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_MESSAGES_H_
