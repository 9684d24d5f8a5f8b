// Copyright 2026 The skewsearch Authors.
// JoinWorker: one simulated machine of the distributed join.
//
// A worker owns a standalone posting table holding exactly the
// (filter key, id) slices the PartitionPlan assigned to it — a strict
// subset of the monolithic index's table, with heavy keys' posting
// lists split across slice owners. It answers ProbeRequests against
// that table and verifies candidates locally, so the only thing it
// sends back is verified pairs. Workers share no mutable state; the
// build-side dataset they verify against is read-only (in a real
// deployment the vectors a worker's postings reference are shipped to
// it once at plan time — that shipping volume is exactly the
// duplication factor the planner minimizes for light keys).

#ifndef SKEWSEARCH_DISTRIBUTED_WORKER_H_
#define SKEWSEARCH_DISTRIBUTED_WORKER_H_

#include <cstddef>

#include "core/inverted_index.h"
#include "data/dataset.h"
#include "distributed/messages.h"
#include "sim/measures.h"

namespace skewsearch {

/// \brief One worker of the distributed all-pairs join.
///
/// A worker takes ownership of its frozen table slice; Probe() is const and
/// safe to call concurrently (workers are typically driven from one
/// thread each, but nothing forbids sharing one). The build dataset is
/// borrowed and must outlive the worker.
class JoinWorker {
 public:
  /// \param worker_id this worker's index in the plan.
  /// \param table the frozen posting slices assigned to this worker.
  /// \param build_data the indexed (right) side the postings reference.
  /// \param threshold similarity a pair must reach to be emitted.
  /// \param measure similarity measure used for verification.
  /// \param dense_positions optional map from the VectorIds appearing in
  ///   \p table to positions within \p build_data, for workers holding
  ///   only the shipped subset of the build side stored densely (the
  ///   remote `join-worker` reconstruction — see transport/session.h);
  ///   every table id must be mapped. Ids in requests and responses are
  ///   always the original VectorIds. nullptr (the in-process case)
  ///   means \p build_data is indexed by the original ids directly. The
  ///   map is borrowed and must outlive the worker.
  JoinWorker(int worker_id, FilterTable table, const Dataset* build_data,
             double threshold, Measure measure,
             const PostingMap<VectorId, VectorId>* dense_positions = nullptr);

  /// Answers one probe: looks up every key, dedups candidate ids,
  /// verifies each against the probe vector, and returns the matches
  /// reaching the threshold.
  ProbeResponse Probe(const ProbeRequest& request) const;

  int id() const { return worker_id_; }

  /// Distinct filter keys (or heavy-key slices) this worker owns.
  size_t num_keys() const { return table_.num_keys(); }

  /// Posting entries stored on this worker.
  size_t num_entries() const { return table_.num_pairs(); }

  /// Distinct build-side vectors referenced by this worker's postings —
  /// the vectors a real deployment would have to ship here. Summing
  /// this over workers and dividing by n gives the duplication factor.
  size_t distinct_vectors() const { return distinct_vectors_; }

  /// The frozen posting slices this worker serves (what a transport
  /// serializes into a WorkerAssignment).
  const FilterTable& table() const { return table_; }

 private:
  /// Where \p id's vector sits in build_data.
  VectorId StoredPosition(VectorId id) const;

  int worker_id_;
  FilterTable table_;
  const Dataset* build_data_;
  double threshold_;
  Measure measure_;
  const PostingMap<VectorId, VectorId>* dense_positions_;
  size_t distinct_vectors_ = 0;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_WORKER_H_
