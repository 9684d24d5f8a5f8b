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
//
// A self-join probe is a build vector, so its candidates already sit
// in the lists of this table that hold it: the worker finds those
// lists through an occurrence index it derives from its own table
// (never shipped), and a request names only the probe, plus the keys
// of lists here that do not hold it (a heavy key's other slices, a
// frozen file's other shards). An R-S probe is not in the table, so
// its request carries every key.
//
// The table's ids are *stored positions*: indexes into the build-side
// dataset the worker verifies against. In-process and frozen workers
// verify against the whole build side, so a position is the VectorId
// itself. A remote worker stores only the vectors shipped to it, in
// ascending VectorId order (a re-ship merges by id), and keeps the
// position -> VectorId map beside them; its slices arrive over
// positions already (a wire v6 Assignment, see transport/session.h), so
// it adopts them without mapping a posting. Either way, stored
// positions ascend with VectorIds.

#ifndef SKEWSEARCH_DISTRIBUTED_WORKER_H_
#define SKEWSEARCH_DISTRIBUTED_WORKER_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/inverted_index.h"
#include "data/dataset.h"
#include "distributed/messages.h"
#include "sim/measures.h"

namespace skewsearch {

/// \brief The candidate dedup state JoinWorker::Probe reuses across
/// probes: one stamp per stored position and the current probe's stamp.
///
/// The caller owns it and reuses it for every probe one thread serves;
/// threads probing concurrently each need their own. Probe sizes it
/// lazily, at 4 bytes per stored vector of the largest worker it has
/// served, so a fresh scratch costs nothing until its first probe.
class ProbeScratch {
 private:
  friend class JoinWorker;

  /// Covers \p positions positions and returns a stamp no position holds
  /// yet. Every held stamp is at most the last one returned, and a
  /// position added since holds 0, so advancing the counter is enough;
  /// when it wraps, the stamps are cleared instead.
  uint32_t NextStamp(size_t positions);

  std::vector<uint32_t> stamps_;
  uint32_t stamp_ = 0;
};

/// \brief One worker of the distributed all-pairs join.
///
/// A worker takes ownership of its frozen table slice. Probe() is const
/// and safe to call concurrently, each caller with its own ProbeScratch.
/// The build dataset and the id map are borrowed and must outlive the
/// worker.
class JoinWorker {
 public:
  /// \param worker_id this worker's index in the plan.
  /// \param table the frozen posting slices assigned to this worker,
  ///   over stored positions: every id it holds must index
  ///   \p build_data (the build, BuildFromFrozen and the shard session
  ///   check that; a remote worker's state makes them so). Nothing
  ///   here checks it again.
  /// \param build_data the stored vectors the positions index.
  /// \param threshold similarity a pair must reach to be emitted.
  /// \param measure similarity measure used for verification.
  /// \param original_ids the VectorId of each stored position, strictly
  ///   ascending, for a worker holding only the shipped subset of the
  ///   build side (the remote `join-worker` state — see
  ///   transport/session.h). Requests and responses always carry
  ///   original VectorIds. nullptr (the in-process and frozen cases)
  ///   means positions are the ids.
  JoinWorker(int worker_id, FilterTable table, const Dataset* build_data,
             double threshold, Measure measure,
             const std::vector<VectorId>* original_ids = nullptr);

  /// Answers one probe and returns the matches reaching the threshold.
  /// An R-S request (exclude_left_and_below false) looks up each of its
  /// keys. A self-join request first reads every list of this table
  /// that holds the probe and an id above it, from just after the
  /// probe's posting on (the occurrence index stores those ranges), then
  /// looks up its keys, which name lists here that do not hold the
  /// probe; empty items mean this worker's stored copy of the probe,
  /// which must exist (Stores). A looked-up list is read whole. Each
  /// distinct candidate is skipped when it is at or below the probe in
  /// a self-join (one position bound per probe: a list may hold the
  /// probe twice, and a looked-up list ids below it) or when its size
  /// rules the threshold out (MinOverlap), and verified otherwise, by
  /// an intersection that stops once the threshold is out of reach
  /// (IntersectSizeAtLeast). `candidates` counts every entry of each
  /// list reached, the part of a list at or below the probe included,
  /// though it is never read. Dedups by stamping \p scratch, so no
  /// entry is hashed; \p scratch may be reused for any worker's next
  /// probe.
  ProbeResponse Probe(const ProbeRequest& request,
                      ProbeScratch* scratch) const;

  /// True when this worker stores vector \p id, so a self-join request
  /// may leave its items out.
  bool Stores(VectorId id) const;

  int id() const { return worker_id_; }

  /// Distinct filter keys (or heavy-key slices) this worker owns.
  size_t num_keys() const { return table_.num_keys(); }

  /// Posting entries stored on this worker.
  size_t num_entries() const { return table_.num_pairs(); }

  /// Distinct build-side vectors referenced by this worker's postings —
  /// the vectors a real deployment would have to ship here. Summing
  /// this over workers and dividing by n gives the duplication factor.
  size_t distinct_vectors() const { return distinct_vectors_; }

  /// The frozen posting slices this worker serves, over stored
  /// positions (a coordinator's in-process worker encodes its table
  /// into an Assignment, wire::EncodeAssignment; there positions are
  /// the ids).
  const FilterTable& table() const { return table_; }

 private:
  /// What a self-join probe reads besides the table, derived from it
  /// once. Position p's suffixes are suffixes[offsets[p] ..
  /// offsets[p + 1]): one per posting of p in a list that also holds a
  /// larger VectorId, the [begin, end) range of the table's ids after
  /// that posting (8 bytes), so a probe reaches only lists where an id
  /// above it can pair and reads none of a list's ids below it.
  /// list_entries[p] sums the whole lengths of those lists, one term
  /// per suffix: the entries a probe of p reports scanned. Positions
  /// ascend with VectorIds, so a list's largest VectorId is its last
  /// entry's.
  struct Occurrences {
    struct Suffix {
      uint32_t begin;
      uint32_t end;
    };
    std::vector<uint32_t> offsets;
    std::vector<Suffix> suffixes;
    std::vector<uint64_t> list_entries;
  };
  struct LazyOccurrences {
    std::once_flag built;
    Occurrences index;
  };

  /// The occurrence index, built at the first self-join probe that
  /// this worker stores, so an R-S join never builds one. Thread-safe.
  const Occurrences& occurrences() const;

  /// The number of stored positions whose VectorId is at most \p id:
  /// one binary search over the id map. This worker stores \p id
  /// exactly when the last of them holds it.
  size_t PositionsUpTo(VectorId id) const;

  /// The VectorId stored at \p position.
  VectorId OriginalId(VectorId position) const {
    return original_ids_ == nullptr ? position : (*original_ids_)[position];
  }

  int worker_id_;
  FilterTable table_;
  const Dataset* build_data_;
  double threshold_;
  Measure measure_;
  const std::vector<VectorId>* original_ids_;
  size_t distinct_vectors_ = 0;
  std::unique_ptr<LazyOccurrences> occurrences_ =
      std::make_unique<LazyOccurrences>();
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_WORKER_H_
