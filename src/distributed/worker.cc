#include "distributed/worker.h"

#include <utility>
#include <vector>

namespace skewsearch {

JoinWorker::JoinWorker(
    int worker_id, FilterTable table, const Dataset* build_data,
    double threshold, Measure measure,
    const PostingMap<VectorId, VectorId>* dense_positions)
    : worker_id_(worker_id),
      table_(std::move(table)),
      build_data_(build_data),
      threshold_(threshold),
      measure_(measure),
      dense_positions_(dense_positions) {
  // A bitmap over build_data's positions counts the distinct vectors.
  // A position beyond it (only a corrupt frozen payload holds one) is
  // not counted.
  std::vector<bool> seen(build_data_->size(), false);
  for (VectorId id : table_.ids_span()) {
    const VectorId stored = StoredPosition(id);
    if (stored >= seen.size() || seen[stored]) continue;
    seen[stored] = true;
    distinct_vectors_++;
  }
}

VectorId JoinWorker::StoredPosition(VectorId id) const {
  // Reconstructed (remote) workers store only the shipped vectors,
  // densely; the session layer guarantees every table id is mapped.
  return dense_positions_ == nullptr ? id : dense_positions_->find(id)->second;
}

ProbeResponse JoinWorker::Probe(const ProbeRequest& request) const {
  ProbeResponse response;
  response.left = request.left;
  std::span<const ItemId> query = request.items;
  // Same candidate-collection semantics as QueryAll: dedup ids across
  // every key (and repetition), then verify each survivor once, counting
  // every posting entry scanned. The self-join exclusion runs before
  // verification, so an id at or below the probe costs no similarity.
  PostingSet<VectorId> seen;
  for (uint64_t key : request.keys) {
    auto postings = table_.Lookup(key);
    response.candidates += postings.size();
    for (VectorId id : postings) {
      if (!seen.insert(id).second) continue;
      if (request.exclude_left_and_below && id <= request.left) continue;
      response.verifications++;
      double sim =
          Similarity(measure_, query, build_data_->Get(StoredPosition(id)));
      if (sim >= threshold_) response.matches.push_back({id, sim});
    }
  }
  return response;
}

}  // namespace skewsearch
