#include "distributed/worker.h"

#include <algorithm>
#include <span>
#include <utility>

namespace skewsearch {

uint32_t ProbeScratch::NextStamp(size_t positions) {
  if (stamps_.size() < positions) stamps_.resize(positions, 0);
  if (++stamp_ == 0) {
    std::fill(stamps_.begin(), stamps_.end(), 0);
    stamp_ = 1;
  }
  return stamp_;
}

JoinWorker::JoinWorker(int worker_id, FilterTable table,
                       const Dataset* build_data, double threshold,
                       Measure measure,
                       const std::vector<VectorId>* original_ids)
    : worker_id_(worker_id),
      table_(std::move(table)),
      build_data_(build_data),
      threshold_(threshold),
      measure_(measure),
      original_ids_(original_ids) {
  // A bitmap over the stored positions counts the distinct vectors.
  std::vector<bool> seen(build_data_->size(), false);
  for (VectorId position : table_.ids_span()) {
    if (seen[position]) continue;
    seen[position] = true;
    distinct_vectors_++;
  }
}

ProbeResponse JoinWorker::Probe(const ProbeRequest& request,
                                ProbeScratch* scratch) const {
  ProbeResponse response;
  response.left = request.left;
  const std::span<const ItemId> query = request.items;
  // Same candidate-collection semantics as QueryAll: dedup ids across
  // every key (and repetition), then verify each survivor once, counting
  // every posting entry scanned. The self-join exclusion and the size
  // bound run before verification, so a candidate at or below the probe,
  // or one too small or too large to reach the threshold, costs no
  // intersection.
  const uint32_t stamp = scratch->NextStamp(build_data_->size());
  uint32_t* const stamps = scratch->stamps_.data();
  for (uint64_t key : request.keys) {
    const std::span<const VectorId> postings = table_.Lookup(key);
    response.candidates += postings.size();
    for (VectorId position : postings) {
      if (stamps[position] == stamp) continue;
      stamps[position] = stamp;
      if (request.exclude_left_and_below &&
          OriginalId(position) <= request.left) {
        continue;
      }
      const std::span<const ItemId> items = build_data_->Get(position);
      if (!SizesCanReach(measure_, query.size(), items.size(), threshold_)) {
        continue;
      }
      response.verifications++;
      const double sim = Similarity(measure_, query, items);
      if (sim >= threshold_) {
        response.matches.push_back({OriginalId(position), sim});
      }
    }
  }
  return response;
}

}  // namespace skewsearch
