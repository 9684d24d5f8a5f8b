#include "distributed/worker.h"

#include <algorithm>
#include <numeric>
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

const JoinWorker::Occurrences& JoinWorker::occurrences() const {
  std::call_once(occurrences_->built, [this] {
    Occurrences& index = occurrences_->index;
    index.offsets.assign(build_data_->size() + 1, 0);
    // Positions ascend with VectorIds, so a list's last position holds
    // its largest id.
    for (size_t k = 0; k < table_.num_keys(); ++k) {
      const std::span<const VectorId> postings = table_.postings_at(k);
      for (VectorId position : postings) {
        if (position < postings.back()) index.offsets[position + 1]++;
      }
    }
    std::partial_sum(index.offsets.begin(), index.offsets.end(),
                     index.offsets.begin());
    index.lists.resize(index.offsets.back());
    std::vector<uint32_t> cursor(index.offsets.begin(),
                                 index.offsets.end() - 1);
    for (size_t k = 0; k < table_.num_keys(); ++k) {
      const std::span<const VectorId> postings = table_.postings_at(k);
      for (VectorId position : postings) {
        if (position < postings.back()) {
          index.lists[cursor[position]++] = static_cast<uint32_t>(k);
        }
      }
    }
  });
  return occurrences_->index;
}

size_t JoinWorker::PositionsUpTo(VectorId id) const {
  if (original_ids_ == nullptr) {
    return std::min<size_t>(size_t{id} + 1, build_data_->size());
  }
  return static_cast<size_t>(
      std::upper_bound(original_ids_->begin(), original_ids_->end(), id) -
      original_ids_->begin());
}

bool JoinWorker::Stores(VectorId id) const {
  const size_t up_to = PositionsUpTo(id);
  return up_to > 0 && OriginalId(static_cast<VectorId>(up_to - 1)) == id;
}

ProbeResponse JoinWorker::Probe(const ProbeRequest& request,
                                ProbeScratch* scratch) const {
  ProbeResponse response;
  response.left = request.left;
  std::span<const ItemId> query = request.items;
  // In a self-join, the positions below `below` hold the ids at or
  // below the probe, and the probe's own lists are those holding it and
  // an id above it.
  size_t below = 0;
  std::span<const uint32_t> lists;
  if (request.exclude_left_and_below) {
    below = PositionsUpTo(request.left);
    const auto position = static_cast<VectorId>(below - 1);
    if (below > 0 && OriginalId(position) == request.left) {
      const Occurrences& index = occurrences();
      if (query.empty()) query = build_data_->Get(position);
      lists = std::span<const uint32_t>(index.lists)
                  .subspan(index.offsets[position],
                           index.offsets[position + 1] -
                               index.offsets[position]);
    }
  }
  // Same candidate-collection semantics as QueryAll: dedup ids across
  // every list (and repetition), then verify each survivor once,
  // counting every posting entry scanned. The self-join exclusion and
  // the size bound run before verification, so a candidate at or below
  // the probe, or one too small or too large to reach the threshold,
  // costs no intersection.
  const uint32_t stamp = scratch->NextStamp(build_data_->size());
  uint32_t* const stamps = scratch->stamps_.data();
  auto scan = [&](std::span<const VectorId> postings) {
    response.candidates += postings.size();
    for (VectorId position : postings) {
      if (stamps[position] == stamp) continue;
      stamps[position] = stamp;
      if (position < below) continue;
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
  };
  for (uint32_t list : lists) scan(table_.postings_at(list));
  for (uint64_t key : request.keys) scan(table_.Lookup(key));
  return response;
}

}  // namespace skewsearch
