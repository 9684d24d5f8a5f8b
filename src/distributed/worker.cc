#include "distributed/worker.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <utility>

#include "sim/intersect.h"

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
    index.list_entries.assign(build_data_->size(), 0);
    // Positions ascend with VectorIds, so a list's last position holds
    // its largest id.
    const std::span<const uint32_t> bounds = table_.offsets_span();
    const std::span<const VectorId> ids = table_.ids_span();
    for (size_t k = 0; k < table_.num_keys(); ++k) {
      const uint32_t end = bounds[k + 1];
      for (uint32_t e = bounds[k]; e < end; ++e) {
        if (ids[e] < ids[end - 1]) {
          index.offsets[ids[e] + 1]++;
          index.list_entries[ids[e]] += end - bounds[k];
        }
      }
    }
    std::partial_sum(index.offsets.begin(), index.offsets.end(),
                     index.offsets.begin());
    index.suffixes.resize(index.offsets.back());
    std::vector<uint32_t> cursor(index.offsets.begin(),
                                 index.offsets.end() - 1);
    for (size_t k = 0; k < table_.num_keys(); ++k) {
      const uint32_t end = bounds[k + 1];
      for (uint32_t e = bounds[k]; e < end; ++e) {
        if (ids[e] < ids[end - 1]) {
          index.suffixes[cursor[ids[e]]++] = {e + 1, end};
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
  // an id above it: their entries count whole, and only the ranges
  // after the probe's postings are read.
  size_t below = 0;
  std::span<const Occurrences::Suffix> suffixes;
  if (request.exclude_left_and_below) {
    below = PositionsUpTo(request.left);
    const auto position = static_cast<VectorId>(below - 1);
    if (below > 0 && OriginalId(position) == request.left) {
      const Occurrences& index = occurrences();
      if (query.empty()) query = build_data_->Get(position);
      suffixes = std::span<const Occurrences::Suffix>(index.suffixes)
                     .subspan(index.offsets[position],
                              index.offsets[position + 1] -
                                  index.offsets[position]);
      response.candidates += index.list_entries[position];
    }
  }
  // Same candidate-collection semantics as QueryAll: dedup ids across
  // every list (and repetition), then verify each survivor once. The
  // self-join exclusion and the size bound run before verification, so
  // a candidate at or below the probe, or one too small or too large to
  // reach the threshold, costs no intersection, and an intersection
  // stops once the threshold is out of reach.
  const uint32_t stamp = scratch->NextStamp(build_data_->size());
  uint32_t* const stamps = scratch->stamps_.data();
  auto visit = [&](VectorId position) {
    if (position < below || stamps[position] == stamp) return;
    stamps[position] = stamp;
    const std::span<const ItemId> items = build_data_->Get(position);
    const size_t need =
        MinOverlap(measure_, query.size(), items.size(), threshold_);
    if (need > std::min(query.size(), items.size())) return;
    response.verifications++;
    const size_t overlap = IntersectSizeAtLeast(query, items, need);
    if (overlap >= need) {
      response.matches.push_back(
          {OriginalId(position),
           SimilarityFromCounts(measure_, query.size(), items.size(),
                                overlap)});
    }
  };
  const std::span<const VectorId> ids = table_.ids_span();
  for (const Occurrences::Suffix& suffix : suffixes) {
    for (uint32_t e = suffix.begin; e < suffix.end; ++e) visit(ids[e]);
  }
  for (uint64_t key : request.keys) {
    const std::span<const VectorId> postings = table_.Lookup(key);
    response.candidates += postings.size();
    for (VectorId position : postings) visit(position);
  }
  return response;
}

}  // namespace skewsearch
