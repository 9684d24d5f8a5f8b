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
    const size_t positions = build_data_->size();
    std::vector<VectorId> top(table_.num_keys(), 0);
    index.offsets.assign(positions + 1, 0);
    for (size_t k = 0; k < table_.num_keys(); ++k) {
      for (VectorId position : table_.postings_at(k)) {
        top[k] = std::max(top[k], OriginalId(position));
      }
      for (VectorId position : table_.postings_at(k)) {
        if (OriginalId(position) < top[k]) index.offsets[position + 1]++;
      }
    }
    std::partial_sum(index.offsets.begin(), index.offsets.end(),
                     index.offsets.begin());
    index.lists.resize(index.offsets.back());
    std::vector<uint32_t> cursor(index.offsets.begin(),
                                 index.offsets.end() - 1);
    for (size_t k = 0; k < table_.num_keys(); ++k) {
      for (VectorId position : table_.postings_at(k)) {
        if (OriginalId(position) < top[k]) {
          index.lists[cursor[position]++] = static_cast<uint32_t>(k);
        }
      }
    }
    if (original_ids_ != nullptr) {
      index.by_id.resize(positions);
      std::iota(index.by_id.begin(), index.by_id.end(), VectorId{0});
      std::sort(index.by_id.begin(), index.by_id.end(),
                [this](VectorId a, VectorId b) {
                  return OriginalId(a) < OriginalId(b);
                });
    }
  });
  return occurrences_->index;
}

std::optional<VectorId> JoinWorker::PositionOf(const Occurrences& index,
                                               VectorId id) const {
  if (original_ids_ == nullptr) {
    if (id < build_data_->size()) return id;
    return std::nullopt;
  }
  const auto found = std::lower_bound(
      index.by_id.begin(), index.by_id.end(), id,
      [this](VectorId position, VectorId v) {
        return OriginalId(position) < v;
      });
  if (found == index.by_id.end() || OriginalId(*found) != id) {
    return std::nullopt;
  }
  return *found;
}

bool JoinWorker::Stores(VectorId id) const {
  return PositionOf(occurrences(), id).has_value();
}

ProbeResponse JoinWorker::Probe(const ProbeRequest& request,
                                ProbeScratch* scratch) const {
  ProbeResponse response;
  response.left = request.left;
  std::span<const ItemId> query = request.items;
  // A self-join probe's own lists: those holding it and an id above it.
  std::span<const uint32_t> lists;
  if (request.exclude_left_and_below) {
    const Occurrences& index = occurrences();
    if (const std::optional<VectorId> position =
            PositionOf(index, request.left)) {
      if (query.empty()) query = build_data_->Get(*position);
      lists = std::span<const uint32_t>(index.lists)
                  .subspan(index.offsets[*position],
                           index.offsets[*position + 1] -
                               index.offsets[*position]);
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
  };
  for (uint32_t list : lists) scan(table_.postings_at(list));
  for (uint64_t key : request.keys) scan(table_.Lookup(key));
  return response;
}

}  // namespace skewsearch
