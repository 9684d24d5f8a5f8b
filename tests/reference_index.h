// Copyright 2026 The skewsearch Authors.
// The reference every index test compares against, and the one helper
// that compares match lists.
//
// Section 3 of the paper answers a query from the vectors that share a
// filter with it ("for each filter f we can look up {x in S : f in
// F(x)}"), so every index flavor's answer is a function of the filter
// family and the live set alone. ReferenceIndex computes that function
// from its definition: it keeps the filters of every live vector in a
// plain key -> ids map and shares no code with the indexes past the
// filter family, so an index that drops, invents or misorders a match
// disagrees with it.
//
// The first match. The indexes post every key of F(x), all repetitions
// in one table, and scan a query in (repetition, key position, phase,
// id) order, where phase 0 is a shard's base table and phase 1 its
// online delta. The reference scans in (repetition, key position, id)
// order. The two agree when every delta id exceeds every base id, in
// every shard. A sequential mutation script keeps that as long as it
// compacts every shard or none: ids are allocated in ascending order,
// and a compaction folds its shard's delta into the base, so a state
// with only some shards compacted may move the first match (never the
// set of matches).

#ifndef SKEWSEARCH_TESTS_REFERENCE_INDEX_H_
#define SKEWSEARCH_TESTS_REFERENCE_INDEX_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/query_stats.h"
#include "core/skewed_index.h"
#include "sim/brute_force.h"
#include "sim/measures.h"

namespace skewsearch {
namespace test {

/// The live ids and their items: the state an index must serve.
using LiveSet = std::map<VectorId, std::vector<ItemId>>;

/// The order every QueryAll returns: descending similarity, ties by id.
inline bool ByRank(const Match& a, const Match& b) {
  if (a.similarity != b.similarity) return a.similarity > b.similarity;
  return a.id < b.id;
}

/// \brief The paper's query over a live set, answered without an index.
class ReferenceIndex {
 public:
  /// \p family must outlive the reference.
  ReferenceIndex(const FilterFamily* family, const LiveSet& live)
      : family_(family), live_(live) {
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    for (const auto& [id, items] : live_) {
      family_->ComputeAllFilters(items, &keys, &offsets);
      for (uint64_t key : keys) holders_[key].push_back(id);
    }
  }

  /// Every live x with F(x) and F(q) sharing a key and similarity >=
  /// \p threshold, sorted by descending similarity, ties by id.
  std::vector<Match> QueryAll(std::span<const ItemId> q,
                              double threshold) const {
    std::vector<Match> out;
    for (const auto& [id, first_key] : SharedKeys(q)) {
      const double sim = Similarity(measure(), q, live_.at(id));
      if (sim >= threshold) out.push_back({id, sim});
    }
    std::sort(out.begin(), out.end(), ByRank);
    return out;
  }

  /// The first repetition r in which some live x holds a key of F_r(q)
  /// and passes the verify threshold; in it, the least (position in
  /// F_r(q) of the first key x holds, id).
  std::optional<Match> Query(std::span<const ItemId> q) const {
    std::optional<Match> best;
    std::pair<size_t, size_t> best_key;
    for (const auto& [id, first_key] : SharedKeys(q)) {  // ascending id
      if (best && first_key >= best_key) continue;
      const double sim = Similarity(measure(), q, live_.at(id));
      if (sim < verify_threshold()) continue;
      best = Match{id, sim};
      best_key = first_key;
    }
    return best;
  }

  Measure measure() const { return family_->options().verify_measure; }
  double verify_threshold() const { return family_->verify_threshold(); }

 private:
  /// Each live id that holds a key of F(q), with the first (repetition,
  /// position in F_r(q)) of such a key.
  std::map<VectorId, std::pair<size_t, size_t>> SharedKeys(
      std::span<const ItemId> q) const {
    std::map<VectorId, std::pair<size_t, size_t>> shared;
    if (q.empty()) return shared;
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    family_->ComputeAllFilters(q, &keys, &offsets);
    for (size_t rep = 0; rep + 1 < offsets.size(); ++rep) {
      for (size_t i = offsets[rep]; i < offsets[rep + 1]; ++i) {
        const auto holders = holders_.find(keys[i]);
        if (holders == holders_.end()) continue;
        for (VectorId id : holders->second) {
          shared.try_emplace(id, rep, i - offsets[rep]);
        }
      }
    }
    return shared;
  }

  const FilterFamily* family_;
  LiveSet live_;
  /// Each key of F(x), every repetition, with the live ids x it is in.
  std::unordered_map<uint64_t, std::vector<VectorId>> holders_;
};

/// Match for match, similarity bits included; \p ctx names the case.
inline void ExpectSameMatches(const std::vector<Match>& want,
                              const std::vector<Match>& got,
                              const std::string& ctx) {
  ASSERT_EQ(want.size(), got.size()) << ctx;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << ctx << " entry " << i;
    EXPECT_EQ(want[i].similarity, got[i].similarity) << ctx << " entry " << i;
  }
}

/// A first match: none on either side, or the same one.
inline void ExpectSameMatches(const std::optional<Match>& want,
                              const std::optional<Match>& got,
                              const std::string& ctx) {
  ExpectSameMatches(want ? std::vector<Match>{*want} : std::vector<Match>{},
                    got ? std::vector<Match>{*got} : std::vector<Match>{},
                    ctx);
}

/// A batch of first matches, query by query.
inline void ExpectSameMatches(const std::vector<std::optional<Match>>& want,
                              const std::vector<std::optional<Match>>& got,
                              const std::string& ctx = "batch") {
  ASSERT_EQ(want.size(), got.size()) << ctx;
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameMatches(want[i], got[i], ctx + " query " + std::to_string(i));
  }
}

/// Every deterministic work counter (all but the clock).
inline void ExpectSameCounters(const QueryStats& want, const QueryStats& got,
                               const std::string& ctx) {
  EXPECT_EQ(want.filters, got.filters) << ctx;
  EXPECT_EQ(want.candidates, got.candidates) << ctx;
  EXPECT_EQ(want.distinct_candidates, got.distinct_candidates) << ctx;
  EXPECT_EQ(want.verifications, got.verifications) << ctx;
  EXPECT_EQ(want.size_skips, got.size_skips) << ctx;
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_REFERENCE_INDEX_H_
