// Copyright 2026 The skewsearch Authors.
// The one query driver behind ShardedIndex and DynamicIndex. Internal
// to src/core; not part of the public API.
//
// The paper's query is a single procedure: for each repetition r of the
// filter family compute F_r(q), scan the postings of every key, verify
// each distinct candidate, and stop at the first repetition with a hit.
// The static and online indexes differ only in what a shard's postings
// are, so the driver is written once against a *shard view*:
//
//   const FilterFamily& family() const;
//     The family (parameter edition) the shard's postings were built
//     under. Families are told apart by address.
//   template <typename Fn>
//   bool Scan(uint64_t key, QueryStats* stats, Fn&& fn) const;
//     Visits the postings of `key` in scan order as fn(phase, id), adding
//     each posting list's size to stats->candidates before visiting it.
//     Phase 0 is the base table, phase 1 the online delta. Stops and
//     returns true as soon as fn returns true.
//   std::span<const ItemId> Items(VectorId id) const;
//     The vector's items; an empty span means the id is dead.
//
// An index hands the driver its shard count and a `view_at(s)` callable
// returning shard s's view. Hits merge by the scan coordinate
// (repetition, key position, phase, id), which is what makes a sharded
// answer identical to the one-shard answer: the one-shard index checks
// its candidates in exactly that order.

#ifndef SKEWSEARCH_CORE_QUERY_DRIVER_H_
#define SKEWSEARCH_CORE_QUERY_DRIVER_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <tuple>
#include <vector>

#include "core/query_stats.h"
#include "core/skewed_index.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/brute_force.h"
#include "sim/intersect.h"
#include "sim/measures.h"
#include "util/containers.h"
#include "util/timer.h"

namespace skewsearch {
namespace query_internal {

/// First passing candidate of one (repetition, shard) scan, tagged with
/// its scan coordinate for the cross-shard merge.
struct RepHit {
  bool found = false;
  size_t key_idx = 0;
  uint8_t phase = 0;
  VectorId id = 0;
  double similarity = 0.0;
};

/// Per-query workspace, reused across the queries of a batch.
struct Scratch {
  /// The keys of one distinct family (a static index has one family, a
  /// DynamicIndex mid-rebuild two), and the query prepared for it. Only
  /// the first `num_families` slots are in use; the rest keep their
  /// buffers for the next query.
  struct FamilyKeys {
    const FilterFamily* family = nullptr;
    std::vector<uint64_t> keys;
    PreparedVector prepared;
  };
  std::vector<FamilyKeys> families;
  size_t num_families = 0;
  std::vector<size_t> family_of;  ///< shard -> slot in `families`
  /// Ids already checked, in any shard: shards hold disjoint ids
  /// (ShardOf), so one set serves them all.
  PostingSet<VectorId> seen;
  PathGenStats path_gen;
};

/// Points every shard at the key slot of its family and returns the
/// largest repetition count among them.
template <typename ViewAt>
int BindFamilies(size_t num_shards, const ViewAt& view_at, Scratch* scratch) {
  scratch->num_families = 0;
  scratch->family_of.resize(num_shards);
  int max_reps = 0;
  for (size_t s = 0; s < num_shards; ++s) {
    const FilterFamily* family = &view_at(s).family();
    size_t f = 0;
    while (f < scratch->num_families &&
           scratch->families[f].family != family) {
      ++f;
    }
    if (f == scratch->num_families) {
      if (f == scratch->families.size()) scratch->families.emplace_back();
      scratch->families[f].family = family;
      scratch->num_families++;
      max_reps = std::max(max_reps, family->repetitions());
    }
    scratch->family_of[s] = f;
  }
  return max_reps;
}

/// Scans one shard's postings of \p keys (one repetition) until the
/// first live candidate that passes the shard family's verify threshold.
/// A candidate whose size rules the threshold out (MinOverlap) is
/// counted in `size_skips` and not verified; it could not have passed,
/// so the first hit is the one verifying every candidate finds. A
/// verification stops once the threshold is out of reach
/// (IntersectSizeAtLeast) and otherwise counts exactly, so a hit and its
/// similarity are Similarity()'s.
template <typename View>
RepHit ScanRep(const View& view, std::span<const ItemId> query,
               const std::vector<uint64_t>& keys, PostingSet<VectorId>* seen,
               QueryStats* stats) {
  RepHit hit;
  const FilterFamily& family = view.family();
  const double threshold = family.verify_threshold();
  const Measure measure = family.options().verify_measure;
  for (size_t ki = 0; ki < keys.size(); ++ki) {
    const bool stop = view.Scan(keys[ki], stats, [&](uint8_t phase,
                                                     VectorId id) {
      if (!seen->insert(id).second) return false;
      const std::span<const ItemId> items = view.Items(id);
      if (items.empty()) return false;
      const size_t need =
          MinOverlap(measure, query.size(), items.size(), threshold);
      if (need > std::min(query.size(), items.size())) {
        stats->size_skips++;
        return false;
      }
      stats->verifications++;
      const size_t overlap = IntersectSizeAtLeast(query, items, need);
      if (overlap < need) return false;
      hit = RepHit{true, ki, phase, id,
                   SimilarityFromCounts(measure, query.size(), items.size(),
                                        overlap)};
      return true;
    });
    if (stop) break;
  }
  return hit;
}

/// The paper's query: some vector with similarity >= its shard's verify
/// threshold, the first hit in scan order, stopping at the first
/// repetition that has one. Each shard of a repetition scans to its own
/// first hit, in shard order on the calling thread. Records the query.*
/// metrics and, with a live obs::ScopedTrace, the per-phase spans
/// (docs/OBSERVABILITY.md).
template <typename ViewAt>
std::optional<Match> FirstMatch(std::span<const ItemId> query,
                                size_t num_shards, const ViewAt& view_at,
                                QueryStats* stats, Scratch* scratch) {
  // Function-local statics so the registry mutex is taken once per
  // process; per query this adds a handful of relaxed atomic adds and
  // two clock reads per repetition (the filter/verify phase split).
  static obs::Counter* const queries_metric =
      obs::MetricsRegistry::Global().GetCounter("query.count");
  static obs::Counter* const hits_metric =
      obs::MetricsRegistry::Global().GetCounter("query.hits");
  static obs::Counter* const candidates_metric =
      obs::MetricsRegistry::Global().GetCounter("query.candidates");
  static obs::Counter* const verifications_metric =
      obs::MetricsRegistry::Global().GetCounter("query.verifications");
  static obs::Counter* const size_skips_metric =
      obs::MetricsRegistry::Global().GetCounter("query.size_skips");
  static obs::Histogram* const latency_metric =
      obs::MetricsRegistry::Global().GetHistogram("query.latency_ns");
  static obs::Histogram* const repetitions_metric =
      obs::MetricsRegistry::Global().GetHistogram("query.repetitions_probed");
  static obs::Histogram* const fanout_metric =
      obs::MetricsRegistry::Global().GetHistogram("query.rep_fanout");
  static obs::Histogram* const filters_span_metric =
      obs::MetricsRegistry::Global().GetHistogram("span.query.filters");
  static obs::Histogram* const verify_span_metric =
      obs::MetricsRegistry::Global().GetHistogram("span.query.verify");

  Timer timer;
  QueryStats local;
  std::optional<Match> found;
  uint64_t reps_probed = 0;
  int64_t filter_ns = 0;
  int64_t phase_mark = 0;
  if (num_shards > 0 && !query.empty()) {
    const int max_reps = BindFamilies(num_shards, view_at, scratch);
    for (size_t f = 0; f < scratch->num_families; ++f) {
      Scratch::FamilyKeys& entry = scratch->families[f];
      entry.family->Prepare(query, &entry.prepared);
    }
    scratch->seen.clear();
    for (int rep = 0; rep < max_reps && !found; ++rep) {
      reps_probed++;
      const uint64_t rep_candidates_before = local.candidates;
      // A family with fewer repetitions leaves its keys empty, so its
      // shards sit the repetition out.
      for (size_t f = 0; f < scratch->num_families; ++f) {
        Scratch::FamilyKeys& entry = scratch->families[f];
        entry.keys.clear();
        if (rep >= entry.family->repetitions()) continue;
        PathGenStats gen;
        entry.family->ComputeFilters(&entry.prepared,
                                     static_cast<uint32_t>(rep), &entry.keys,
                                     &gen);
        AddPathGenStats(&scratch->path_gen, gen);
        local.filters += entry.keys.size();
      }
      // Everything between phase_mark and here was filter generation;
      // the rest of the repetition is lookup + verification.
      filter_ns += timer.ElapsedNanos() - phase_mark;
      RepHit best;
      for (size_t s = 0; s < num_shards; ++s) {
        const RepHit hit =
            ScanRep(view_at(s), query,
                    scratch->families[scratch->family_of[s]].keys,
                    &scratch->seen, &local);
        if (hit.found &&
            (!best.found || std::tie(hit.key_idx, hit.phase, hit.id) <
                                std::tie(best.key_idx, best.phase, best.id))) {
          best = hit;
        }
      }
      if (best.found) found = Match{best.id, best.similarity};
      phase_mark = timer.ElapsedNanos();
      fanout_metric->Record(local.candidates - rep_candidates_before);
    }
    local.distinct_candidates = scratch->seen.size();
  }
  const int64_t total_ns = timer.ElapsedNanos();
  const int64_t verify_ns = phase_mark - filter_ns;
  local.seconds = static_cast<double>(total_ns) * 1e-9;
  queries_metric->Increment();
  if (found) hits_metric->Increment();
  candidates_metric->Increment(local.candidates);
  verifications_metric->Increment(local.verifications);
  size_skips_metric->Increment(local.size_skips);
  latency_metric->Record(static_cast<uint64_t>(total_ns));
  repetitions_metric->Record(reps_probed);
  filters_span_metric->Record(static_cast<uint64_t>(filter_ns));
  verify_span_metric->Record(static_cast<uint64_t>(verify_ns));
  if (obs::ScopedTrace* trace = obs::ScopedTrace::Current()) {
    trace->Add("span.query.filters", static_cast<uint64_t>(filter_ns));
    trace->Add("span.query.verify", static_cast<uint64_t>(verify_ns));
    trace->Add("query.latency_ns", static_cast<uint64_t>(total_ns));
  }
  if (stats != nullptr) *stats = local;
  return found;
}

/// All distinct live candidates with similarity >= \p threshold, sorted
/// by descending similarity (ties by id); one whose size rules
/// \p threshold out counts in `size_skips`. Exhausts every repetition, so
/// each family's keys are computed up front in one fused pass and each
/// shard is scanned once.
template <typename ViewAt>
std::vector<Match> AllMatches(std::span<const ItemId> query, double threshold,
                              size_t num_shards, const ViewAt& view_at,
                              QueryStats* stats) {
  SKEWSEARCH_SPAN("query.all");
  Timer timer;
  QueryStats local;
  std::vector<Match> out;
  if (num_shards > 0 && !query.empty()) {
    Scratch scratch;
    BindFamilies(num_shards, view_at, &scratch);
    std::vector<size_t> offsets;
    for (size_t f = 0; f < scratch.num_families; ++f) {
      Scratch::FamilyKeys& entry = scratch.families[f];
      entry.family->ComputeAllFilters(query, &entry.keys, &offsets);
      local.filters += entry.keys.size();
    }
    PostingSet<VectorId> seen;
    for (size_t s = 0; s < num_shards; ++s) {
      const auto view = view_at(s);
      const Measure measure = view.family().options().verify_measure;
      for (uint64_t key : scratch.families[scratch.family_of[s]].keys) {
        view.Scan(key, &local, [&](uint8_t /*phase*/, VectorId id) {
          if (!seen.insert(id).second) return false;
          const std::span<const ItemId> items = view.Items(id);
          if (items.empty()) return false;
          const size_t need =
              MinOverlap(measure, query.size(), items.size(), threshold);
          if (need > std::min(query.size(), items.size())) {
            local.size_skips++;
            return false;
          }
          local.verifications++;
          const size_t overlap = IntersectSizeAtLeast(query, items, need);
          if (overlap >= need) {
            out.push_back({id, SimilarityFromCounts(measure, query.size(),
                                                    items.size(), overlap)});
          }
          return false;
        });
      }
    }
    local.distinct_candidates = seen.size();
  }
  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  });
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace query_internal
}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_QUERY_DRIVER_H_
