#include "core/sharded_index.h"

#include <algorithm>

#include "core/batch.h"
#include "core/frozen_shard.h"
#include "core/index_io.h"
#include "hashing/mix.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/measures.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

constexpr int kMaxShards = 1 << 12;

}  // namespace

int ShardedIndex::ShardOf(VectorId id, int num_shards) {
  return static_cast<int>(Mix64(id) % static_cast<uint64_t>(num_shards));
}

Status ShardedIndex::Build(const Dataset* data,
                           const ProductDistribution* dist,
                           const ShardedIndexOptions& options) {
  if (data == nullptr || dist == nullptr) {
    return Status::InvalidArgument("data and dist must be non-null");
  }
  if (data->size() < 2) {
    return Status::InvalidArgument("dataset needs at least 2 vectors");
  }
  if (data->dimension() > dist->dimension()) {
    return Status::InvalidArgument(
        "dataset items exceed the distribution's universe");
  }
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [1, 4096]");
  }
  Result<FilterFamily> family =
      FilterFamily::Create(dist, options.index, data->size());
  if (!family.ok()) return family.status();

  Timer timer;
  data_ = data;
  dist_ = dist;
  options_ = options;
  family_ = std::move(family).value();

  build_stats_ = IndexBuildStats{};
  build_stats_.repetitions = family_.repetitions();
  build_stats_.delta_used = family_.delta();
  frozen_.reset();
  SKEWSEARCH_RETURN_NOT_OK(sharded_internal::BuildShardTables(
      *data, family_, options.num_shards, options.index.build_threads,
      &build_stats_, &shards_));
  if (build_stats_.cap_hits > 0) {
    SKEWSEARCH_LOG(kWarning)
        << "path cap hit for " << build_stats_.cap_hits
        << " (element, repetition) pairs; consider raising "
           "max_paths_per_element";
  }
  build_stats_.build_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

namespace sharded_internal {

Status BuildShardTables(const Dataset& data, const FilterFamily& family,
                        int num_shards, int build_threads,
                        IndexBuildStats* stats,
                        std::vector<FilterTable>* shards,
                        std::vector<uint32_t>* entry_counts) {
  const size_t n = data.size();
  const int reps = family.repetitions();
  shards->assign(static_cast<size_t>(num_shards), FilterTable());
  // Each id is handled by exactly one worker, so slots write disjoint
  // entries and no synchronization is needed.
  if (entry_counts != nullptr) entry_counts->assign(n, 0);

  // The partition is a pure function of the id, so build parallelism
  // cannot move a vector between shards.
  auto emit = [&](uint64_t key, VectorId id) {
    (*shards)[static_cast<size_t>(ShardedIndex::ShardOf(id, num_shards))].Add(
        key, id);
  };

  if (build_threads <= 1) {
    // Fused all-repetitions pass (see FilterFamily::ComputeAllFilters):
    // per-rep key groups are byte-identical to per-rep calls.
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    for (VectorId id = 0; id < n; ++id) {
      auto x = data.Get(id);
      PathGenStats gen;
      size_t capped = 0;
      family.ComputeAllFilters(x, &keys, &offsets, &gen, &capped);
      stats->nodes_expanded += gen.nodes_expanded;
      stats->cap_hits += capped;
      for (uint64_t key : keys) emit(key, id);
      stats->total_filters += keys.size();
      if (entry_counts != nullptr) {
        (*entry_counts)[id] += static_cast<uint32_t>(keys.size());
      }
    }
  } else {
    struct Slot {
      std::vector<std::pair<uint64_t, VectorId>> pairs;
      std::vector<uint64_t> keys;
      std::vector<size_t> offsets;
      size_t nodes_expanded = 0;
      size_t cap_hits = 0;
    };
    ThreadPool pool(build_threads);
    std::vector<Slot> slots(static_cast<size_t>(pool.num_threads()));
    pool.ParallelFor(n, /*grain=*/64, [&](size_t begin, size_t end,
                                          int slot_id) {
      Slot& slot = slots[static_cast<size_t>(slot_id)];
      for (size_t id = begin; id < end; ++id) {
        auto x = data.Get(static_cast<VectorId>(id));
        PathGenStats gen;
        size_t capped = 0;
        family.ComputeAllFilters(x, &slot.keys, &slot.offsets, &gen,
                                 &capped);
        slot.nodes_expanded += gen.nodes_expanded;
        slot.cap_hits += capped;
        for (uint64_t key : slot.keys) {
          slot.pairs.push_back({key, static_cast<VectorId>(id)});
        }
        if (entry_counts != nullptr) {
          (*entry_counts)[id] += static_cast<uint32_t>(slot.keys.size());
        }
      }
    });
    for (const Slot& slot : slots) {
      stats->nodes_expanded += slot.nodes_expanded;
      stats->cap_hits += slot.cap_hits;
      for (const auto& [key, id] : slot.pairs) emit(key, id);
      stats->total_filters += slot.pairs.size();
    }
  }
  for (FilterTable& shard : *shards) {
    shard.Freeze();
    stats->distinct_keys += shard.num_keys();
  }
  stats->avg_filters_per_element =
      static_cast<double>(stats->total_filters) /
      (static_cast<double>(n) * std::max(1, reps));
  return Status::OK();
}

}  // namespace sharded_internal

// Per-query workspace reused across a batch: key buffer, one dedup set
// per shard, the per-(rep, shard) hit/stat slots, and path-generation
// counters for batch aggregation.
struct ShardedIndex::QueryScratch {
  std::vector<uint64_t> keys;
  std::vector<PostingSet<VectorId>> seen;
  std::vector<RepHit> hits;
  std::vector<QueryStats> shard_stats;
  PathGenStats path_gen;
};

ShardedIndex::RepHit ShardedIndex::ScanShardRep(
    const FilterTable& table, std::span<const ItemId> query,
    const std::vector<uint64_t>& keys, PostingSet<VectorId>* seen,
    QueryStats* stats) const {
  RepHit hit;
  const double threshold = family_.verify_threshold();
  for (size_t ki = 0; ki < keys.size(); ++ki) {
    auto postings = table.Lookup(keys[ki]);
    stats->candidates += postings.size();
    for (VectorId id : postings) {
      if (!seen->insert(id).second) continue;
      stats->verifications++;
      double sim = Similarity(options_.index.verify_measure, query,
                              data_->Get(id));
      if (sim >= threshold) {
        hit.found = true;
        hit.key_idx = ki;
        hit.id = id;
        hit.similarity = sim;
        return hit;
      }
    }
  }
  return hit;
}

std::optional<Match> ShardedIndex::Query(std::span<const ItemId> query,
                                         QueryStats* stats) const {
  return Query(query, nullptr, stats);
}

std::optional<Match> ShardedIndex::Query(std::span<const ItemId> query,
                                         ThreadPool* pool,
                                         QueryStats* stats) const {
  QueryScratch scratch;
  return QueryImpl(query, pool, stats, &scratch);
}

std::optional<Match> ShardedIndex::QueryImpl(std::span<const ItemId> query,
                                             ThreadPool* pool,
                                             QueryStats* stats,
                                             QueryScratch* scratch) const {
  // The query path's metrics (docs/OBSERVABILITY.md, "query.*"), the
  // same at every shard count. Function-local statics so the registry
  // mutex is taken once per process; per query this adds a handful of
  // relaxed atomic adds and two clock reads per repetition (the
  // filter/verify phase split).
  static obs::Counter* const queries_metric =
      obs::MetricsRegistry::Global().GetCounter("query.count");
  static obs::Counter* const hits_metric =
      obs::MetricsRegistry::Global().GetCounter("query.hits");
  static obs::Counter* const candidates_metric =
      obs::MetricsRegistry::Global().GetCounter("query.candidates");
  static obs::Counter* const verifications_metric =
      obs::MetricsRegistry::Global().GetCounter("query.verifications");
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
  if (built() && !query.empty()) {
    const int num = num_shards();
    scratch->seen.resize(static_cast<size_t>(num));
    for (auto& seen : scratch->seen) seen.clear();
    for (int rep = 0; rep < family_.repetitions() && !found; ++rep) {
      reps_probed++;
      const uint64_t rep_candidates_before = local.candidates;
      scratch->keys.clear();
      PathGenStats gen;
      family_.ComputeFilters(query, static_cast<uint32_t>(rep),
                             &scratch->keys, &gen);
      AddPathGenStats(&scratch->path_gen, gen);
      local.filters += scratch->keys.size();
      // Everything between phase_mark and here was filter generation;
      // the rest of the repetition is lookup + verification.
      filter_ns += timer.ElapsedNanos() - phase_mark;
      scratch->hits.assign(static_cast<size_t>(num), RepHit{});
      scratch->shard_stats.assign(static_cast<size_t>(num), QueryStats{});
      auto scan_shard = [&](size_t s) {
        scratch->hits[s] =
            ScanShardRep(shards_[s], query, scratch->keys,
                         &scratch->seen[s], &scratch->shard_stats[s]);
      };
      if (pool != nullptr && num > 1) {
        pool->ParallelFor(static_cast<size_t>(num), /*grain=*/1,
                          [&](size_t begin, size_t end, int) {
                            for (size_t s = begin; s < end; ++s) {
                              scan_shard(s);
                            }
                          });
      } else {
        for (size_t s = 0; s < static_cast<size_t>(num); ++s) scan_shard(s);
      }
      // Merge by scan coordinate: the one-shard index checks candidates
      // in (key position, id-within-posting-list) order, so the minimal
      // (key_idx, id) over the shard winners is exactly its first hit.
      const RepHit* best = nullptr;
      for (const RepHit& hit : scratch->hits) {
        if (!hit.found) continue;
        if (best == nullptr || hit.key_idx < best->key_idx ||
            (hit.key_idx == best->key_idx && hit.id < best->id)) {
          best = &hit;
        }
      }
      for (const QueryStats& qs : scratch->shard_stats) {
        local.candidates += qs.candidates;
        local.verifications += qs.verifications;
      }
      if (best != nullptr) found = Match{best->id, best->similarity};
      phase_mark = timer.ElapsedNanos();
      fanout_metric->Record(local.candidates - rep_candidates_before);
    }
    size_t distinct = 0;
    for (const auto& seen : scratch->seen) distinct += seen.size();
    local.distinct_candidates = distinct;
  }
  const int64_t total_ns = timer.ElapsedNanos();
  const int64_t verify_ns = phase_mark - filter_ns;
  local.seconds = static_cast<double>(total_ns) * 1e-9;
  queries_metric->Increment();
  if (found) hits_metric->Increment();
  candidates_metric->Increment(local.candidates);
  verifications_metric->Increment(local.verifications);
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

std::vector<Match> ShardedIndex::QueryAll(std::span<const ItemId> query,
                                          double threshold, QueryStats* stats,
                                          ThreadPool* pool) const {
  SKEWSEARCH_SPAN("query.all");
  Timer timer;
  QueryStats local;
  std::vector<Match> out;
  if (built() && !query.empty()) {
    // QueryAll exhausts every repetition, so all keys can be computed up
    // front (one fused pass) and each shard scanned exactly once.
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    family_.ComputeAllFilters(query, &keys, &offsets);
    local.filters = keys.size();
    const size_t num = shards_.size();
    std::vector<std::vector<Match>> matches(num);
    std::vector<QueryStats> shard_stats(num);
    std::vector<size_t> distinct(num, 0);
    auto scan_shard = [&](size_t s) {
      PostingSet<VectorId> seen;
      for (uint64_t key : keys) {
        auto postings = shards_[s].Lookup(key);
        shard_stats[s].candidates += postings.size();
        for (VectorId id : postings) {
          if (!seen.insert(id).second) continue;
          shard_stats[s].verifications++;
          double sim = Similarity(options_.index.verify_measure, query,
                                  data_->Get(id));
          if (sim >= threshold) matches[s].push_back({id, sim});
        }
      }
      distinct[s] = seen.size();
    };
    if (pool != nullptr && num > 1) {
      pool->ParallelFor(num, /*grain=*/1,
                        [&](size_t begin, size_t end, int) {
                          for (size_t s = begin; s < end; ++s) scan_shard(s);
                        });
    } else {
      for (size_t s = 0; s < num; ++s) scan_shard(s);
    }
    for (size_t s = 0; s < num; ++s) {
      local.candidates += shard_stats[s].candidates;
      local.verifications += shard_stats[s].verifications;
      local.distinct_candidates += distinct[s];
      out.insert(out.end(), matches[s].begin(), matches[s].end());
    }
  }
  std::sort(out.begin(), out.end(), [](const Match& a, const Match& b) {
    if (a.similarity != b.similarity) return a.similarity > b.similarity;
    return a.id < b.id;
  });
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return out;
}

std::vector<std::optional<Match>> ShardedIndex::BatchQuery(
    const Dataset& queries, int threads, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  return batch_internal::RunWithTransientPool(threads, [&](ThreadPool* pool) {
    return BatchQuery(queries, pool, stats, batch_stats);
  });
}

std::vector<std::optional<Match>> ShardedIndex::BatchQuery(
    const Dataset& queries, ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  // The batch is parallelized over queries; each query scans its shards
  // serially (fanning a query's shards onto the same pool would deadlock
  // a worker waiting on its own pool).
  return batch_internal::Run<QueryScratch>(
      queries, pool, stats, batch_stats,
      [&](size_t i, QueryScratch* scratch, QueryStats* query_stats) {
        return QueryImpl(queries.Get(static_cast<VectorId>(i)), nullptr,
                         query_stats, scratch);
      },
      [](const QueryScratch& scratch, BatchQueryStats* agg) {
        AddPathGenStats(&agg->path_gen, scratch.path_gen);
      });
}

std::vector<uint64_t> ShardedIndex::ComputeFilterKeys(
    std::span<const ItemId> query) const {
  std::vector<uint64_t> keys;
  if (!built()) return keys;
  // Fused pass; groups are in repetition order, matching the per-rep
  // concatenation exactly.
  std::vector<size_t> offsets;
  family_.ComputeAllFilters(query, &keys, &offsets);
  return keys;
}

size_t ShardedIndex::MemoryBytes() const {
  size_t total = 0;
  for (const FilterTable& shard : shards_) total += shard.MemoryBytes();
  return total;
}

Status ShardedIndex::Freeze(const std::string& path) const {
  namespace io = index_io_internal;
  if (!built()) {
    return Status::InvalidArgument("cannot freeze an unbuilt index");
  }
  std::vector<const FilterTable*> tables;
  tables.reserve(shards_.size());
  for (const FilterTable& shard : shards_) tables.push_back(&shard);
  return WriteFrozenShards(path, options_.index,
                           family_.verify_threshold(), build_stats_,
                           io::Fingerprint(*data_), tables);
}

Status ShardedIndex::MapFrozen(const std::string& path, const Dataset* data,
                               const ProductDistribution* dist) {
  return MapFrozen(path, data, dist, FrozenMapOptions{});
}

Status ShardedIndex::MapFrozen(const std::string& path, const Dataset* data,
                               const ProductDistribution* dist,
                               const FrozenMapOptions& options) {
  namespace io = index_io_internal;
  if (data == nullptr || dist == nullptr) {
    return Status::InvalidArgument("data and dist must be non-null");
  }
  Result<std::shared_ptr<const FrozenShardFile>> mapped =
      FrozenShardFile::Map(path, options);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<const FrozenShardFile> file = std::move(mapped).value();
  if (file->fingerprint() != io::Fingerprint(*data)) {
    return Status::InvalidArgument(
        "dataset does not match the one this index was built from");
  }
  if (data->dimension() > dist->dimension()) {
    return Status::InvalidArgument(
        "dataset items exceed the distribution's universe");
  }
  const int num_shards = file->num_shards();
  // The checksummed per-shard metadata bounds every posting id, so the
  // beyond-the-dataset rejection needs no O(index) scan.
  for (int s = 0; s < num_shards; ++s) {
    const FrozenShardFile::ShardInfo& info = file->shard_info(s);
    if (info.ids_count > 0 && info.max_id >= data->size()) {
      return Status::InvalidArgument(
          "shard table references vector ids beyond the dataset");
    }
  }

  const index_io_internal::ParamHeader& header = file->params();
  Result<FilterFamily> family = FilterFamily::Restore(
      dist, header.options, data->size(), header.stats.repetitions,
      header.stats.delta_used, header.verify_threshold);
  if (!family.ok()) {
    return Status::InvalidArgument("corrupt index header in '" + path +
                                   "': " + family.status().message());
  }

  std::vector<FilterTable> views(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    Result<FilterTable> view = file->MakeShardView(s);
    if (!view.ok()) return view.status();
    views[static_cast<size_t>(s)] = std::move(view).value();
  }
  if (options.verify_payload) {
    // Placement validation: every posting must live in the shard its id
    // hashes to. O(index), gated like the payload checksums.
    for (int s = 0; s < num_shards; ++s) {
      const FilterTable& table = views[static_cast<size_t>(s)];
      for (size_t k = 0; k < table.num_keys(); ++k) {
        for (VectorId id : table.postings_at(k)) {
          if (ShardOf(id, num_shards) != s) {
            return Status::InvalidArgument(
                "shard table references out-of-place vector ids");
          }
        }
      }
    }
  }

  data_ = data;
  dist_ = dist;
  options_.index = header.options;
  options_.num_shards = num_shards;
  family_ = std::move(family).value();
  build_stats_ = header.stats;
  shards_ = std::move(views);
  frozen_ = std::move(file);
  return Status::OK();
}

}  // namespace skewsearch
