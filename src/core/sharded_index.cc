#include "core/sharded_index.h"

#include <algorithm>

#include "core/batch.h"
#include "core/frozen_shard.h"
#include "core/index_io.h"
#include "core/query_driver.h"
#include "hashing/mix.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

constexpr int kMaxShards = 1 << 12;

/// The query driver's view of one static shard (core/query_driver.h):
/// one posting table, and every posted id is live.
struct ShardView {
  const FilterTable* table;
  const FilterFamily* filter_family;
  const Dataset* data;

  const FilterFamily& family() const { return *filter_family; }

  template <typename Fn>
  bool Scan(uint64_t key, QueryStats* stats, Fn&& fn) const {
    const std::span<const VectorId> postings = table->Lookup(key);
    stats->candidates += postings.size();
    for (VectorId id : postings) {
      if (fn(uint8_t{0}, id)) return true;
    }
    return false;
  }

  std::span<const ItemId> Items(VectorId id) const { return data->Get(id); }
};

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
  ThreadPool pool(options.index.build_threads);
  SKEWSEARCH_RETURN_NOT_OK(sharded_internal::BuildShardTables(
      *data, family_, options.num_shards, &pool, &build_stats_, &shards_));
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
                        int num_shards, ThreadPool* pool,
                        IndexBuildStats* stats,
                        std::vector<FilterTable>* shards,
                        std::vector<uint32_t>* entry_counts) {
  const size_t n = data.size();
  const int reps = family.repetitions();
  // Each id is handled by exactly one slot, so slots write disjoint
  // entries and no synchronization is needed.
  if (entry_counts != nullptr) entry_counts->assign(n, 0);

  // Each slot stages one posting vector per shard. The partition is a
  // pure function of the id and Build sorts every shard's pairs by
  // (key, id), so build parallelism cannot move a posting.
  struct Slot {
    std::vector<std::vector<Posting>> postings;  // by shard
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    size_t nodes_expanded = 0;
    size_t cap_hits = 0;
  };
  std::vector<Slot> slots(static_cast<size_t>(pool->num_threads()));
  for (Slot& slot : slots) {
    slot.postings.resize(static_cast<size_t>(num_shards));
  }
  auto build_range = [&](size_t begin, size_t end, int slot_id) {
    Slot& slot = slots[static_cast<size_t>(slot_id)];
    for (size_t i = begin; i < end; ++i) {
      const VectorId id = static_cast<VectorId>(i);
      PathGenStats gen;
      size_t capped = 0;
      family.ComputeAllFilters(data.Get(id), &slot.keys, &slot.offsets, &gen,
                               &capped);
      slot.nodes_expanded += gen.nodes_expanded;
      slot.cap_hits += capped;
      std::vector<Posting>& shard = slot.postings[static_cast<size_t>(
          ShardedIndex::ShardOf(id, num_shards))];
      for (uint64_t key : slot.keys) shard.push_back({key, id});
      if (entry_counts != nullptr) {
        (*entry_counts)[id] = static_cast<uint32_t>(slot.keys.size());
      }
    }
  };
  pool->ParallelFor(n, /*grain=*/64, build_range);
  for (const Slot& slot : slots) {
    stats->nodes_expanded += slot.nodes_expanded;
    stats->cap_hits += slot.cap_hits;
  }
  shards->clear();
  for (int s = 0; s < num_shards; ++s) {
    std::vector<Posting> joined;
    for (Slot& slot : slots) {
      std::vector<Posting>& part = slot.postings[static_cast<size_t>(s)];
      if (joined.empty()) {
        joined = std::move(part);
      } else {
        joined.insert(joined.end(), part.begin(), part.end());
      }
      part = std::vector<Posting>();
    }
    stats->total_filters += joined.size();
    shards->push_back(FilterTable::Build(std::move(joined)));
    stats->distinct_keys += shards->back().num_keys();
  }
  stats->avg_filters_per_element =
      static_cast<double>(stats->total_filters) /
      (static_cast<double>(n) * std::max(1, reps));
  return Status::OK();
}

}  // namespace sharded_internal

std::optional<Match> ShardedIndex::Query(std::span<const ItemId> query,
                                         QueryStats* stats) const {
  query_internal::Scratch scratch;
  return QueryImpl(query, stats, &scratch);
}

std::optional<Match> ShardedIndex::QueryImpl(
    std::span<const ItemId> query, QueryStats* stats,
    query_internal::Scratch* scratch) const {
  return query_internal::FirstMatch(
      query, shards_.size(),
      [this](size_t s) { return ShardView{&shards_[s], &family_, data_}; },
      stats, scratch);
}

std::vector<Match> ShardedIndex::QueryAll(std::span<const ItemId> query,
                                          double threshold,
                                          QueryStats* stats) const {
  return query_internal::AllMatches(
      query, threshold, shards_.size(),
      [this](size_t s) { return ShardView{&shards_[s], &family_, data_}; },
      stats);
}

std::vector<std::optional<Match>> ShardedIndex::BatchQuery(
    const Dataset& queries, ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  // The batch is parallelized over queries; each query scans its shards
  // serially.
  return batch_internal::Run<query_internal::Scratch>(
      queries, pool, stats, batch_stats,
      [&](size_t i, query_internal::Scratch* scratch,
          QueryStats* query_stats) {
        return QueryImpl(queries.Get(static_cast<VectorId>(i)), query_stats,
                         scratch);
      },
      [](const query_internal::Scratch& scratch, BatchQueryStats* agg) {
        AddPathGenStats(&agg->path_gen, scratch.path_gen);
      });
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
