#include "baselines/chosen_path.h"

#include <algorithm>
#include <cmath>
// std::unordered_set stays here on purpose: baselines are comparison
// yardsticks, not hot paths, so they keep the std containers rather
// than the util/containers.h posting-path aliases.
#include <unordered_set>

#include "core/batch.h"
#include "sim/measures.h"
#include "util/timer.h"

namespace skewsearch {

Status ChosenPathIndex::Build(const Dataset* data,
                              const ProductDistribution* dist,
                              const ChosenPathOptions& options) {
  if (data == nullptr || dist == nullptr) {
    return Status::InvalidArgument("data and dist must be non-null");
  }
  if (data->size() < 2) {
    return Status::InvalidArgument("dataset needs at least 2 vectors");
  }
  if (options.b1 <= 0.0 || options.b1 >= 1.0 || options.b2 <= 0.0 ||
      options.b2 >= options.b1) {
    return Status::InvalidArgument("need 0 < b2 < b1 < 1");
  }

  Timer timer;
  data_ = data;
  options_ = options;
  const size_t n = data->size();
  const double log_n = std::log(static_cast<double>(n));
  depth_ = std::max(1, static_cast<int>(
                           std::ceil(log_n / std::log(1.0 / options.b2))));
  verify_threshold_ =
      options.verify_threshold >= 0.0 ? options.verify_threshold : options.b1;

  int reps = options.repetitions;
  if (reps <= 0) {
    reps = static_cast<int>(
        std::ceil(options.repetition_boost * std::max(1.0, log_n)));
  }

  policy_ = std::make_unique<ClassicChosenPathPolicy>(options.b1);
  hasher_ = std::make_unique<PathHasher>(options.seed, depth_ + 1,
                                         options.hash_engine);
  PathEngineOptions engine_options;
  engine_options.stop_rule = StopRule::kFixedDepth;
  engine_options.fixed_depth = depth_;
  engine_options.max_depth = depth_ + 1;
  engine_options.max_paths = options.max_paths_per_element;
  engine_options.without_replacement = false;  // classic CP replaces
  engine_ = std::make_unique<PathEngine>(dist, policy_.get(), hasher_.get(),
                                         engine_options);

  build_stats_ = IndexBuildStats{};
  build_stats_.repetitions = reps;
  std::vector<Posting> postings;
  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  for (VectorId id = 0; id < n; ++id) {
    PathGenStats gen;
    size_t capped = 0;
    engine_->ComputeFiltersAllReps(data->Get(id), static_cast<uint32_t>(reps),
                                   &keys, &offsets, &gen, &capped);
    build_stats_.nodes_expanded += gen.nodes_expanded;
    build_stats_.cap_hits += capped;
    for (uint64_t key : keys) postings.push_back({key, id});
    build_stats_.total_filters += keys.size();
  }
  table_ = FilterTable::Build(std::move(postings));
  build_stats_.distinct_keys = table_.num_keys();
  build_stats_.avg_filters_per_element =
      static_cast<double>(build_stats_.total_filters) /
      (static_cast<double>(n) * std::max(1, reps));
  build_stats_.build_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

// Reusable per-thread query workspace; see query_internal::Scratch.
struct ChosenPathIndex::QueryScratch {
  PreparedVector prepared;
  std::vector<uint64_t> keys;
  std::unordered_set<VectorId> seen;
  PathGenStats path_gen;
};

std::optional<Match> ChosenPathIndex::Query(std::span<const ItemId> query,
                                            QueryStats* stats) const {
  QueryScratch scratch;
  return QueryImpl(query, stats, &scratch);
}

std::optional<Match> ChosenPathIndex::QueryImpl(std::span<const ItemId> query,
                                                QueryStats* stats,
                                                QueryScratch* scratch) const {
  Timer timer;
  QueryStats local;
  std::optional<Match> found;
  if (engine_ != nullptr && !query.empty()) {
    std::vector<uint64_t>& keys = scratch->keys;
    std::unordered_set<VectorId>& seen = scratch->seen;
    seen.clear();
    engine_->Prepare(query, &scratch->prepared);
    for (int rep = 0; rep < build_stats_.repetitions && !found; ++rep) {
      keys.clear();
      PathGenStats gen;
      engine_->ComputeFilters(&scratch->prepared, static_cast<uint32_t>(rep),
                              &keys, &gen);
      AddPathGenStats(&scratch->path_gen, gen);
      local.filters += keys.size();
      for (uint64_t key : keys) {
        auto postings = table_.Lookup(key);
        local.candidates += postings.size();
        for (VectorId id : postings) {
          if (!seen.insert(id).second) continue;
          local.verifications++;
          double sim = BraunBlanquet(query, data_->Get(id));
          if (sim >= verify_threshold_) {
            found = Match{id, sim};
            break;
          }
        }
        if (found) break;
      }
    }
    local.distinct_candidates = seen.size();
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return found;
}

std::vector<std::optional<Match>> ChosenPathIndex::BatchQuery(
    const Dataset& queries, ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  return batch_internal::Run<QueryScratch>(
      queries, pool, stats, batch_stats,
      [&](size_t i, QueryScratch* scratch, QueryStats* query_stats) {
        return QueryImpl(queries.Get(static_cast<VectorId>(i)), query_stats,
                         scratch);
      },
      [](const QueryScratch& scratch, BatchQueryStats* agg) {
        AddPathGenStats(&agg->path_gen, scratch.path_gen);
      });
}

std::vector<Match> ChosenPathIndex::QueryAll(std::span<const ItemId> query,
                                             double threshold,
                                             QueryStats* stats) const {
  Timer timer;
  QueryStats local;
  std::vector<Match> out;
  if (engine_ != nullptr && !query.empty()) {
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    std::unordered_set<VectorId> seen;
    engine_->ComputeFiltersAllReps(
        query, static_cast<uint32_t>(build_stats_.repetitions), &keys,
        &offsets, nullptr);
    local.filters += keys.size();
    for (uint64_t key : keys) {
      auto postings = table_.Lookup(key);
      local.candidates += postings.size();
      for (VectorId id : postings) {
        if (!seen.insert(id).second) continue;
        local.verifications++;
        double sim = BraunBlanquet(query, data_->Get(id));
        if (sim >= threshold) out.push_back({id, sim});
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

}  // namespace skewsearch
