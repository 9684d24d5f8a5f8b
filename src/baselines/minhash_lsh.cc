#include "baselines/minhash_lsh.h"

#include <algorithm>
#include <cmath>
#include <limits>
// std::unordered_set stays here on purpose: baselines are comparison
// yardsticks, not hot paths, so they keep the std containers rather
// than the util/containers.h posting-path aliases.
#include <unordered_set>

#include "core/batch.h"
#include "hashing/mix.h"
#include "util/random.h"
#include "util/timer.h"

namespace skewsearch {

Status MinHashLsh::Build(const Dataset* data, const MinHashOptions& options) {
  if (data == nullptr) {
    return Status::InvalidArgument("data must be non-null");
  }
  if (data->size() < 2) {
    return Status::InvalidArgument("dataset needs at least 2 vectors");
  }
  if (options.j1 <= 0.0 || options.j1 >= 1.0) {
    return Status::InvalidArgument("j1 must be in (0, 1)");
  }
  data_ = data;
  options_ = options;
  const double n = static_cast<double>(data->size());

  rows_ = options.rows;
  bands_ = options.bands;
  if (rows_ <= 0 || bands_ <= 0) {
    if (options.j2 <= 0.0 || options.j2 >= options.j1) {
      return Status::InvalidArgument(
          "auto geometry needs 0 < j2 < j1 < 1");
    }
    // Far pairs (j2) should collide in a band with probability ~ 1/n:
    // rows = ln n / ln(1/j2). Close pairs then collide per band with
    // probability j1^rows = n^-rho, so bands ~ n^rho repetitions.
    rows_ = std::max(1, static_cast<int>(std::ceil(
                            std::log(n) / std::log(1.0 / options.j2))));
    double per_band = std::pow(options.j1, rows_);
    bands_ = std::max(
        1, static_cast<int>(std::ceil(2.0 / std::max(1e-12, per_band))));
    bands_ = std::min(bands_, 4096);  // practical cap
  }
  verify_threshold_ =
      options.verify_threshold >= 0.0 ? options.verify_threshold : options.j1;

  Rng rng(options.seed);
  row_seeds_.clear();
  for (int i = 0; i < bands_ * rows_; ++i) {
    row_seeds_.push_back(rng.NextUint64());
  }

  std::vector<Posting> postings;
  postings.reserve(data->size() * static_cast<size_t>(bands_));
  for (VectorId id = 0; id < data->size(); ++id) {
    auto ids = data->Get(id);
    if (ids.empty()) continue;
    for (int band = 0; band < bands_; ++band) {
      postings.push_back({BandKey(band, ids), id});
    }
  }
  table_ = FilterTable::Build(std::move(postings));
  return Status::OK();
}

uint64_t MinHashLsh::RowMin(int row, std::span<const ItemId> ids) const {
  uint64_t seed = row_seeds_[static_cast<size_t>(row)];
  uint64_t best = std::numeric_limits<uint64_t>::max();
  for (ItemId item : ids) {
    best = std::min(best, Mix64(seed ^ Mix64(item + 0x9e37ULL)));
  }
  return best;
}

uint64_t MinHashLsh::BandKey(int band, std::span<const ItemId> ids) const {
  uint64_t key = Mix64(0xbadd0000ULL + static_cast<uint64_t>(band));
  for (int r = 0; r < rows_; ++r) {
    key = MixPair(key, RowMin(band * rows_ + r, ids));
  }
  return key;
}

// Reusable per-thread query workspace: keeps the dedup set's buckets
// allocated across the queries one worker slot answers.
struct MinHashLsh::QueryScratch {
  std::unordered_set<VectorId> seen;
};

std::optional<Match> MinHashLsh::Query(std::span<const ItemId> query,
                                       QueryStats* stats) const {
  QueryScratch scratch;
  return QueryImpl(query, stats, &scratch);
}

std::optional<Match> MinHashLsh::QueryImpl(std::span<const ItemId> query,
                                           QueryStats* stats,
                                           QueryScratch* scratch) const {
  Timer timer;
  QueryStats local;
  std::optional<Match> found;
  if (data_ != nullptr && !query.empty()) {
    std::unordered_set<VectorId>& seen = scratch->seen;
    seen.clear();
    for (int band = 0; band < bands_ && !found; ++band) {
      local.filters++;
      auto postings = table_.Lookup(BandKey(band, query));
      local.candidates += postings.size();
      for (VectorId id : postings) {
        if (!seen.insert(id).second) continue;
        local.verifications++;
        double sim =
            Similarity(options_.verify_measure, query, data_->Get(id));
        if (sim >= verify_threshold_) {
          found = Match{id, sim};
          break;
        }
      }
    }
    local.distinct_candidates = seen.size();
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return found;
}

std::vector<std::optional<Match>> MinHashLsh::BatchQuery(
    const Dataset& queries, ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  return batch_internal::Run<QueryScratch>(
      queries, pool, stats, batch_stats,
      [&](size_t i, QueryScratch* scratch, QueryStats* query_stats) {
        return QueryImpl(queries.Get(static_cast<VectorId>(i)), query_stats,
                         scratch);
      },
      [](const QueryScratch&, BatchQueryStats*) {});
}

std::vector<Match> MinHashLsh::QueryAll(std::span<const ItemId> query,
                                        double threshold,
                                        QueryStats* stats) const {
  Timer timer;
  QueryStats local;
  std::vector<Match> out;
  if (data_ != nullptr && !query.empty()) {
    std::unordered_set<VectorId> seen;
    for (int band = 0; band < bands_; ++band) {
      local.filters++;
      auto postings = table_.Lookup(BandKey(band, query));
      local.candidates += postings.size();
      for (VectorId id : postings) {
        if (!seen.insert(id).second) continue;
        local.verifications++;
        double sim =
            Similarity(options_.verify_measure, query, data_->Get(id));
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
