#include "core/skewed_index.h"

#include <algorithm>
#include <cmath>

#include "core/rho.h"
#include "util/containers.h"
#include "util/logging.h"

namespace skewsearch {

namespace {

Status ValidateFamilyOptions(const ProductDistribution* dist,
                             const SkewedIndexOptions& options, size_t n) {
  if (dist == nullptr) {
    return Status::InvalidArgument("dist must be non-null");
  }
  if (n < 2) {
    return Status::InvalidArgument("dataset needs at least 2 vectors");
  }
  // Negated-conjunction form so NaN (e.g. from a corrupted index header)
  // fails the check instead of slipping past both one-sided comparisons.
  if (options.mode == IndexMode::kAdversarial &&
      !(options.b1 > 0.0 && options.b1 < 1.0)) {
    return Status::InvalidArgument("b1 must be in (0, 1)");
  }
  if (options.mode == IndexMode::kCorrelated &&
      !(options.alpha > 0.0 && options.alpha <= 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (options.max_depth < 1) {
    return Status::InvalidArgument("max_depth must be >= 1");
  }
  if (options.max_paths_per_element == 0) {
    return Status::InvalidArgument("max_paths_per_element must be > 0");
  }
  return Status::OK();
}

}  // namespace

Result<FilterFamily> FilterFamily::Create(const ProductDistribution* dist,
                                          const SkewedIndexOptions& options,
                                          size_t n) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateFamilyOptions(dist, options, n));

  const double log_n = std::log(static_cast<double>(n));
  const double c_constant = dist->CForN(n);

  FilterFamily family;
  family.options_ = options;

  double delta = options.delta;
  if (options.mode == IndexMode::kCorrelated) {
    double paper_delta =
        3.0 / std::sqrt(std::max(1e-9, options.alpha * c_constant));
    if (delta < 0.0) {
      delta = options.strict_paper_delta ? paper_delta
                                         : std::min(paper_delta, 0.3);
    }
    if (options.alpha * c_constant < 15.0) {
      SKEWSEARCH_LOG(kInfo)
          << "alpha*C = " << options.alpha * c_constant
          << " < 15: outside the regime of Lemma 11; rely on repetitions";
    }
  } else {
    delta = 0.0;
  }
  family.delta_ = delta;

  family.verify_threshold_ = options.verify_threshold;
  if (family.verify_threshold_ < 0.0) {
    family.verify_threshold_ = options.mode == IndexMode::kAdversarial
                                   ? options.b1
                                   : options.alpha / 1.3;
  }

  int reps = options.repetitions;
  if (reps <= 0) {
    reps = static_cast<int>(
        std::ceil(options.repetition_boost * std::max(1.0, log_n)));
  }
  family.repetitions_ = reps;

  SKEWSEARCH_RETURN_NOT_OK(family.Init(dist, n));
  return family;
}

Result<FilterFamily> FilterFamily::Restore(const ProductDistribution* dist,
                                           const SkewedIndexOptions& options,
                                           size_t n, int repetitions,
                                           double delta,
                                           double verify_threshold) {
  SKEWSEARCH_RETURN_NOT_OK(ValidateFamilyOptions(dist, options, n));
  if (repetitions < 1 || repetitions > (1 << 20)) {
    return Status::InvalidArgument("repetition count out of range");
  }
  if (!std::isfinite(delta) || delta < 0.0) {
    return Status::InvalidArgument("delta must be finite and >= 0");
  }
  if (!std::isfinite(verify_threshold) || verify_threshold < 0.0 ||
      verify_threshold > 1.0) {
    return Status::InvalidArgument("verify threshold must be in [0, 1]");
  }
  FilterFamily family;
  family.options_ = options;
  family.repetitions_ = repetitions;
  family.delta_ = delta;
  family.verify_threshold_ = verify_threshold;
  SKEWSEARCH_RETURN_NOT_OK(family.Init(dist, n));
  return family;
}

Status FilterFamily::Init(const ProductDistribution* dist, size_t n) {
  dist_ = dist;
  const double log_n = std::log(static_cast<double>(n));
  if (options_.mode == IndexMode::kAdversarial) {
    policy_ = std::make_unique<AdversarialPolicy>(options_.b1);
  } else {
    policy_ =
        std::make_unique<CorrelatedPolicy>(dist_, options_.alpha, delta_);
  }
  // All p_i <= max_p < 1, so every path step adds >= ln(1/max_p) to the
  // stop sum; depth never exceeds ln n / ln(1/max_p) (+1 for the step that
  // crosses the boundary, +1 slack).
  int depth_bound = options_.max_depth;
  if (dist_->MaxP() < 1.0) {
    double per_step = -std::log(dist_->MaxP());
    if (per_step > 1e-9) {
      depth_bound = std::min(
          depth_bound, static_cast<int>(std::ceil(log_n / per_step)) + 2);
    }
  }
  hasher_ = std::make_unique<PathHasher>(options_.seed, depth_bound,
                                         options_.hash_engine);
  PathEngineOptions engine_options;
  engine_options.stop_rule = StopRule::kProbability;
  engine_options.log_n = log_n;
  engine_options.max_depth = depth_bound;
  engine_options.max_paths = options_.max_paths_per_element;
  engine_options.without_replacement = true;
  engine_ = std::make_unique<PathEngine>(dist_, policy_.get(), hasher_.get(),
                                         engine_options);
  return Status::OK();
}

void FilterFamily::ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                                  std::vector<uint64_t>* keys,
                                  PathGenStats* stats) const {
  PreparedVector prepared;
  engine_->Prepare(x, &prepared);
  engine_->ComputeFilters(&prepared, rep, keys, stats);
}

void FilterFamily::ComputeAllFilters(std::span<const ItemId> x,
                                     std::vector<uint64_t>* keys,
                                     std::vector<size_t>* offsets,
                                     PathGenStats* stats,
                                     size_t* capped_reps) const {
  engine_->ComputeFiltersAllReps(x, static_cast<uint32_t>(repetitions_),
                                 keys, offsets, stats, capped_reps);
}

double FilterFamily::EstimateCollisionRate(std::span<const ItemId> a,
                                           std::span<const ItemId> b) const {
  if (!valid() || repetitions_ == 0) return 0.0;
  // One fused pass per vector; repetition r's keys are the
  // offsets[r]..offsets[r+1] slice of each buffer.
  std::vector<uint64_t> keys_a, keys_b;
  std::vector<size_t> offs_a, offs_b;
  ComputeAllFilters(a, &keys_a, &offs_a);
  ComputeAllFilters(b, &keys_b, &offs_b);
  int collisions = 0;
  PostingSet<uint64_t> set_a;
  for (int rep = 0; rep < repetitions_; ++rep) {
    const size_t r = static_cast<size_t>(rep);
    set_a.clear();
    for (size_t i = offs_a[r]; i < offs_a[r + 1]; ++i) {
      set_a.insert(keys_a[i]);
    }
    bool hit = false;
    for (size_t i = offs_b[r]; i < offs_b[r + 1]; ++i) {
      if (set_a.contains(keys_b[i])) {
        hit = true;
        break;
      }
    }
    collisions += hit;
  }
  return static_cast<double>(collisions) / static_cast<double>(repetitions_);
}

Result<double> FilterFamily::PredictQueryExponent(
    std::span<const ItemId> query) const {
  if (!valid()) {
    return Status::InvalidArgument("filter family not initialized");
  }
  if (options_.mode == IndexMode::kCorrelated) {
    return CorrelatedRho(*dist_, options_.alpha);
  }
  std::vector<double> probs;
  probs.reserve(query.size());
  for (ItemId item : query) {
    if (item >= dist_->dimension()) {
      return Status::InvalidArgument("query item outside the universe");
    }
    probs.push_back(dist_->p(item));
  }
  return AdversarialQueryRho(probs, options_.b1);
}

}  // namespace skewsearch
