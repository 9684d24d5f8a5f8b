#include "core/split_search.h"

#include <algorithm>
#include <cmath>

#include "core/rho.h"
#include "sim/measures.h"
#include "util/math.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

// Chosen-Path exponent of a sub-search demanding projected similarity b1x
// against background similarity b2x.
//   b1x >= 1: the demand exceeds the projection — no point (close or far)
//             can qualify, the branch generates no work: exponent 0.
//   b2x >= b1x: the projection cannot distinguish close from far: brute
//             force, exponent 1.
double ProjectedRho(double b1x, double b2x) {
  if (b1x >= 1.0) return 0.0;
  if (b2x <= 0.0) return 0.0;
  if (b2x >= b1x) return 1.0;
  return Clamp(std::log(b1x) / std::log(b2x), 0.0, 1.0);
}

std::vector<ItemId> Project(std::span<const ItemId> ids,
                            const std::vector<bool>& is_frequent,
                            bool want_frequent) {
  std::vector<ItemId> out;
  for (ItemId id : ids) {
    if (is_frequent[id] == want_frequent) out.push_back(id);
  }
  return out;
}

}  // namespace

Result<SplitPlan> SplitSearcher::Analyze(const ProductDistribution& dist,
                                         size_t /*n*/, double b1,
                                         double frequency_split, double ell) {
  if (b1 <= 0.0 || b1 >= 1.0) {
    return Status::InvalidArgument("b1 must be in (0, 1)");
  }
  const auto& p = dist.probabilities();
  double pmin = 1.0, pmax = 0.0;
  for (double v : p) {
    pmin = std::min(pmin, v);
    pmax = std::max(pmax, v);
  }
  double split =
      frequency_split > 0.0 ? frequency_split : std::sqrt(pmin * pmax);

  SplitPlan plan;
  plan.split_probability = split;
  // m_x = E|q_x| (projected query weight); s_x = E|x n q| mass within the
  // side (sum of p^2), following the motivating example's i_frequent and
  // i_rare up to the projection normalization.
  double m = 0.0, m_f = 0.0, m_r = 0.0, s_f = 0.0, s_r = 0.0;
  for (double v : p) {
    m += v;
    if (v >= split) {
      plan.frequent_items++;
      m_f += v;
      s_f += v * v;
    } else {
      plan.rare_items++;
      m_r += v;
      s_r += v * v;
    }
  }
  plan.rho_unsplit = ProjectedRho(b1, (s_f + s_r) / m);

  auto eval = [&](double l) {
    double rho_f =
        m_f > 0.0 ? ProjectedRho(l * m / m_f, s_f / m_f) : 0.0;
    double rho_r =
        m_r > 0.0 ? ProjectedRho((b1 - l) * m / m_r, s_r / m_r) : 0.0;
    return std::make_pair(rho_f, rho_r);
  };

  if (ell > 0.0 && ell < b1) {
    plan.ell = ell;
    std::tie(plan.rho_frequent, plan.rho_rare) = eval(ell);
    return plan;
  }
  // Balance the two exponents on a grid; combined cost n^rho_f + n^rho_r
  // is dominated by the max.
  double best_cost = 2.0;
  for (int step = 1; step < 200; ++step) {
    double l = b1 * static_cast<double>(step) / 200.0;
    auto [rho_f, rho_r] = eval(l);
    double cost = std::max(rho_f, rho_r);
    if (cost < best_cost) {
      best_cost = cost;
      plan.ell = l;
      plan.rho_frequent = rho_f;
      plan.rho_rare = rho_r;
    }
  }
  return plan;
}

Status SplitSearcher::Build(const Dataset* data,
                            const ProductDistribution* dist,
                            const SplitSearchOptions& options) {
  if (data == nullptr || dist == nullptr) {
    return Status::InvalidArgument("data and dist must be non-null");
  }
  auto plan = Analyze(*dist, data->size(), options.b1,
                      options.frequency_split, options.ell);
  if (!plan.ok()) return plan.status();
  plan_ = *plan;
  data_ = data;
  options_ = options;

  const auto& p = dist->probabilities();
  is_frequent_.assign(p.size(), false);
  for (size_t i = 0; i < p.size(); ++i) {
    is_frequent_[i] = p[i] >= plan_.split_probability;
  }

  // Sub-distributions share the id space; the "other" side's items get a
  // negligible probability (they never occur in the projected data, but
  // ProductDistribution requires p > 0).
  std::vector<double> pf(p.size(), 1e-12), pr(p.size(), 1e-12);
  double m_f = 0.0, m_r = 0.0;
  for (size_t i = 0; i < p.size(); ++i) {
    if (is_frequent_[i]) {
      pf[i] = p[i];
      m_f += p[i];
    } else {
      pr[i] = p[i];
      m_r += p[i];
    }
  }
  auto fd = ProductDistribution::Create(std::move(pf));
  if (!fd.ok()) return fd.status();
  frequent_dist_ = std::move(fd.value());
  auto rd = ProductDistribution::Create(std::move(pr));
  if (!rd.ok()) return rd.status();
  rare_dist_ = std::move(rd.value());

  frequent_data_ = Dataset();
  rare_data_ = Dataset();
  for (VectorId id = 0; id < data->size(); ++id) {
    auto ids = data->Get(id);
    frequent_data_.Add(SparseVector::FromSorted(
        Project(ids, is_frequent_, /*want_frequent=*/true)));
    rare_data_.Add(SparseVector::FromSorted(
        Project(ids, is_frequent_, /*want_frequent=*/false)));
  }
  SKEWSEARCH_RETURN_NOT_OK(frequent_data_.SetDimension(dist->dimension()));
  SKEWSEARCH_RETURN_NOT_OK(rare_data_.SetDimension(dist->dimension()));

  const double m = dist->SumP();
  // Projected Braun-Blanquet thresholds implementing the overlap demands
  // ell*|q| and (b1-ell)*|q|; sizes concentrate around m, m_f, m_r.
  double b_f = m_f > 0.0 ? Clamp(plan_.ell * m / m_f, 0.02, 0.98) : 0.98;
  double b_r =
      m_r > 0.0 ? Clamp((options.b1 - plan_.ell) * m / m_r, 0.02, 0.98)
                : 0.98;

  SkewedIndexOptions sub = options.index;
  sub.mode = IndexMode::kAdversarial;
  sub.b1 = b_f;
  frequent_index_ = std::make_unique<ShardedIndex>();
  SKEWSEARCH_RETURN_NOT_OK(
      frequent_index_->Build(&frequent_data_, &frequent_dist_, {sub, 1}));

  sub.b1 = b_r;
  sub.seed = options.index.seed ^ 0x9e3779b97f4a7c15ULL;
  rare_index_ = std::make_unique<ShardedIndex>();
  SKEWSEARCH_RETURN_NOT_OK(
      rare_index_->Build(&rare_data_, &rare_dist_, {sub, 1}));
  return Status::OK();
}

std::optional<Match> SplitSearcher::Query(std::span<const ItemId> query,
                                          QueryStats* stats) const {
  Timer timer;
  QueryStats local;
  std::optional<Match> found;
  if (frequent_index_ != nullptr) {
    SparseVector qf = SparseVector::FromSorted(
        Project(query, is_frequent_, /*want_frequent=*/true));
    SparseVector qr = SparseVector::FromSorted(
        Project(query, is_frequent_, /*want_frequent=*/false));
    // Candidates from either half; verification is always on the *full*
    // vectors against the overall threshold b1.
    for (int side = 0; side < 2 && !found; ++side) {
      const ShardedIndex& index =
          side == 0 ? *frequent_index_ : *rare_index_;
      const SparseVector& sub_query = side == 0 ? qf : qr;
      if (sub_query.empty()) continue;
      QueryStats qs;
      // Threshold 0: enumerate every candidate the sub-index surfaces.
      auto candidates = index.QueryAll(sub_query.span(), 0.0, &qs);
      local.filters += qs.filters;
      local.candidates += qs.candidates;
      local.distinct_candidates += qs.distinct_candidates;
      for (const Match& c : candidates) {
        local.verifications++;
        double sim = BraunBlanquet(query, data_->Get(c.id));
        if (sim >= options_.b1) {
          found = Match{c.id, sim};
          break;
        }
      }
    }
  }
  local.seconds = timer.ElapsedSeconds();
  if (stats != nullptr) *stats = local;
  return found;
}

}  // namespace skewsearch
