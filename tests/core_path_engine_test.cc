#include "core/path_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "util/random.h"

namespace skewsearch {
namespace {

// A policy with a fixed threshold, for controlled engine tests.
class FixedPolicy : public ThresholdPolicy {
 public:
  explicit FixedPolicy(double s) : s_(s) {}
  double Threshold(size_t, int, ItemId) const override { return s_; }

 private:
  double s_;
};

// The plain recursion the filter kernel must reproduce, one repetition at
// a time: a Threshold call, a LevelDraw and (on acceptance) an ExtendKey
// per draw, and a full ancestor walk per item for sampling without
// replacement. An item at or above dist.dimension() is never put on a
// path and makes no draw, but still counts toward |x|.
struct RefNode {
  uint64_t key;
  double log_inv_prod;
  int32_t parent;
  ItemId item;
  int32_t depth;
};

bool RefPathContains(const std::vector<RefNode>& arena, int32_t node,
                     ItemId item) {
  while (node >= 0 && arena[static_cast<size_t>(node)].depth > 0) {
    if (arena[static_cast<size_t>(node)].item == item) return true;
    node = arena[static_cast<size_t>(node)].parent;
  }
  return false;
}

void ReferenceFilters(const ProductDistribution& dist,
                      const ThresholdPolicy& policy, const PathHasher& hasher,
                      const PathEngineOptions& options,
                      std::span<const ItemId> x, uint32_t rep,
                      std::vector<uint64_t>* out, PathGenStats* stats) {
  PathGenStats local;
  if (!x.empty()) {
    std::vector<RefNode> arena;
    std::vector<int32_t> frontier;
    std::vector<int32_t> next;
    arena.push_back(RefNode{hasher.RootKey(rep), 0.0, -1, 0, 0});
    frontier.push_back(0);
    bool done = false;
    while (!frontier.empty() && !done) {
      next.clear();
      for (int32_t node_idx : frontier) {
        const RefNode node = arena[static_cast<size_t>(node_idx)];
        if (node.depth >= options.max_depth) continue;
        local.nodes_expanded++;
        const int level = node.depth + 1;
        for (ItemId item : x) {
          if (item >= dist.dimension()) continue;
          if (options.without_replacement &&
              RefPathContains(arena, node_idx, item)) {
            continue;
          }
          local.draws++;
          const double threshold = policy.Threshold(x.size(), node.depth, item);
          if (threshold < 1.0 &&
              hasher.LevelDraw(level, node.key, item) >= threshold) {
            continue;
          }
          RefNode child;
          child.key = hasher.ExtendKey(node.key, item);
          child.log_inv_prod = node.log_inv_prod + dist.LogInvP(item);
          child.parent = node_idx;
          child.item = item;
          child.depth = level;
          const bool is_filter =
              options.stop_rule == StopRule::kProbability
                  ? child.log_inv_prod >= options.log_n
                  : child.depth >= options.fixed_depth;
          if (is_filter) {
            out->push_back(child.key);
            local.filters_emitted++;
          } else {
            arena.push_back(child);
            next.push_back(static_cast<int32_t>(arena.size() - 1));
          }
          if (arena.size() + local.filters_emitted >= options.max_paths) {
            local.cap_hit = true;
            done = true;
            break;
          }
        }
        if (done) break;
      }
      frontier.swap(next);
    }
  }
  *stats = local;
}

void ExpectSameStats(const PathGenStats& got, const PathGenStats& want) {
  EXPECT_EQ(got.filters_emitted, want.filters_emitted);
  EXPECT_EQ(got.nodes_expanded, want.nodes_expanded);
  EXPECT_EQ(got.draws, want.draws);
  EXPECT_EQ(got.cap_hit, want.cap_hit);
}

// The filter kernels this CPU runs, weakest first. The first call
// logs them, so a run's output says which kernels its rows covered.
std::vector<PathKernel> AvailableKernels() {
  std::vector<PathKernel> kernels;
  for (PathKernel kernel :
       {PathKernel::kScalar, PathKernel::kAvx2, PathKernel::kAvx512}) {
    if (static_cast<int>(kernel) <= static_cast<int>(DetectPathKernel())) {
      kernels.push_back(kernel);
    }
  }
  static const bool logged = [&] {
    std::string names;
    for (PathKernel kernel : kernels) {
      names += std::string(names.empty() ? "" : ", ") + PathKernelName(kernel);
    }
    std::printf("path kernels run: %s\n", names.c_str());
    return true;
  }();
  (void)logged;
  return kernels;
}

// Installs a kernel for its scope and restores the one active before.
class ScopedPathKernel {
 public:
  explicit ScopedPathKernel(PathKernel kernel)
      : previous_(ActivePathKernel()) {
    SetPathKernel(kernel);
  }
  ~ScopedPathKernel() { SetPathKernel(previous_); }
  ScopedPathKernel(const ScopedPathKernel&) = delete;
  ScopedPathKernel& operator=(const ScopedPathKernel&) = delete;

 private:
  PathKernel previous_;
};

// The per-repetition entry point on a freshly prepared vector.
void Filters(const PathEngine& engine, std::span<const ItemId> x,
             uint32_t rep, std::vector<uint64_t>* out, PathGenStats* stats) {
  PreparedVector prepared;
  engine.Prepare(x, &prepared);
  engine.ComputeFilters(&prepared, rep, out, stats);
}

// Runs both entry points of the kernel on \p x for repetitions [0, reps),
// under each kernel the CPU has, and checks every key (in order) and
// every counter against ReferenceFilters. The per-repetition entry point
// grows every repetition, last first, from one prepared state and
// appends after a sentinel key, which must survive. Returns the
// reference's summed counters.
PathGenStats ExpectKernelMatchesReference(const ProductDistribution& dist,
                                          const ThresholdPolicy& policy,
                                          const PathHasher& hasher,
                                          const PathEngineOptions& options,
                                          std::span<const ItemId> x,
                                          uint32_t reps) {
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<std::vector<uint64_t>> want(reps);
  std::vector<PathGenStats> want_stats(reps);
  PathGenStats sum;
  size_t ref_capped = 0;
  for (uint32_t rep = 0; rep < reps; ++rep) {
    ReferenceFilters(dist, policy, hasher, options, x, rep, &want[rep],
                     &want_stats[rep]);
    sum.filters_emitted += want_stats[rep].filters_emitted;
    sum.nodes_expanded += want_stats[rep].nodes_expanded;
    sum.draws += want_stats[rep].draws;
    sum.cap_hit = sum.cap_hit || want_stats[rep].cap_hit;
    ref_capped += want_stats[rep].cap_hit;
  }

  for (PathKernel kernel : AvailableKernels()) {
    ScopedPathKernel forced(kernel);
    SCOPED_TRACE(std::string("kernel ") + PathKernelName(ActivePathKernel()));
    std::vector<uint64_t> all;
    std::vector<size_t> offsets;
    PathGenStats all_stats;
    size_t capped = 0;
    engine.ComputeFiltersAllReps(x, reps, &all, &offsets, &all_stats,
                                 &capped);
    EXPECT_EQ(offsets.size(), reps + 1);
    if (offsets.size() != reps + 1) return {};
    EXPECT_EQ(offsets.back(), all.size());
    ExpectSameStats(all_stats, sum);
    EXPECT_EQ(capped, ref_capped);

    PreparedVector prepared;
    engine.Prepare(x, &prepared);
    for (uint32_t rep = reps; rep-- > 0;) {
      SCOPED_TRACE("rep " + std::to_string(rep));
      const std::vector<uint64_t> group(all.begin() + offsets[rep],
                                        all.begin() + offsets[rep + 1]);
      EXPECT_EQ(group, want[rep]);

      constexpr uint64_t kSentinel = 0xfeedfacecafebeefULL;
      std::vector<uint64_t> single = {kSentinel};
      PathGenStats single_stats;
      engine.ComputeFilters(&prepared, rep, &single, &single_stats);
      EXPECT_EQ(single.front(), kSentinel);
      single.erase(single.begin());
      EXPECT_EQ(single, want[rep]);
      ExpectSameStats(single_stats, want_stats[rep]);
    }
  }
  return sum;
}

// Engine variant that records full paths by re-running the recursion
// manually — used to validate invariants. We reconstruct paths by walking
// the same decisions the engine makes.
struct TestContext {
  ProductDistribution dist;
  PathHasher hasher;
  TestContext(ProductDistribution d, uint64_t seed, int levels)
      : dist(std::move(d)), hasher(seed, levels) {}
};

TEST(PathEngineTest, EmptyVectorProducesNoFilters) {
  auto dist = UniformProbabilities(10, 0.3).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(1, 8);
  PathEngineOptions options;
  options.log_n = std::log(100.0);
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<uint64_t> out;
  PathGenStats stats;
  Filters(engine, {}, 0, &out, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.filters_emitted, 0u);
}

TEST(PathEngineTest, DeterministicAcrossCalls) {
  auto dist = UniformProbabilities(100, 0.25).value();
  FixedPolicy policy(0.3);
  PathHasher hasher(7, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({1, 5, 9, 20, 33, 47, 60, 78, 90});
  std::vector<uint64_t> a, b;
  Filters(engine, x.span(), 0, &a, nullptr);
  Filters(engine, x.span(), 0, &b, nullptr);
  EXPECT_EQ(a, b);
}

TEST(PathEngineTest, RepetitionsProduceDifferentFilters) {
  auto dist = UniformProbabilities(100, 0.25).value();
  FixedPolicy policy(0.3);
  PathHasher hasher(7, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({1, 5, 9, 20, 33, 47, 60, 78, 90});
  std::vector<uint64_t> a, b;
  Filters(engine, x.span(), 0, &a, nullptr);
  Filters(engine, x.span(), 1, &b, nullptr);
  std::set<uint64_t> sa(a.begin(), a.end()), sb(b.begin(), b.end());
  std::vector<uint64_t> common;
  std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(),
                        std::back_inserter(common));
  EXPECT_TRUE(common.empty());
}

TEST(PathEngineTest, StopRuleBoundsPathProbability) {
  // With threshold 1 (take every item) and all p = 0.5 the engine must
  // emit exactly the paths of length ceil(log2 n): each path stops at the
  // first length where (1/2)^len <= 1/n.
  const size_t n = 100;
  auto dist = UniformProbabilities(8, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(11, 16);
  PathEngineOptions options;
  options.log_n = std::log(static_cast<double>(n));
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2, 3, 4, 5, 6, 7});
  std::vector<uint64_t> out;
  PathGenStats stats;
  Filters(engine, x.span(), 0, &out, &stats);
  // ceil(log2 100) = 7; paths = 8 P 7 ordered selections without
  // replacement = 8!/(8-7)! = 40320... all chosen since threshold 1.
  // Depth: ln(100)/ln(2) = 6.64 -> length 7.
  size_t expected = 1;
  for (size_t k = 8; k > 1; --k) expected *= k;  // 8*7*6*5*4*3*2 = 40320
  EXPECT_EQ(out.size(), expected);
}

TEST(PathEngineTest, RareItemsShortenPaths) {
  // One ultra-rare item: a path through it should stop immediately
  // (p <= 1/n), giving length-1 filters.
  const size_t n = 1000;
  std::vector<double> p{0.0005, 0.5, 0.5, 0.5};
  auto dist = ProductDistribution::Create(p).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(13, 16);
  PathEngineOptions options;
  options.log_n = std::log(static_cast<double>(n));
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0});
  std::vector<uint64_t> out;
  Filters(engine, x.span(), 0, &out, nullptr);
  // Only the single path (0), which stops right away.
  EXPECT_EQ(out.size(), 1u);
}

TEST(PathEngineTest, WithoutReplacementNeverRepeatsItems) {
  // With only 3 items of p = 0.5 and n = 1000 (needs depth 10), paths can
  // never reach the stop rule without repeating; without replacement the
  // recursion must die out, emitting nothing, rather than looping.
  auto dist = UniformProbabilities(3, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(17, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  options.without_replacement = true;
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2});
  std::vector<uint64_t> out;
  Filters(engine, x.span(), 0, &out, nullptr);
  EXPECT_TRUE(out.empty());
}

TEST(PathEngineTest, WithReplacementCanRepeat) {
  // Same setup but with replacement: paths of length 10 exist.
  auto dist = UniformProbabilities(3, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(17, 16);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  options.without_replacement = false;
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2});
  std::vector<uint64_t> out;
  Filters(engine, x.span(), 0, &out, nullptr);
  // 3^10 paths all taken with threshold 1.
  EXPECT_EQ(out.size(), static_cast<size_t>(std::pow(3, 10)));
}

TEST(PathEngineTest, FixedDepthStopRule) {
  auto dist = UniformProbabilities(5, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(19, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 2;
  options.without_replacement = false;
  PathEngine engine(&dist, &policy, &hasher, options);
  SparseVector x = SparseVector::Of({0, 1, 2, 3, 4});
  std::vector<uint64_t> out;
  Filters(engine, x.span(), 0, &out, nullptr);
  EXPECT_EQ(out.size(), 25u);  // 5^2 ordered pairs with replacement
}

TEST(PathEngineTest, ThresholdScalesFilterCount) {
  // Halving the threshold should roughly quarter depth-2 path counts.
  auto dist = UniformProbabilities(200, 0.5).value();
  PathHasher hasher(23, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 2;
  options.without_replacement = false;

  auto count_for = [&](double s) {
    FixedPolicy policy(s);
    PathEngine engine(&dist, &policy, &hasher, options);
    SparseVector x = SparseVector::FromSorted([] {
      std::vector<ItemId> ids(200);
      for (ItemId i = 0; i < 200; ++i) ids[i] = i;
      return ids;
    }());
    double total = 0;
    for (uint32_t rep = 0; rep < 50; ++rep) {
      std::vector<uint64_t> out;
      Filters(engine, x.span(), rep, &out, nullptr);
      total += static_cast<double>(out.size());
    }
    return total / 50.0;
  };
  double full = count_for(0.2);   // E = (200*0.2)^2 = 1600
  double half = count_for(0.1);   // E = (200*0.1)^2 = 400
  EXPECT_NEAR(full / half, 4.0, 0.8);
}

TEST(PathEngineTest, CapTruncatesAndReports) {
  auto dist = UniformProbabilities(50, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(29, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 4;
  options.without_replacement = false;
  options.max_paths = 1000;  // far below 50^4
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<ItemId> ids(50);
  for (ItemId i = 0; i < 50; ++i) ids[i] = i;
  SparseVector x = SparseVector::FromSorted(ids);
  std::vector<uint64_t> out;
  PathGenStats stats;
  Filters(engine, x.span(), 0, &out, &stats);
  EXPECT_TRUE(stats.cap_hit);
  EXPECT_LE(out.size(), 1001u);
}

TEST(PathEngineTest, StatsCountNodesAndDraws) {
  auto dist = UniformProbabilities(20, 0.5).value();
  FixedPolicy policy(0.5);
  PathHasher hasher(31, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 2;
  options.without_replacement = false;
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<ItemId> ids(20);
  for (ItemId i = 0; i < 20; ++i) ids[i] = i;
  SparseVector x = SparseVector::FromSorted(ids);
  std::vector<uint64_t> out;
  PathGenStats stats;
  Filters(engine, x.span(), 0, &out, &stats);
  EXPECT_GT(stats.nodes_expanded, 0u);
  EXPECT_GE(stats.draws, stats.nodes_expanded);  // >= |x| draws per node
  EXPECT_EQ(stats.filters_emitted, out.size());
}

TEST(PathEngineTest, SharedItemsYieldSharedFilters) {
  // Two vectors sharing most items should share filters; disjoint vectors
  // share none. This is the collision property the index relies on.
  auto dist = UniformProbabilities(300, 0.05).value();
  AdversarialPolicy policy(0.5);
  PathHasher hasher(37, 16);
  PathEngineOptions options;
  options.log_n = std::log(500.0);
  PathEngine engine(&dist, &policy, &hasher, options);

  std::vector<ItemId> base;
  for (ItemId i = 0; i < 40; ++i) base.push_back(i);
  SparseVector x = SparseVector::FromSorted(base);
  std::vector<ItemId> mostly = base;
  mostly.erase(mostly.begin(), mostly.begin() + 4);  // drop 4 of 40
  for (ItemId i = 100; i < 104; ++i) mostly.push_back(i);
  SparseVector y = SparseVector::FromIds(mostly);
  std::vector<ItemId> other;
  for (ItemId i = 200; i < 240; ++i) other.push_back(i);
  SparseVector z = SparseVector::FromSorted(other);

  size_t shared_xy = 0, shared_xz = 0;
  for (uint32_t rep = 0; rep < 30; ++rep) {
    std::vector<uint64_t> fx, fy, fz;
    Filters(engine, x.span(), rep, &fx, nullptr);
    Filters(engine, y.span(), rep, &fy, nullptr);
    Filters(engine, z.span(), rep, &fz, nullptr);
    std::set<uint64_t> sx(fx.begin(), fx.end());
    for (uint64_t k : fy) shared_xy += sx.count(k);
    for (uint64_t k : fz) shared_xz += sx.count(k);
  }
  EXPECT_GT(shared_xy, 0u);
  EXPECT_EQ(shared_xz, 0u);
}

TEST(PathEngineTest, FusedAllRepsMatchesPerRepByteForByte) {
  // The fused level-synchronous pass must reproduce each repetition's
  // key stream exactly — same keys, same order — and sum the stats.
  auto dist = TwoBlockProbabilities(20, 0.3, 300, 0.01).value();
  FixedPolicy policy(0.25);
  PathHasher hasher(11, 32);
  PathEngineOptions options;
  options.log_n = std::log(2000.0);
  PathEngine engine(&dist, &policy, &hasher, options);

  Rng rng(55);
  for (int trial = 0; trial < 20; ++trial) {
    SparseVector x = dist.Sample(&rng);
    const uint32_t reps = 1 + static_cast<uint32_t>(trial % 7);

    std::vector<uint64_t> fused;
    std::vector<size_t> offsets;
    PathGenStats fused_stats;
    size_t capped = 0;
    engine.ComputeFiltersAllReps(x.span(), reps, &fused, &offsets,
                                 &fused_stats, &capped);
    ASSERT_EQ(offsets.size(), reps + 1);
    ASSERT_EQ(offsets.front(), 0u);
    ASSERT_EQ(offsets.back(), fused.size());
    EXPECT_EQ(capped, 0u);

    size_t emitted = 0;
    for (uint32_t rep = 0; rep < reps; ++rep) {
      std::vector<uint64_t> single;
      PathGenStats stats;
      Filters(engine, x.span(), rep, &single, &stats);
      emitted += stats.filters_emitted;
      ASSERT_EQ(offsets[rep + 1] - offsets[rep], single.size()) << rep;
      for (size_t i = 0; i < single.size(); ++i) {
        ASSERT_EQ(fused[offsets[rep] + i], single[i])
            << "rep " << rep << " pos " << i;
      }
    }
    EXPECT_EQ(fused_stats.filters_emitted, emitted);
  }
}

TEST(PathEngineTest, FusedAllRepsHandlesEmptyVectorAndZeroReps) {
  auto dist = UniformProbabilities(10, 0.3).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(1, 8);
  PathEngineOptions options;
  options.log_n = std::log(100.0);
  PathEngine engine(&dist, &policy, &hasher, options);

  std::vector<uint64_t> keys;
  std::vector<size_t> offsets;
  engine.ComputeFiltersAllReps({}, 4, &keys, &offsets, nullptr);
  EXPECT_TRUE(keys.empty());
  ASSERT_EQ(offsets.size(), 5u);

  SparseVector x = SparseVector::Of({1, 3, 5});
  engine.ComputeFiltersAllReps(x.span(), 0, &keys, &offsets, nullptr);
  EXPECT_TRUE(keys.empty());
  ASSERT_EQ(offsets.size(), 1u);
}

TEST(PathEngineTest, KernelMatchesReferenceAcrossEnginesAndRules) {
  // Seeded vectors under the item- and depth-dependent correlated policy,
  // for both hash engines, both stop rules and both sampling modes.
  auto dist = TwoBlockProbabilities(20, 0.3, 300, 0.01).value();
  CorrelatedPolicy policy(&dist, 0.8, 0.3);
  for (HashEngine hash : {HashEngine::kMixer, HashEngine::kPairwise}) {
    SCOPED_TRACE(hash == HashEngine::kMixer ? "mixer" : "pairwise");
    PathHasher hasher(11, 12, hash);
    for (StopRule rule : {StopRule::kProbability, StopRule::kFixedDepth}) {
      SCOPED_TRACE(rule == StopRule::kProbability ? "probability" : "fixed");
      for (bool without_replacement : {true, false}) {
        SCOPED_TRACE(without_replacement ? "no replacement" : "replacement");
        PathEngineOptions options;
        options.stop_rule = rule;
        options.log_n = std::log(2000.0);
        options.fixed_depth = 3;
        options.max_depth = 10;
        options.without_replacement = without_replacement;
        Rng rng(55);
        size_t draws = 0;
        for (uint32_t trial = 0; trial < 12; ++trial) {
          SCOPED_TRACE("trial " + std::to_string(trial));
          SparseVector x = dist.Sample(&rng);
          const PathGenStats sum = ExpectKernelMatchesReference(
              dist, policy, hasher, options, x.span(), 1 + trial % 5);
          draws += sum.draws;
        }
        EXPECT_GT(draws, 0u);
      }
    }
  }
}

TEST(PathEngineTest, KernelMatchesReferenceAtEdgeThresholds) {
  // Thresholds at and beyond the ends of [0, 1], and NaN, which accepts
  // like a threshold >= 1 (the recursion only rejects when s < 1).
  auto dist = UniformProbabilities(12, 0.3).value();
  const double kThresholds[] = {
      0.0,
      -0.0,
      -0.5,
      std::numeric_limits<double>::denorm_min(),
      0x1.0p-53,
      0.05,
      0.3,
      0.5,
      std::nextafter(1.0, 0.0),  // 1 - 2^-53
      1.0,
      1.5,
      std::numeric_limits<double>::quiet_NaN(),
  };
  SparseVector x = SparseVector::Of({0, 2, 3, 5, 7, 8, 11});
  for (HashEngine hash : {HashEngine::kMixer, HashEngine::kPairwise}) {
    SCOPED_TRACE(hash == HashEngine::kMixer ? "mixer" : "pairwise");
    PathHasher hasher(5, 8, hash);
    for (double s : kThresholds) {
      SCOPED_TRACE("s = " + std::to_string(s));
      FixedPolicy policy(s);
      PathEngineOptions options;
      options.log_n = std::log(2000.0);
      ExpectKernelMatchesReference(dist, policy, hasher, options, x.span(), 2);
      options.stop_rule = StopRule::kFixedDepth;
      options.fixed_depth = 3;
      options.without_replacement = false;
      ExpectKernelMatchesReference(dist, policy, hasher, options, x.span(), 2);
    }
  }
}

TEST(PathEngineTest, KernelMatchesReferenceWhenCapped) {
  auto dist = UniformProbabilities(50, 0.5).value();
  FixedPolicy policy(0.4);
  PathHasher hasher(29, 8);
  PathEngineOptions options;
  options.stop_rule = StopRule::kFixedDepth;
  options.fixed_depth = 4;
  options.without_replacement = false;
  options.max_paths = 700;
  std::vector<ItemId> ids(50);
  for (ItemId i = 0; i < 50; ++i) ids[i] = i;
  const PathGenStats sum =
      ExpectKernelMatchesReference(dist, policy, hasher, options, ids, 3);
  EXPECT_TRUE(sum.cap_hit);
}

// Accepts exactly item j at depth j: one path, 0 o 1 o 2 o ..., grows until
// the stop rule ends it.
class ChainPolicy : public ThresholdPolicy {
 public:
  double Threshold(size_t, int depth, ItemId item) const override {
    return item == static_cast<ItemId>(depth) ? 1.0 : 0.0;
  }
};

TEST(PathEngineTest, KernelMatchesReferenceBeyondOneMaskWord) {
  // |x| = 240 and a 227-item path: the one-word Bloom mask of the path's
  // items saturates, so the ancestor walk decides for almost every item.
  auto dist = UniformProbabilities(256, 0.97).value();
  ChainPolicy policy;
  PathHasher hasher(41, 64);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  options.max_depth = 250;
  std::vector<ItemId> ids(240);
  for (ItemId i = 0; i < 240; ++i) ids[i] = i;
  const PathGenStats sum =
      ExpectKernelMatchesReference(dist, policy, hasher, options, ids, 2);
  // ln(1000) / ln(1 / 0.97) = 226.8: the path stops at length 227.
  EXPECT_EQ(sum.filters_emitted, 2u);
  EXPECT_EQ(sum.nodes_expanded, 2u * 227u);
}

TEST(PathEngineTest, KernelMatchesReferenceWithDuplicateItems) {
  // A span need not be a SparseVector: unsorted, with repeats. Without
  // replacement, an item on the path is skipped at every position it
  // occupies in x.
  auto dist = UniformProbabilities(20, 0.4).value();
  CorrelatedPolicy correlated(&dist, 0.8, 0.3);
  FixedPolicy fixed(0.45);
  const std::vector<ItemId> x = {3, 5, 5, 9, 3, 12, 7, 5, 0, 19};
  PathHasher hasher(61, 12);
  for (const ThresholdPolicy* policy :
       {static_cast<const ThresholdPolicy*>(&correlated),
        static_cast<const ThresholdPolicy*>(&fixed)}) {
    for (bool without_replacement : {true, false}) {
      SCOPED_TRACE(without_replacement ? "no replacement" : "replacement");
      PathEngineOptions options;
      options.log_n = std::log(500.0);
      options.max_depth = 8;
      options.without_replacement = without_replacement;
      ExpectKernelMatchesReference(dist, *policy, hasher, options, x, 4);
    }
  }
}

TEST(PathEngineTest, KernelSkipsItemsOutsideTheUniverse) {
  // An item the distribution does not cover occurs in no indexed vector:
  // it is never drawn or put on a path. With a policy that ignores |x|,
  // F(x) is then exactly F of x's in-universe items, counters included.
  auto dist = UniformProbabilities(50, 0.3).value();
  FixedPolicy policy(0.4);
  PathHasher hasher(71, 12);
  PathEngineOptions options;
  options.log_n = std::log(1000.0);
  const std::vector<ItemId> inside = {1, 4, 9, 17, 23, 31, 42, 49};
  std::vector<ItemId> widened = inside;
  widened.insert(widened.end(), {50, 57, 1000000});
  const PathGenStats want =
      ExpectKernelMatchesReference(dist, policy, hasher, options, inside, 3);
  const PathGenStats got =
      ExpectKernelMatchesReference(dist, policy, hasher, options, widened, 3);
  ExpectSameStats(got, want);
  PathEngine engine(&dist, &policy, &hasher, options);
  std::vector<uint64_t> keys_inside, keys_widened;
  std::vector<size_t> offsets_inside, offsets_widened;
  engine.ComputeFiltersAllReps(inside, 3, &keys_inside, &offsets_inside,
                               nullptr);
  engine.ComputeFiltersAllReps(widened, 3, &keys_widened, &offsets_widened,
                               nullptr);
  EXPECT_FALSE(keys_inside.empty());
  EXPECT_EQ(keys_widened, keys_inside);
  EXPECT_EQ(offsets_widened, offsets_inside);

  // A vector of out-of-universe items only: the root of each repetition
  // is expanded, but nothing is drawn.
  const std::vector<ItemId> outside = {50, 60};
  const PathGenStats none =
      ExpectKernelMatchesReference(dist, policy, hasher, options, outside, 2);
  EXPECT_EQ(none.draws, 0u);
  EXPECT_EQ(none.filters_emitted, 0u);
}

TEST(PathEngineTest, KernelDispatchClampsAndNames) {
  EXPECT_STREQ(PathKernelName(PathKernel::kScalar), "scalar");
  EXPECT_STREQ(PathKernelName(PathKernel::kAvx2), "avx2");
  EXPECT_STREQ(PathKernelName(PathKernel::kAvx512), "avx512");
  const PathKernel best = DetectPathKernel();
  EXPECT_EQ(ActivePathKernel(), best);
  std::printf("detected path kernel: %s\n", PathKernelName(best));
  {
    // Scalar is always available; a request above the CPU's best clamps
    // to it, and the scope restores what was active.
    ScopedPathKernel scalar(PathKernel::kScalar);
    EXPECT_EQ(ActivePathKernel(), PathKernel::kScalar);
    EXPECT_EQ(SetPathKernel(PathKernel::kAvx512), best);
    EXPECT_EQ(ActivePathKernel(), best);
    EXPECT_EQ(SetPathKernel(PathKernel::kScalar), PathKernel::kScalar);
  }
  EXPECT_EQ(ActivePathKernel(), best);
  const std::vector<PathKernel> kernels = AvailableKernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_EQ(kernels.front(), PathKernel::kScalar);
  EXPECT_EQ(kernels.back(), best);
}

// About two and a half children per node, with a threshold that varies
// by item and depth, so neighbouring lanes of a block hold different
// bounds at every level.
class SpreadPolicy : public ThresholdPolicy {
 public:
  double Threshold(size_t size, int depth, ItemId item) const override {
    const double weight =
        1.0 + static_cast<double>((item + static_cast<ItemId>(depth)) % 4);
    return weight / (static_cast<double>(size) + 1.0);
  }
};

TEST(PathEngineTest, KernelMatchesReferenceAtLaneAndWordEdges) {
  // In-universe counts from the smallest node the accept pass takes (9),
  // through partial and full last blocks of 4 and 8 lanes (12, 15, 16),
  // to each side of a 64-item mask word, with items outside the universe
  // interleaved.
  auto dist = UniformProbabilities(300, 0.4).value();
  SpreadPolicy policy;
  for (size_t m : {9, 12, 15, 16, 63, 64, 65, 129}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    std::vector<ItemId> x;
    for (size_t k = 0; k < m; ++k) {
      x.push_back(static_cast<ItemId>((k * 37) % 300));
      if (k % 16 == 5) x.push_back(static_cast<ItemId>(300 + k));
    }
    for (HashEngine hash : {HashEngine::kMixer, HashEngine::kPairwise}) {
      SCOPED_TRACE(hash == HashEngine::kMixer ? "mixer" : "pairwise");
      PathHasher hasher(83, 12, hash);
      for (bool without_replacement : {true, false}) {
        SCOPED_TRACE(without_replacement ? "no replacement" : "replacement");
        PathEngineOptions options;
        options.log_n = std::log(200.0);
        options.max_depth = 8;
        options.without_replacement = without_replacement;
        const PathGenStats sum = ExpectKernelMatchesReference(
            dist, policy, hasher, options, x, 3);
        EXPECT_GT(sum.draws, 0u);
      }
    }
  }
}

TEST(PathEngineTest, KernelMatchesReferenceWhenCapStopsMidBlock) {
  // Every draw accepts, paths of three items, without replacement. The
  // arena holds the root and both full levels, 1 + m^2 nodes, before
  // level 2 emits; its first m - 2 nodes emit m - 2 filters each. The
  // cap then stops node (0, m - 1) right after item `stop`, inside a
  // block, with its path's items 0 and m - 1 on either side of the stop.
  auto dist = UniformProbabilities(100, 0.5).value();
  FixedPolicy policy(1.0);
  PathHasher hasher(89, 8);
  for (const auto& [m, stop] : {std::pair<size_t, size_t>{20, 11},
                                std::pair<size_t, size_t>{70, 67}}) {
    SCOPED_TRACE("m = " + std::to_string(m));
    std::vector<ItemId> x(m);
    for (size_t k = 0; k < m; ++k) x[k] = static_cast<ItemId>(k);
    const size_t per_rep = (m - 2) * (m - 2) + stop;
    PathEngineOptions options;
    options.stop_rule = StopRule::kFixedDepth;
    options.fixed_depth = 3;
    options.max_paths = 1 + m * m + per_rep;
    const PathGenStats sum =
        ExpectKernelMatchesReference(dist, policy, hasher, options, x, 2);
    EXPECT_TRUE(sum.cap_hit);
    EXPECT_EQ(sum.filters_emitted, 2 * per_rep);
  }
}

TEST(PathEngineTest, KernelMatchesReferenceWithRepeatsAcrossAWord) {
  // Copies of one item on both sides of the 64-item word boundary: once
  // the item is on the path, every copy is skipped and makes no draw.
  auto dist = UniformProbabilities(80, 0.4).value();
  SpreadPolicy policy;
  std::vector<ItemId> x;
  for (ItemId i = 0; i < 63; ++i) x.push_back(i);
  x.insert(x.end(), {7, 7, 63, 63, 62, 0, 64, 65, 7});
  for (HashEngine hash : {HashEngine::kMixer, HashEngine::kPairwise}) {
    SCOPED_TRACE(hash == HashEngine::kMixer ? "mixer" : "pairwise");
    PathHasher hasher(97, 12, hash);
    for (bool without_replacement : {true, false}) {
      SCOPED_TRACE(without_replacement ? "no replacement" : "replacement");
      PathEngineOptions options;
      options.log_n = std::log(300.0);
      options.max_depth = 8;
      options.without_replacement = without_replacement;
      ExpectKernelMatchesReference(dist, policy, hasher, options, x, 3);
    }
  }
}

TEST(PathEngineTest, PreparedVectorGrowsAnyRepetitionAndHoldsNothingStale) {
  // Repetitions grown out of order from one prepared state equal the
  // all-repetition groups; so do those of a shorter vector prepared into
  // the same state afterwards (its own |x|, thresholds and padding).
  auto dist = UniformProbabilities(300, 0.4).value();
  SpreadPolicy policy;
  const std::vector<ItemId> longer = [] {
    std::vector<ItemId> ids;
    for (ItemId i = 0; i < 129; ++i) ids.push_back((i * 7) % 300);
    return ids;
  }();
  const std::vector<ItemId> shorter = {3,  301, 9,  27, 81, 243, 14,
                                       42, 126, 5,  15, 45, 135};
  for (HashEngine hash : {HashEngine::kMixer, HashEngine::kPairwise}) {
    SCOPED_TRACE(hash == HashEngine::kMixer ? "mixer" : "pairwise");
    PathHasher hasher(101, 12, hash);
    PathEngineOptions options;
    options.log_n = std::log(200.0);
    options.max_depth = 8;
    PathEngine engine(&dist, &policy, &hasher, options);
    for (PathKernel kernel : AvailableKernels()) {
      ScopedPathKernel forced(kernel);
      SCOPED_TRACE(std::string("kernel ") +
                   PathKernelName(ActivePathKernel()));
      PreparedVector prepared;
      for (const std::vector<ItemId>* x : {&longer, &shorter}) {
        SCOPED_TRACE("|x| = " + std::to_string(x->size()));
        std::vector<uint64_t> all;
        std::vector<size_t> offsets;
        engine.ComputeFiltersAllReps(*x, 5, &all, &offsets, nullptr);
        ASSERT_EQ(offsets.size(), 6u);
        engine.Prepare(*x, &prepared);
        for (uint32_t rep : {4u, 0u, 2u}) {
          SCOPED_TRACE("rep " + std::to_string(rep));
          const std::vector<uint64_t> group(all.begin() + offsets[rep],
                                            all.begin() + offsets[rep + 1]);
          std::vector<uint64_t> keys;
          engine.ComputeFilters(&prepared, rep, &keys, nullptr);
          EXPECT_EQ(keys, group);
        }
      }
    }
  }
}

}  // namespace
}  // namespace skewsearch
