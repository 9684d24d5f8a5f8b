#include "core/path_engine.h"

#include <type_traits>

namespace skewsearch {

namespace {

// What the recursion needs of one item of x, computed once per call.
struct ItemHalves {
  MixPairRight draw;  // the item half of every level draw
  uint64_t bit;       // the item's bit in a path's Bloom mask
  MixPairRight key;   // the item half of ExtendKey
  double log_inv_p;   // ln(1/p_i)
  ItemId id;
};

// One node of a repetition's recursion tree, stored in a flat arena.
// Parent links let the without-replacement check walk the (short) ancestor
// chain instead of storing an item set per node; the Bloom mask of the
// path's items lets it skip the walk for every item whose bit is clear.
struct Node {
  uint64_t key;
  double log_inv_prod;  // sum of ln(1/p_i) along the path
  uint64_t mask;        // OR of the bits of the items on the path
  int32_t parent;       // index into the arena, -1 for the root
  ItemId item;          // item appended to create this node (root: unused)
};

bool PathContains(const std::vector<Node>& arena, int32_t node, ItemId item) {
  // The root (parent -1) carries no item; stop before inspecting it.
  while (arena[static_cast<size_t>(node)].parent >= 0) {
    const Node& on_path = arena[static_cast<size_t>(node)];
    if (on_path.item == item) return true;
    node = on_path.parent;
  }
  return false;
}

// The kernel, specialised per hash engine so the draw loop carries no
// engine branch. kMixer accepts on the integer bound MixerAcceptBound(s);
// kPairwise compares its unit draw (a division) with s directly.
template <bool kPairwise>
void GrowRange(const ProductDistribution& dist, const ThresholdPolicy& policy,
               const PathHasher& hasher, const PathEngineOptions& options,
               std::span<const ItemId> x, uint32_t first_rep, uint32_t end_rep,
               std::vector<uint64_t>* out, std::vector<size_t>* offsets,
               PathGenStats* stats, size_t* capped_reps) {
  using Accept = std::conditional_t<kPairwise, double, uint64_t>;
  const size_t vec_size = x.size();

  // Once per call. An item outside the distribution's universe is left
  // out: no indexed vector holds it, so no filter through it can collide.
  // The Bloom bit comes from the item's hash, so repeats of an item in x
  // share it.
  std::vector<ItemHalves> items;
  items.reserve(vec_size);
  for (ItemId item : x) {
    if (item >= dist.dimension()) continue;
    const MixPairRight draw = PathHasher::DrawItemHalf(item);
    items.push_back({draw, uint64_t{1} << (draw.word >> 58),
                     PathHasher::KeyItemHalf(item), dist.LogInvP(item), item});
  }
  const size_t m = items.size();

  // Once per level, on first use, then shared by every repetition: one
  // acceptance value per item.
  std::vector<Accept> accept;  // level-major, m entries per level
  accept.reserve(8 * m);       // most trees stop within 8 levels
  int levels_ready = 0;
  auto level_bounds = [&](int depth) {
    for (; levels_ready <= depth; ++levels_ready) {
      for (const ItemHalves& item : items) {
        const double s = policy.Threshold(vec_size, levels_ready, item.id);
        if constexpr (kPairwise) {
          accept.push_back(s);
        } else {
          accept.push_back(MixerAcceptBound(s));
        }
      }
    }
    return accept.data() + static_cast<size_t>(depth) * m;
  };

  PathGenStats local;
  size_t capped = 0;
  // Nodes are appended level by level, so the frontier of each level is
  // the arena range [level_begin, level_end).
  std::vector<Node> arena;
  arena.reserve(64);
  for (uint32_t rep = first_rep; rep < end_rep; ++rep) {
    const size_t begin = out->size();
    bool cap_hit = false;
    arena.clear();
    if (!x.empty()) arena.push_back(Node{hasher.RootKey(rep), 0.0, 0, -1, 0});
    size_t level_begin = 0;
    for (int depth = 0; depth < options.max_depth && !cap_hit; ++depth) {
      const size_t level_end = arena.size();
      if (level_begin == level_end) break;
      const Accept* bound = level_bounds(depth);
      const PathHasher::Level level = hasher.LevelHalf(depth + 1);
      const bool fixed_filter = depth + 1 >= options.fixed_depth;
      for (size_t n = level_begin; n < level_end && !cap_hit; ++n) {
        const int32_t node_idx = static_cast<int32_t>(n);
        // Copy the node: the arena may reallocate while children are added.
        const Node node = arena[n];
        local.nodes_expanded++;
        const uint64_t path_half = PathHasher::DrawPathHalf(node.key, level);
        for (size_t k = 0; k < m; ++k) {
          const ItemHalves& item = items[k];
          if (options.without_replacement && (node.mask & item.bit) != 0 &&
              PathContains(arena, node_idx, item.id)) {
            continue;
          }
          local.draws++;
          // A data vector and a query compare the *same* draw against
          // their own thresholds, which is what makes shared prefixes
          // evolve consistently.
          if constexpr (kPairwise) {
            const double draw =
                PathHasher::PairwiseDraw(level, path_half, item.draw);
            if (bound[k] < 1.0 && draw >= bound[k]) continue;
          } else {
            const uint64_t bits =
                PathHasher::MixerDrawBits(path_half, item.draw);
            if (!MixerAccepts(bits, bound[k])) continue;
          }
          const Node child{PathHasher::ExtendKeyFromHalves(node.key, item.key),
                           node.log_inv_prod + item.log_inv_p,
                           node.mask | item.bit, node_idx, item.id};
          const bool is_filter =
              options.stop_rule == StopRule::kProbability
                  ? child.log_inv_prod >= options.log_n
                  : fixed_filter;
          if (is_filter) {
            out->push_back(child.key);
          } else {
            arena.push_back(child);
          }
          // The budget: this repetition's arena (root included) plus its
          // emitted keys.
          if (arena.size() + (out->size() - begin) >= options.max_paths) {
            cap_hit = true;
            break;
          }
        }
      }
      level_begin = level_end;
    }
    local.filters_emitted += out->size() - begin;
    if (cap_hit) {
      local.cap_hit = true;
      capped++;
    }
    if (offsets != nullptr) offsets->push_back(out->size());
  }
  if (stats != nullptr) *stats = local;
  if (capped_reps != nullptr) *capped_reps = capped;
}

}  // namespace

PathEngine::PathEngine(const ProductDistribution* dist,
                       const ThresholdPolicy* policy, const PathHasher* hasher,
                       const PathEngineOptions& options)
    : dist_(dist), policy_(policy), hasher_(hasher), options_(options) {}

void PathEngine::Grow(std::span<const ItemId> x, uint32_t first_rep,
                      uint32_t end_rep, std::vector<uint64_t>* out,
                      std::vector<size_t>* offsets, PathGenStats* stats,
                      size_t* capped_reps) const {
  if (hasher_->engine() == HashEngine::kPairwise) {
    GrowRange<true>(*dist_, *policy_, *hasher_, options_, x, first_rep, end_rep,
                    out, offsets, stats, capped_reps);
  } else {
    GrowRange<false>(*dist_, *policy_, *hasher_, options_, x, first_rep,
                     end_rep, out, offsets, stats, capped_reps);
  }
}

void PathEngine::ComputeFilters(std::span<const ItemId> x, uint32_t rep,
                                std::vector<uint64_t>* out,
                                PathGenStats* stats) const {
  Grow(x, rep, rep + 1, out, nullptr, stats, nullptr);
}

void PathEngine::ComputeFiltersAllReps(std::span<const ItemId> x,
                                       uint32_t reps,
                                       std::vector<uint64_t>* keys,
                                       std::vector<size_t>* offsets,
                                       PathGenStats* stats,
                                       size_t* capped_reps) const {
  keys->clear();
  offsets->assign(1, 0);
  Grow(x, 0, reps, keys, offsets, stats, capped_reps);
}

}  // namespace skewsearch
