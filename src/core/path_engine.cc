#include "core/path_engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <type_traits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SKEWSEARCH_PATH_X86 1
#include <immintrin.h>
#endif

namespace skewsearch {

namespace {

// The widest kernel's lane count: every column is padded to a multiple of
// it, so no kernel needs a masked load or a tail loop.
constexpr size_t kLanes = 8;

// A node of fewer in-universe items than this is grown in one pass, each
// item hashed and walked in turn: below it, a vector block's latency and
// the second pass cost more than they save. Measured on join-topics
// vectors cut to m items: up to 9 items one pass is as fast or faster,
// and from 16 two passes win, under AVX2 and AVX-512 alike.
constexpr size_t kTwoPassMinItems = 9;

size_t AcceptWords(size_t stride) { return (stride + 63) / 64; }

// One accept pass over a node's \p m items, kMixer. \p columns holds the
// draw's item halves, rotated then word, \p stride entries each. Sets
// bit k of \p accept (one word per 64 items) iff item k's draw accepts
// against bound[k]. A kernel hashes whole blocks of its lanes; the
// padding lanes it reads past m accept nothing.
using MixerAcceptFn = void (*)(const uint64_t* columns, size_t stride,
                               size_t m, const uint64_t* bound,
                               uint64_t path_half, uint64_t* accept);

#if SKEWSEARCH_PATH_X86

// The vector kernels replay MixerDrawBits step for step:
// Avalanche64(Avalanche64(Mix64(path_half ^ rotated) + word)).

// x * c mod 2^64 per 64-bit lane, from 32-bit halves: lo(x) lo(c) plus
// (hi(x) lo(c) + lo(x) hi(c)) << 32. \p c_lo and \p c_hi hold c and
// c >> 32 (vpmuludq reads the low half of each lane).
__attribute__((target("avx2"))) inline __m256i MulAvx2(__m256i x,
                                                       __m256i c_lo,
                                                       __m256i c_hi) {
  const __m256i low = _mm256_mul_epu32(x, c_lo);
  const __m256i cross =
      _mm256_add_epi64(_mm256_mul_epu32(_mm256_srli_epi64(x, 32), c_lo),
                       _mm256_mul_epu32(x, c_hi));
  return _mm256_add_epi64(low, _mm256_slli_epi64(cross, 32));
}

__attribute__((target("avx2"))) inline __m256i XorShiftAvx2(__m256i x,
                                                            int shift) {
  return _mm256_xor_si256(x, _mm256_srli_epi64(x, shift));
}

__attribute__((target("avx2"))) inline __m256i LoadAvx2(const uint64_t* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

__attribute__((target("avx2"))) inline __m256i Set1Avx2(uint64_t value) {
  return _mm256_set1_epi64x(static_cast<int64_t>(value));
}

// 4 items at a time. The bound compare is signed, which is exact here:
// h >> 11 < 2^53 and every bound is <= 2^53.
__attribute__((target("avx2"))) void Avx2MixerAccept(
    const uint64_t* columns, size_t stride, size_t m, const uint64_t* bound,
    uint64_t path_half, uint64_t* accept) {
  const __m256i half = Set1Avx2(path_half);
  const __m256i mul1 = Set1Avx2(kMix64Mul1);
  const __m256i mul1_hi = Set1Avx2(kMix64Mul1 >> 32);
  const __m256i mul2 = Set1Avx2(kMix64Mul2);
  const __m256i mul2_hi = Set1Avx2(kMix64Mul2 >> 32);
  const __m256i mul3 = Set1Avx2(kAvalancheMul);
  const __m256i mul3_hi = Set1Avx2(kAvalancheMul >> 32);
  const uint64_t* rotated = columns;
  const uint64_t* word = columns + stride;
  for (size_t base = 0; base < m; base += 64) {
    const size_t end = std::min(m, base + 64);
    uint64_t bits = 0;
    for (size_t k = base; k < end; k += 4) {
      __m256i x = _mm256_xor_si256(half, LoadAvx2(rotated + k));
      x = MulAvx2(XorShiftAvx2(x, 33), mul1, mul1_hi);
      x = MulAvx2(XorShiftAvx2(x, 33), mul2, mul2_hi);
      x = _mm256_add_epi64(XorShiftAvx2(x, 33), LoadAvx2(word + k));
      x = XorShiftAvx2(MulAvx2(XorShiftAvx2(x, 37), mul3, mul3_hi), 32);
      x = XorShiftAvx2(MulAvx2(XorShiftAvx2(x, 37), mul3, mul3_hi), 32);
      const __m256i accepts =
          _mm256_cmpgt_epi64(LoadAvx2(bound + k), _mm256_srli_epi64(x, 11));
      bits |= static_cast<uint64_t>(
                  _mm256_movemask_pd(_mm256_castsi256_pd(accepts)))
              << (k - base);
    }
    accept[base / 64] = bits;
  }
}

// The maskz form: GCC 12's plain _mm512_srli_epi64 passes an undefined
// vector through and trips -Wuninitialized.
__attribute__((target("avx512f"))) inline __m512i SrlAvx512(__m512i x,
                                                            unsigned shift) {
  return _mm512_maskz_srli_epi64(0xFF, x, shift);
}

__attribute__((target("avx512f"))) inline __m512i XorShiftAvx512(
    __m512i x, unsigned shift) {
  return _mm512_xor_si512(x, SrlAvx512(x, shift));
}

// 8 items at a time with vpmullq (AVX-512DQ).
__attribute__((target("avx512f,avx512dq"))) void Avx512MixerAccept(
    const uint64_t* columns, size_t stride, size_t m, const uint64_t* bound,
    uint64_t path_half, uint64_t* accept) {
  const __m512i half = _mm512_set1_epi64(static_cast<int64_t>(path_half));
  const __m512i mul1 = _mm512_set1_epi64(static_cast<int64_t>(kMix64Mul1));
  const __m512i mul2 = _mm512_set1_epi64(static_cast<int64_t>(kMix64Mul2));
  const __m512i mul3 = _mm512_set1_epi64(static_cast<int64_t>(kAvalancheMul));
  const uint64_t* rotated = columns;
  const uint64_t* word = columns + stride;
  for (size_t base = 0; base < m; base += 64) {
    const size_t end = std::min(m, base + 64);
    uint64_t bits = 0;
    for (size_t k = base; k < end; k += 8) {
      __m512i x = _mm512_xor_si512(half, _mm512_loadu_si512(rotated + k));
      x = _mm512_mullo_epi64(XorShiftAvx512(x, 33), mul1);
      x = _mm512_mullo_epi64(XorShiftAvx512(x, 33), mul2);
      x = _mm512_add_epi64(XorShiftAvx512(x, 33),
                           _mm512_loadu_si512(word + k));
      x = XorShiftAvx512(_mm512_mullo_epi64(XorShiftAvx512(x, 37), mul3), 32);
      x = XorShiftAvx512(_mm512_mullo_epi64(XorShiftAvx512(x, 37), mul3), 32);
      const __mmask8 accepts = _mm512_cmplt_epu64_mask(
          SrlAvx512(x, 11), _mm512_loadu_si512(bound + k));
      bits |= uint64_t{accepts} << (k - base);
    }
    accept[base / 64] = bits;
  }
}

#endif  // SKEWSEARCH_PATH_X86

PathKernel& ActiveKernelRef() {
  static PathKernel kernel = DetectPathKernel();
  return kernel;
}

// Null for kScalar, whose nodes are all grown in one pass.
MixerAcceptFn MixerAcceptFor(PathKernel kernel) {
  switch (kernel) {
#if SKEWSEARCH_PATH_X86
    case PathKernel::kAvx512:
      return Avx512MixerAccept;
    case PathKernel::kAvx2:
      return Avx2MixerAccept;
#endif
    default:
      return nullptr;
  }
}

}  // namespace

const char* PathKernelName(PathKernel kernel) {
  switch (kernel) {
    case PathKernel::kScalar:
      return "scalar";
    case PathKernel::kAvx2:
      return "avx2";
    case PathKernel::kAvx512:
      return "avx512";
  }
  return "unknown";
}

PathKernel DetectPathKernel() {
#if SKEWSEARCH_PATH_X86
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
    return PathKernel::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) return PathKernel::kAvx2;
#endif
  return PathKernel::kScalar;
}

PathKernel ActivePathKernel() { return ActiveKernelRef(); }

PathKernel SetPathKernel(PathKernel kernel) {
  const PathKernel best = DetectPathKernel();
  // Kernels are ordered weakest-first; never install one the CPU lacks.
  if (static_cast<int>(kernel) > static_cast<int>(best)) kernel = best;
  ActiveKernelRef() = kernel;
  return kernel;
}

PathEngine::PathEngine(const ProductDistribution* dist,
                       const ThresholdPolicy* policy, const PathHasher* hasher,
                       const PathEngineOptions& options)
    : dist_(dist), policy_(policy), hasher_(hasher), options_(options) {}

void PathEngine::Prepare(std::span<const ItemId> x,
                         PreparedVector* prepared) const {
  // An item outside the distribution's universe is left out: no indexed
  // vector holds it, so no filter through it can collide. The Bloom bit
  // comes from the item's hash, so repeats of an item in x share it.
  size_t m = 0;
  for (ItemId item : x) m += item < dist_->dimension();
  const size_t stride = (m + kLanes - 1) / kLanes * kLanes;
  prepared->engine_ = this;
  prepared->vec_size_ = x.size();
  prepared->stride_ = stride;
  prepared->columns_.assign(2 * stride, 0);
  std::vector<PreparedVector::WalkItem>& items = prepared->items_;
  items.clear();
  items.reserve(m);
  bool ascending = true;
  for (ItemId item : x) {
    if (item >= dist_->dimension()) continue;
    ascending = ascending && (items.empty() || items.back().id < item);
    const MixPairRight draw = PathHasher::DrawItemHalf(item);
    prepared->columns_[items.size()] = draw.rotated;
    prepared->columns_[stride + items.size()] = draw.word;
    items.push_back({PathHasher::KeyItemHalf(item), dist_->LogInvP(item),
                     uint64_t{1} << (draw.word >> 58), item, 1});
  }
  if (!ascending) {
    // Repeats: a path that holds an item skips every copy of it.
    std::vector<ItemId> sorted;
    sorted.reserve(m);
    for (const PreparedVector::WalkItem& item : items) {
      sorted.push_back(item.id);
    }
    std::sort(sorted.begin(), sorted.end());
    for (PreparedVector::WalkItem& item : items) {
      const auto [lo, hi] =
          std::equal_range(sorted.begin(), sorted.end(), item.id);
      item.copies = static_cast<uint32_t>(hi - lo);
    }
  }
  // Most trees stop within 8 levels and 64 nodes.
  prepared->mixer_bounds_.clear();
  prepared->pairwise_bounds_.clear();
  if (hasher_->engine() == HashEngine::kPairwise) {
    prepared->pairwise_bounds_.reserve(8 * stride);
  } else {
    prepared->mixer_bounds_.reserve(8 * stride);
  }
  prepared->levels_ready_ = 0;
  prepared->accept_.assign(AcceptWords(stride), 0);
  prepared->arena_.reserve(64);
}

template <bool kPairwise>
void PathEngine::GrowRange(PreparedVector* prepared, uint32_t first_rep,
                           uint32_t end_rep, std::vector<uint64_t>* out,
                           std::vector<size_t>* offsets, PathGenStats* stats,
                           size_t* capped_reps) const {
  using Node = PreparedVector::Node;
  using Bound = std::conditional_t<kPairwise, double, uint64_t>;
  const std::vector<PreparedVector::WalkItem>& items = prepared->items_;
  const size_t m = items.size();
  const size_t stride = prepared->stride_;
  const uint64_t* columns = prepared->columns_.data();
  const size_t words = AcceptWords(stride);
  uint64_t* accept = prepared->accept_.data();
  const MixerAcceptFn mixer_accept = MixerAcceptFor(ActiveKernelRef());

  // Once per level, on first use, then shared by every repetition grown
  // from this state: one acceptance value per item, then the padding.
  std::vector<Bound>& bounds = [&]() -> std::vector<Bound>& {
    if constexpr (kPairwise) {
      return prepared->pairwise_bounds_;
    } else {
      return prepared->mixer_bounds_;
    }
  }();
  auto level_bounds = [&](int depth) {
    for (; prepared->levels_ready_ <= depth; ++prepared->levels_ready_) {
      for (const PreparedVector::WalkItem& item : items) {
        const double s = policy_->Threshold(prepared->vec_size_,
                                            prepared->levels_ready_, item.id);
        if constexpr (kPairwise) {
          bounds.push_back(s);
        } else {
          bounds.push_back(MixerAcceptBound(s));
        }
      }
      bounds.resize(bounds.size() + (stride - m), Bound{0});
    }
    return bounds.data() + static_cast<size_t>(depth) * stride;
  };

  // Nodes are appended level by level, so the frontier of each level is
  // the arena range [level_begin, level_end).
  std::vector<Node>& arena = prepared->arena_;
  auto on_path = [&](const Node& node, int32_t node_idx,
                     const PreparedVector::WalkItem& item) {
    if (!options_.without_replacement || (node.mask & item.bit) == 0) {
      return false;
    }
    // The root (parent -1) carries no item; stop before inspecting it.
    for (int32_t n = node_idx; arena[static_cast<size_t>(n)].parent >= 0;) {
      const Node& ancestor = arena[static_cast<size_t>(n)];
      if (ancestor.item == item.id) return true;
      n = ancestor.parent;
    }
    return false;
  };

  PathGenStats local;
  size_t capped = 0;
  for (uint32_t rep = first_rep; rep < end_rep; ++rep) {
    const size_t begin = out->size();
    bool cap_hit = false;
    arena.clear();
    if (prepared->vec_size_ > 0) {
      arena.push_back(Node{hasher_->RootKey(rep), 0.0, 0, -1, 0, 0});
    }
    size_t level_begin = 0;
    for (int depth = 0; depth < options_.max_depth && !cap_hit; ++depth) {
      const size_t level_end = arena.size();
      if (level_begin == level_end) break;
      const Bound* bound = level_bounds(depth);
      const PathHasher::Level level = hasher_->LevelHalf(depth + 1);
      const bool fixed_filter = depth + 1 >= options_.fixed_depth;
      for (size_t n = level_begin; n < level_end && !cap_hit; ++n) {
        const int32_t node_idx = static_cast<int32_t>(n);
        // Copy the node: the arena may reallocate while children are added.
        const Node node = arena[n];
        local.nodes_expanded++;
        // A data vector and a query compare the *same* draw against their
        // own thresholds, which is what makes shared prefixes evolve
        // consistently.
        const uint64_t path_half = PathHasher::DrawPathHalf(node.key, level);
        // An item on the path makes no draw; every other item up to the
        // stop made one.
        size_t draws = m - node.on_path;
        // Item k's draw accepted: make the child through it, unless the
        // path holds the item, and stop the node at the cap.
        auto extend = [&](size_t k) {
          const PreparedVector::WalkItem& item = items[k];
          if (on_path(node, node_idx, item)) return;
          const Node child{
              PathHasher::ExtendKeyFromHalves(node.key, item.key),
              node.log_inv_prod + item.log_inv_p,
              node.mask | item.bit,
              node_idx,
              item.id,
              options_.without_replacement ? node.on_path + item.copies : 0};
          const bool is_filter =
              options_.stop_rule == StopRule::kProbability
                  ? child.log_inv_prod >= options_.log_n
                  : fixed_filter;
          if (is_filter) {
            out->push_back(child.key);
          } else {
            arena.push_back(child);
          }
          // The budget: this repetition's arena (root included) plus its
          // emitted keys. The node stops after item k.
          if (arena.size() + (out->size() - begin) >= options_.max_paths) {
            cap_hit = true;
            draws = k + 1;
            for (size_t j = 0; j < k; ++j) {
              draws -= on_path(node, node_idx, items[j]);
            }
          }
        };
        if (kPairwise || mixer_accept == nullptr || m < kTwoPassMinItems) {
          // One pass, each item hashed and walked in turn: kPairwise, whose
          // draw (a division) only scalar code makes, the scalar kernel,
          // or few items.
          for (size_t k = 0; k < m && !cap_hit; ++k) {
            const MixPairRight item_half{columns[stride + k], columns[k]};
            const bool accepts = [&] {
              if constexpr (kPairwise) {
                const double draw =
                    PathHasher::PairwiseDraw(level, path_half, item_half);
                return !(bound[k] < 1.0 && draw >= bound[k]);
              } else {
                return MixerAccepts(
                    PathHasher::MixerDrawBits(path_half, item_half),
                    bound[k]);
              }
            }();
            if (accepts) extend(k);
          }
        } else if constexpr (!kPairwise) {
          // Two passes: the accept pass, then the walk of the accepted
          // items in x's order.
          mixer_accept(columns, stride, m, bound, path_half, accept);
          for (size_t w = 0; w < words && !cap_hit; ++w) {
            for (uint64_t todo = accept[w]; todo != 0 && !cap_hit;
                 todo &= todo - 1) {
              extend(w * 64 + static_cast<size_t>(std::countr_zero(todo)));
            }
          }
        }
        local.draws += draws;
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

void PathEngine::Grow(PreparedVector* prepared, uint32_t first_rep,
                      uint32_t end_rep, std::vector<uint64_t>* out,
                      std::vector<size_t>* offsets, PathGenStats* stats,
                      size_t* capped_reps) const {
  assert(prepared->engine_ == this);
  if (hasher_->engine() == HashEngine::kPairwise) {
    GrowRange<true>(prepared, first_rep, end_rep, out, offsets, stats,
                    capped_reps);
  } else {
    GrowRange<false>(prepared, first_rep, end_rep, out, offsets, stats,
                     capped_reps);
  }
}

void PathEngine::ComputeFilters(PreparedVector* prepared, uint32_t rep,
                                std::vector<uint64_t>* out,
                                PathGenStats* stats) const {
  Grow(prepared, rep, rep + 1, out, nullptr, stats, nullptr);
}

void PathEngine::ComputeFiltersAllReps(std::span<const ItemId> x,
                                       uint32_t reps,
                                       std::vector<uint64_t>* keys,
                                       std::vector<size_t>* offsets,
                                       PathGenStats* stats,
                                       size_t* capped_reps) const {
  keys->clear();
  offsets->assign(1, 0);
  PreparedVector prepared;
  Prepare(x, &prepared);
  Grow(&prepared, 0, reps, keys, offsets, stats, capped_reps);
}

}  // namespace skewsearch
