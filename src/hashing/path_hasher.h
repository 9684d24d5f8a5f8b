// Copyright 2026 The skewsearch Authors.
// PathHasher: the randomness source of the chosen-path recursion.
//
// The paper (Section 3) fixes k hash functions h_j : [d]^j -> [0,1], one
// per path length, drawn from a pairwise-independent family. A path
// v = (i_1, ..., i_j) is extended by item i iff h_{j+1}(v o i) < s(x, j, i).
//
// We represent a path by a 64-bit *key* built incrementally:
//
//   key(empty, rep)   = Mix(seed, rep)            -- one root per repetition
//   key(v o i)        = MixPair(key(v), Mix(i))
//
// Distinct paths map to distinct keys up to 64-bit collisions (birthday
// bound; ~2^24 live paths => collision probability < 2^-16 per build, and a
// key collision can only *add* candidate checks, never lose the planted
// match, so correctness is unaffected).
//
// The level draw h_{j+1}(v o i) is a function of (level, key(v), i) only —
// crucially NOT of x — so data vectors and queries make identical decisions
// on identical path prefixes, which is what makes F(x) and F(q) intersect.
//
// A draw splits into three halves: one that depends only on the level (its
// salt), one only on the item (its mixed word), and one on the path key
// and level. LevelDraw and ExtendKey are written in terms of them, and the
// filter kernel (core/path_engine.cc) computes each half once — per level,
// per prepared vector and per node — instead of once per draw.

#ifndef SKEWSEARCH_HASHING_PATH_HASHER_H_
#define SKEWSEARCH_HASHING_PATH_HASHER_H_

#include <cmath>
#include <cstdint>
#include <vector>

#include "hashing/mix.h"
#include "hashing/pairwise.h"

namespace skewsearch {

/// Selects the hash engine behind the level draws.
enum class HashEngine {
  /// Seeded xxhash/murmur-style mixer. Fastest; passes our statistical
  /// independence tests; the default.
  kMixer,
  /// Degree-one polynomial over 2^61-1 applied to the mixed key: genuinely
  /// pairwise independent, matching the paper's assumption exactly.
  kPairwise,
};

/// \brief Deterministic randomness for path growth and path identity.
///
/// Thread-safe for concurrent reads after construction.
class PathHasher {
 public:
  /// The level-only half of a draw.
  struct Level {
    uint64_t salt;                 ///< h_level's salt
    const PairwiseHash* pairwise;  ///< h_level for kPairwise; null for kMixer
  };

  /// \param seed   master seed; everything is a deterministic function of it.
  /// \param max_level  largest path length that will be queried.
  /// \param engine     hash engine for the level draws.
  PathHasher(uint64_t seed, int max_level,
             HashEngine engine = HashEngine::kMixer);

  /// Root key for repetition \p rep (the empty path of that repetition).
  uint64_t RootKey(uint32_t rep) const;

  /// Key of the path v o i given the key of v.
  uint64_t ExtendKey(uint64_t path_key, uint32_t item) const {
    return ExtendKeyFromHalves(path_key, KeyItemHalf(item));
  }

  /// The level draw h_{level}(v o i) in [0, 1): the uniform variate compared
  /// against the sampling threshold s(x, j, i). \p level is the length of
  /// the path being created (j + 1), 1-based.
  double LevelDraw(int level, uint64_t path_key, uint32_t item) const {
    const Level half = LevelHalf(level);
    const uint64_t path = DrawPathHalf(path_key, half);
    const MixPairRight item_half = DrawItemHalf(item);
    return half.pairwise != nullptr
               ? PairwiseDraw(half, path, item_half)
               : ToUnitInterval(MixerDrawBits(path, item_half));
  }

  /// The level-only half of h_{level} (1-based, as in LevelDraw).
  Level LevelHalf(int level) const {
    const size_t idx = static_cast<size_t>(level - 1) % level_salts_.size();
    const PairwiseHash* pairwise =
        engine_ == HashEngine::kPairwise ? &level_hashes_[idx] : nullptr;
    return {level_salts_[idx], pairwise};
  }

  /// The item-only half of a level draw: the same at every level and path.
  static MixPairRight DrawItemHalf(uint32_t item) {
    return PrepareMixPairRight(Mix64(0x9e3779b97f4a7c15ULL ^ item));
  }

  /// The item-only half of ExtendKey.
  static MixPairRight KeyItemHalf(uint32_t item) {
    return PrepareMixPairRight(Mix64(0x1234567890abcdefULL ^ item));
  }

  /// The half of a draw that depends on the path key and the level.
  static uint64_t DrawPathHalf(uint64_t path_key, const Level& level) {
    // The draw must identify the *child* path (v o i); combining the
    // parent key with the item gives exactly that identity.
    return (path_key ^ level.salt) + kMixPairOffset;
  }

  /// kMixer: the draw's raw 64 bits. LevelDraw is ToUnitInterval of them.
  static uint64_t MixerDrawBits(uint64_t path_half,
                                const MixPairRight& item_half) {
    return Avalanche64(MixPairPrepared(path_half, item_half));
  }

  /// kPairwise: the draw in [0, 1).
  static double PairwiseDraw(const Level& level, uint64_t path_half,
                             const MixPairRight& item_half) {
    return level.pairwise->HashUnit(MixPairPrepared(path_half, item_half));
  }

  /// ExtendKey from the path key and the item's KeyItemHalf.
  static uint64_t ExtendKeyFromHalves(uint64_t path_key,
                                      const MixPairRight& item_half) {
    return MixPairPrepared(path_key + kMixPairOffset, item_half);
  }

  /// Number of per-level hash functions owned (== max_level).
  int max_level() const { return max_level_; }

  HashEngine engine() const { return engine_; }

 private:
  uint64_t seed_;
  int max_level_;
  HashEngine engine_;
  std::vector<uint64_t> level_salts_;       // one per level, for kMixer
  std::vector<PairwiseHash> level_hashes_;  // one per level, for kPairwise
};

/// The kMixer acceptance test in integer form: a draw with raw bits \p h
/// accepts against threshold \p s iff
/// MixerAccepts(h, MixerAcceptBound(s)), so the bound is computed once per
/// threshold and each draw costs one shift and one compare.
///
/// That is the same decision as "s >= 1, or s is NaN, or
/// ToUnitInterval(h) < s": (h >> 11) * 2^-53 and s * 2^53 are both exact,
/// and for an integer m, m < y iff m < ceil(y). A threshold <= 0 (-0.0
/// included) accepts nothing.
inline uint64_t MixerAcceptBound(double s) {
  if (!(s < 1.0)) return uint64_t{1} << 53;
  if (!(s > 0.0)) return 0;
  return static_cast<uint64_t>(std::ceil(s * 0x1.0p53));
}

/// Whether the draw with raw bits \p h accepts against \p bound, a
/// MixerAcceptBound.
inline bool MixerAccepts(uint64_t h, uint64_t bound) {
  return (h >> 11) < bound;
}

}  // namespace skewsearch

#endif  // SKEWSEARCH_HASHING_PATH_HASHER_H_
