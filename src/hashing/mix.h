// Copyright 2026 The skewsearch Authors.
// 64-bit mixing / finalization primitives, defined inline.
//
// These are the raw building blocks for the path hashes of Section 3 of the
// paper: fast avalanche mixers used to (a) derive path keys incrementally
// and (b) produce per-(path, item) uniform values in [0,1). The filter
// kernel (core/path_engine.cc) runs them tens of millions of times per
// build, so they live in the header where every call inlines; MixPair is
// also split into its two halves (MixPairRight, MixPairPrepared) so a
// caller can compute the half that depends on one argument once and reuse
// it. A genuinely pairwise-independent alternative lives in
// hashing/pairwise.h.

#ifndef SKEWSEARCH_HASHING_MIX_H_
#define SKEWSEARCH_HASHING_MIX_H_

#include <cstdint>

namespace skewsearch {

/// The multipliers of Mix64 and Avalanche64. The filter kernel's SIMD
/// copies of the level draw (core/path_engine.cc) read them from here.
inline constexpr uint64_t kMix64Mul1 = 0xff51afd7ed558ccdULL;
inline constexpr uint64_t kMix64Mul2 = 0xc4ceb9fe1a85ec53ULL;
inline constexpr uint64_t kAvalancheMul = 0x165667919e3779f9ULL;

/// MurmurHash3 fmix64 finalizer: bijective avalanche mix of 64 bits.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= kMix64Mul1;
  x ^= x >> 33;
  x *= kMix64Mul2;
  x ^= x >> 33;
  return x;
}

/// xxHash3-style avalanche (distinct constants from Mix64).
inline uint64_t Avalanche64(uint64_t x) {
  x ^= x >> 37;
  x *= kAvalancheMul;
  x ^= x >> 32;
  return x;
}

/// The offset MixPair adds to its left argument.
inline constexpr uint64_t kMixPairOffset = 0x9e3779b97f4a7c15ULL;

/// The right argument of MixPair, with its rotation precomputed.
struct MixPairRight {
  uint64_t word;     ///< b
  uint64_t rotated;  ///< b rotated left by 23
};

/// Prepares \p b as MixPair's right argument.
inline MixPairRight PrepareMixPairRight(uint64_t b) {
  return {b, (b << 23) | (b >> 41)};
}

/// MixPair(a, b) from its prepared halves: \p a_offset is a + kMixPairOffset
/// and \p b is PrepareMixPairRight(b).
inline uint64_t MixPairPrepared(uint64_t a_offset, const MixPairRight& b) {
  return Avalanche64(Mix64(a_offset ^ b.rotated) + b.word);
}

/// Combines two words into one well-mixed word (non-commutative, so order
/// matters — required for hashing *ordered* paths).
inline uint64_t MixPair(uint64_t a, uint64_t b) {
  // Asymmetric combination: rotating one side breaks commutativity so that
  // MixPair(a, b) != MixPair(b, a) in general.
  return MixPairPrepared(a + kMixPairOffset, PrepareMixPairRight(b));
}

/// Maps 64 random bits to a double uniform in [0, 1) (53-bit mantissa).
inline double ToUnitInterval(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace skewsearch

#endif  // SKEWSEARCH_HASHING_MIX_H_
