// Copyright 2026 The skewsearch Authors.
// Set intersection over sorted, duplicate-free id lists: the inner loop
// of every query and join (sim/measures.h reduces each similarity
// measure to |x n q|).
//
// One module holds the scalar merge and galloping references, the
// branch-lean SIMD block kernels — SSE2 (baseline on x86-64) and AVX2
// (runtime-detected) — and IntersectSize, the dispatch every caller
// uses. Every kernel returns the merge's count on every input, and the
// threshold-aware IntersectSizeAtLeast runs the same kernels; the tests
// assert both over randomized size, overlap and alignment regimes.

#ifndef SKEWSEARCH_SIM_INTERSECT_H_
#define SKEWSEARCH_SIM_INTERSECT_H_

#include <cstddef>
#include <span>

#include "data/sparse_vector.h"

namespace skewsearch {

/// The intersection kernel implementations available at runtime.
enum class IntersectKernel {
  kScalar,  ///< merge / galloping reference
  kSse2,    ///< 4-wide block compares; baseline on every x86-64 CPU
  kAvx2,    ///< 8-wide block compares; requires AVX2 (runtime-detected)
};

/// Human-readable kernel name ("scalar", "sse2", "avx2").
const char* IntersectKernelName(IntersectKernel kernel);

/// The best kernel supported by the running CPU (what the dispatch uses
/// unless overridden).
IntersectKernel DetectIntersectKernel();

/// The kernel the dispatch currently routes to.
IntersectKernel ActiveIntersectKernel();

/// Overrides the dispatch (kernel comparisons in tests and benches).
/// Requesting an unsupported kernel clamps to the best supported one and
/// returns the kernel actually installed. Not thread-safe: call before
/// spawning query threads.
IntersectKernel SetIntersectKernel(IntersectKernel kernel);

/// Intersection count, the dispatch: galloping when one list is more
/// than 16 times the other, otherwise the active kernel. Inputs must be
/// sorted and duplicate-free (the SparseVector invariant). Equal to
/// IntersectSizeMerge for every input; IntersectSizeAtLeast at need 0.
size_t IntersectSize(std::span<const ItemId> a, std::span<const ItemId> b);

/// The intersection count when it is at least \p need, and some count
/// below \p need otherwise: IntersectSize's dispatch and kernels, each
/// of which stops as soon as its count so far plus min(|a| - i,
/// |b| - j) is below \p need, where i and j are the items of a and b
/// it has passed. The result is exact whenever it reaches \p need: an
/// item is never compared again once passed, and each item left can
/// match at most once, so that sum is an upper bound on the final
/// count, and a kernel that stops could never have reached \p need.
/// With need = MinOverlap(...) (sim/measures.h), a verifier rejects a
/// pair that cannot reach its threshold without counting it whole.
size_t IntersectSizeAtLeast(std::span<const ItemId> a,
                            std::span<const ItemId> b, size_t need);

/// Linear merge intersection count; O(|a| + |b|). Best when sizes are
/// comparable.
size_t IntersectSizeMerge(std::span<const ItemId> a,
                          std::span<const ItemId> b);

/// Galloping (exponential search) intersection count; O(|a| log(|b|/|a|))
/// with |a| <= |b|. Best when one list is much shorter.
size_t IntersectSizeGalloping(std::span<const ItemId> a,
                              std::span<const ItemId> b);

/// \name Forced-kernel entry points (differential tests / benches).
/// Scalar picks galloping or the merge by the dispatch's size rule.
/// Sse2/Avx2 fall back to the scalar path on hardware without the
/// instruction set — guard with DetectIntersectKernel() when measuring.
/// @{
size_t IntersectSizeScalar(std::span<const ItemId> a,
                           std::span<const ItemId> b);
size_t IntersectSizeSse2(std::span<const ItemId> a, std::span<const ItemId> b);
size_t IntersectSizeAvx2(std::span<const ItemId> a, std::span<const ItemId> b);
/// @}

}  // namespace skewsearch

#endif  // SKEWSEARCH_SIM_INTERSECT_H_
