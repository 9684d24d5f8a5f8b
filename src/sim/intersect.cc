#include "sim/intersect.h"

#include <algorithm>
#include <bit>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SKEWSEARCH_INTERSECT_X86 1
#include <immintrin.h>
#endif

namespace skewsearch {
namespace {

// The linear merge from (i, j) on, adding to count. It stops with a
// count below need once fewer than need - count items are left in one
// list (see IntersectSizeAtLeast); at need 0 the check folds away.
size_t MergeFrom(std::span<const ItemId> a, std::span<const ItemId> b,
                 size_t i, size_t j, size_t count, size_t need) {
  const size_t na = a.size(), nb = b.size();
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
    if (count + std::min(na - i, nb - j) < need) break;
  }
  return count;
}

size_t GallopingImpl(std::span<const ItemId> a, std::span<const ItemId> b,
                     size_t need) {
  if (a.size() > b.size()) std::swap(a, b);
  size_t count = 0;
  size_t lo = 0;
  for (size_t k = 0; k < a.size(); ++k) {
    const ItemId needle = a[k];
    // Exponential search for needle in b[lo..).
    size_t step = 1;
    size_t hi = lo;
    while (hi < b.size() && b[hi] < needle) {
      lo = hi + 1;
      hi = lo + step;
      step <<= 1;
    }
    hi = std::min(hi, b.size());
    const ItemId* pos = std::lower_bound(b.data() + lo, b.data() + hi, needle);
    lo = static_cast<size_t>(pos - b.data());
    if (lo < b.size() && b[lo] == needle) {
      ++count;
      ++lo;
    } else if (count + std::min(a.size() - k - 1, b.size() - lo) < need) {
      break;
    }
    if (lo >= b.size()) break;
  }
  return count;
}

#if SKEWSEARCH_INTERSECT_X86

// 4-wide block intersection (Schlegel/Lemire style): compare the a-block
// against every rotation of the b-block, popcount the match mask, then
// advance the block with the smaller maximum (both on a tie). Sorted
// duplicate-free inputs make each matching pair visible in exactly one
// block pairing, so the count is exact. Items behind the cursors are
// never compared again, so the matches left number at most
// min(na - i, nb - j), as in the merge.
size_t Sse2Impl(std::span<const ItemId> a, std::span<const ItemId> b,
                size_t need) {
  size_t count = 0;
  size_t i = 0, j = 0;
  const size_t na = a.size(), nb = b.size();
  while (i + 4 <= na && j + 4 <= nb) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a.data() + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b.data() + j));
    __m128i eq = _mm_cmpeq_epi32(va, vb);
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(0, 3, 2, 1))));
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(1, 0, 3, 2))));
    eq = _mm_or_si128(
        eq, _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, _MM_SHUFFLE(2, 1, 0, 3))));
    count += static_cast<size_t>(
        std::popcount(static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(eq)))));
    const ItemId amax = a[i + 3];
    const ItemId bmax = b[j + 3];
    if (amax <= bmax) i += 4;
    if (bmax <= amax) j += 4;
    if (count + std::min(na - i, nb - j) < need) return count;
  }
  return MergeFrom(a, b, i, j, count, need);
}

// 8-wide AVX2 variant: the b-block is compared under all 8 cross-lane
// rotations (permutevar8x32). Compiled with a per-function target so the
// translation unit itself stays baseline; only runs after detection.
__attribute__((target("avx2"))) size_t Avx2Impl(std::span<const ItemId> a,
                                                std::span<const ItemId> b,
                                                size_t need) {
  size_t count = 0;
  size_t i = 0, j = 0;
  const size_t na = a.size(), nb = b.size();
  while (i + 8 <= na && j + 8 <= nb) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.data() + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b.data() + j));
    __m256i eq = _mm256_cmpeq_epi32(va, vb);
    for (int r = 1; r < 8; ++r) {
      const __m256i idx = _mm256_setr_epi32(r, r + 1, r + 2, r + 3, r + 4,
                                            r + 5, r + 6, r + 7);
      // Indices wrap modulo 8 in permutevar8x32 (only the low 3 bits of
      // each index are used), giving the r-th rotation directly.
      eq = _mm256_or_si256(eq,
                           _mm256_cmpeq_epi32(va, _mm256_permutevar8x32_epi32(vb, idx)));
    }
    count += static_cast<size_t>(std::popcount(
        static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)))));
    const ItemId amax = a[i + 7];
    const ItemId bmax = b[j + 7];
    if (amax <= bmax) i += 8;
    if (bmax <= amax) j += 8;
    if (count + std::min(na - i, nb - j) < need) return count;
  }
  return MergeFrom(a, b, i, j, count, need);
}

#endif  // SKEWSEARCH_INTERSECT_X86

IntersectKernel& ActiveKernelRef() {
  static IntersectKernel kernel = DetectIntersectKernel();
  return kernel;
}

}  // namespace

const char* IntersectKernelName(IntersectKernel kernel) {
  switch (kernel) {
    case IntersectKernel::kScalar:
      return "scalar";
    case IntersectKernel::kSse2:
      return "sse2";
    case IntersectKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

IntersectKernel DetectIntersectKernel() {
#if SKEWSEARCH_INTERSECT_X86
  if (__builtin_cpu_supports("avx2")) return IntersectKernel::kAvx2;
  return IntersectKernel::kSse2;  // baseline on every x86-64 CPU
#else
  return IntersectKernel::kScalar;
#endif
}

IntersectKernel ActiveIntersectKernel() { return ActiveKernelRef(); }

IntersectKernel SetIntersectKernel(IntersectKernel kernel) {
  const IntersectKernel best = DetectIntersectKernel();
  // Kernels are ordered weakest-first; never install one the CPU lacks.
  if (static_cast<int>(kernel) > static_cast<int>(best)) kernel = best;
  ActiveKernelRef() = kernel;
  return kernel;
}

size_t IntersectSizeMerge(std::span<const ItemId> a,
                          std::span<const ItemId> b) {
  return MergeFrom(a, b, 0, 0, 0, 0);
}

size_t IntersectSizeGalloping(std::span<const ItemId> a,
                              std::span<const ItemId> b) {
  return GallopingImpl(a, b, 0);
}

size_t IntersectSizeScalar(std::span<const ItemId> a,
                           std::span<const ItemId> b) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  if (small * 16 < large) return IntersectSizeGalloping(a, b);
  return IntersectSizeMerge(a, b);
}

size_t IntersectSizeSse2(std::span<const ItemId> a,
                         std::span<const ItemId> b) {
#if SKEWSEARCH_INTERSECT_X86
  return Sse2Impl(a, b, 0);
#else
  return IntersectSizeScalar(a, b);
#endif
}

size_t IntersectSizeAvx2(std::span<const ItemId> a,
                         std::span<const ItemId> b) {
#if SKEWSEARCH_INTERSECT_X86
  if (__builtin_cpu_supports("avx2")) return Avx2Impl(a, b, 0);
  return Sse2Impl(a, b, 0);
#else
  return IntersectSizeScalar(a, b);
#endif
}

size_t IntersectSizeAtLeast(std::span<const ItemId> a,
                            std::span<const ItemId> b, size_t need) {
  const size_t small = std::min(a.size(), b.size());
  const size_t large = std::max(a.size(), b.size());
  // Heavily asymmetric pairs stay on galloping: O(small log large) beats
  // any linear block scan once the lists differ by an order of magnitude.
  if (small * 16 < large) return GallopingImpl(a, b, need);
#if SKEWSEARCH_INTERSECT_X86
  // SetIntersectKernel never installs a kernel the CPU lacks.
  switch (ActiveKernelRef()) {
    case IntersectKernel::kScalar:
      break;
    case IntersectKernel::kSse2:
      return Sse2Impl(a, b, need);
    case IntersectKernel::kAvx2:
      return Avx2Impl(a, b, need);
  }
#endif
  return MergeFrom(a, b, 0, 0, 0, need);
}

size_t IntersectSize(std::span<const ItemId> a, std::span<const ItemId> b) {
  return IntersectSizeAtLeast(a, b, 0);
}

}  // namespace skewsearch
