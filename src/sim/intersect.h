// Copyright 2026 The skewsearch Authors.
// Intersection kernels for sorted id lists — the inner loop of candidate
// verification. |x n q| drives every similarity measure in sim/measures.h.

#ifndef SKEWSEARCH_SIM_INTERSECT_H_
#define SKEWSEARCH_SIM_INTERSECT_H_

#include <cstddef>
#include <span>

#include "data/sparse_vector.h"

namespace skewsearch {

/// Linear merge intersection count; O(|a| + |b|). Best when sizes are
/// comparable.
size_t IntersectSizeMerge(std::span<const ItemId> a,
                          std::span<const ItemId> b);

/// Galloping (exponential search) intersection count; O(|a| log(|b|/|a|))
/// with |a| <= |b|. Best when one list is much shorter.
size_t IntersectSizeGalloping(std::span<const ItemId> a,
                              std::span<const ItemId> b);

/// Dispatches based on the size ratio: galloping for heavily asymmetric
/// pairs, otherwise the runtime-selected SIMD kernel (core/intersect.h).
/// Byte-identical to IntersectSizeMerge for every input.
size_t IntersectSize(std::span<const ItemId> a, std::span<const ItemId> b);

}  // namespace skewsearch

#endif  // SKEWSEARCH_SIM_INTERSECT_H_
