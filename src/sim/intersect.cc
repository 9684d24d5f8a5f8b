#include "sim/intersect.h"

#include <algorithm>

#include "core/intersect.h"

namespace skewsearch {

size_t IntersectSizeMerge(std::span<const ItemId> a,
                          std::span<const ItemId> b) {
  size_t count = 0;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++count;
      ++i;
      ++j;
    }
  }
  return count;
}

size_t IntersectSizeGalloping(std::span<const ItemId> a,
                              std::span<const ItemId> b) {
  if (a.size() > b.size()) std::swap(a, b);
  size_t count = 0;
  size_t lo = 0;
  for (ItemId needle : a) {
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
    }
    if (lo >= b.size()) break;
  }
  return count;
}

size_t IntersectSize(std::span<const ItemId> a, std::span<const ItemId> b) {
  // Routed through the runtime-selected kernel (core/intersect.h); every
  // kernel is byte-identical to the merge/galloping reference above, so
  // all call sites keep their exact counts while inheriting the speedup.
  return IntersectSizeKernel(a, b);
}

}  // namespace skewsearch
