// Copyright 2026 The skewsearch Authors.
// Posting: one (filter key, vector id) pair, what every posting-table
// build stages; and the radix key directory, the table's lookup half.
//
// Filter keys are uniform 64-bit hashes, so their top bits already
// split them evenly. FilterTable::Build (core/inverted_index.h) counts
// the staged pairs per top-b bucket, scatters them into their buckets
// and sorts each (on average one or two pairs) bucket by (key, id): a
// linear pass plus many tiny sorts, with no per-key hashing or
// allocation. The output (sorted distinct keys, offsets, per-key
// ascending ids with duplicate pairs kept) is fixed by the pairs alone,
// so it cannot depend on the order they were staged in.
//
// The key directory over the same top bits of a table's sorted keys
// turns a lookup into one bucket read plus a scan of the (on average one
// or two) keys in it. It is a flat array of 32-bit positions, so a
// mapped file stores it as is.

#ifndef SKEWSEARCH_CORE_POSTING_TABLE_H_
#define SKEWSEARCH_CORE_POSTING_TABLE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"

namespace skewsearch {

/// \brief One (filter key, vector id) pair of a posting table.
struct Posting {
  uint64_t key;
  VectorId id;
};

/// Bits b of the key directory over \p num_keys sorted keys:
/// floor(log2(num_keys)), and 0 when num_keys <= 1.
inline int KeyDirectoryBits(size_t num_keys) {
  return num_keys <= 1 ? 0 : static_cast<int>(std::bit_width(num_keys)) - 1;
}

/// Entries of the key directory over \p num_keys keys: 2^b + 1.
inline size_t KeyDirectorySize(size_t num_keys) {
  return (size_t{1} << KeyDirectoryBits(num_keys)) + 1;
}

/// Directory bucket of \p key: its top \p bits bits. Shifting twice keeps
/// bits == 0 (every key in bucket 0) clear of an undefined 64-bit shift.
inline size_t KeyBucket(uint64_t key, int bits) {
  return static_cast<size_t>((key >> 1) >> (63 - bits));
}

/// Builds the key directory over the sorted distinct \p keys: for
/// b = KeyDirectoryBits(keys.size()), entry i of its 2^b + 1 entries is
/// the position of the first key whose bucket is >= i, so bucket i's keys
/// are [dir[i], dir[i + 1]), dir[0] == 0 and dir[2^b] == keys.size().
std::vector<uint32_t> BuildKeyDirectory(std::span<const uint64_t> keys);

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_POSTING_TABLE_H_
