// Copyright 2026 The skewsearch Authors.
// PostingArena: arena-allocated staging for (filter key, vector id)
// posting pairs, the build-side half of the flat posting-table seam; and
// the radix key directory, its lookup half.
//
// The old FilterTable staged into one std::vector<Pair> and paid a global
// O(P log P) sort at Freeze(). The arena instead groups pairs by key as
// they arrive — a PostingMap probe to find the key's chain head plus one
// append into a contiguous node pool — so Freeze() only sorts the K
// distinct keys and each (typically short) per-key id list:
// O(K log K + sum |list| log |list|) instead of O(P log P), with no
// per-pair allocation anywhere. The frozen CSR output (sorted distinct
// keys, offsets, per-key ascending ids with duplicate pairs preserved) is
// byte-identical to the old sort-based Freeze, which tests assert.
//
// Filter keys are uniform 64-bit hashes, so a frozen table's sorted keys
// are spread evenly over the key space and their top bits say where each
// one sits. The key directory over those top bits turns a lookup into one
// bucket read plus a scan of the (on average one or two) keys in it. It
// is a flat array of 32-bit positions, so a mapped file stores it as is.

#ifndef SKEWSEARCH_CORE_POSTING_TABLE_H_
#define SKEWSEARCH_CORE_POSTING_TABLE_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "data/dataset.h"
#include "util/containers.h"

namespace skewsearch {

/// \brief Append-only arena of (key, id) posting pairs grouped by key.
///
/// Holds at most 2^32 - 1 pairs (node links and the frozen offsets are
/// 32-bit — the same bound the on-disk FilterTable format already has).
class PostingArena {
 public:
  /// Pre-allocates the node pool for \p expected_pairs pairs.
  void Reserve(size_t expected_pairs);

  /// Appends one (key, id) pair to the key's chain. Amortized O(1).
  void Add(uint64_t key, VectorId id);

  /// Number of staged pairs.
  size_t num_pairs() const { return nodes_.size(); }

  /// Number of distinct keys staged so far.
  size_t num_keys() const { return slots_.size(); }

  /// Approximate heap usage in bytes.
  size_t MemoryBytes() const;

  /// Drains the arena into frozen CSR form: \p keys gets the sorted
  /// distinct keys, \p offsets the keys->size()+1 offsets into \p ids,
  /// and \p ids each key's ids in ascending order (duplicate pairs
  /// preserved). The arena is left empty with its allocations released.
  void Freeze(std::vector<uint64_t>* keys, std::vector<uint32_t>* offsets,
              std::vector<VectorId>* ids);

  /// Drops all staged pairs and releases the allocations.
  void Clear();

 private:
  static constexpr uint32_t kNil = 0xffffffffu;

  struct Node {
    VectorId id;
    uint32_t next;  // previous node of the same key's chain, or kNil
  };
  struct KeySlot {
    uint64_t key;
    uint32_t head;  // most recent node of this key's chain
  };

  PostingMap<uint64_t, uint32_t> index_;  // key -> position in slots_
  std::vector<KeySlot> slots_;
  std::vector<Node> nodes_;
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
