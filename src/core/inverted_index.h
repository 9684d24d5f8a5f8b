// Copyright 2026 The skewsearch Authors.
// FilterTable: the inverted index from filter keys to posting lists of
// vector ids ("for each filter f we can look up {x in S : f in F(x)}",
// Section 3). Shared by the paper's index and the Chosen Path baseline.
//
// Built in one step: FilterTable::Build takes the flat (key, id) pairs
// and sorts them by the key directory's top bits (core/posting_table.h)
// into unique keys + offsets + ids. Compared to a per-key hash map of
// vectors this halves memory and is cache-friendly to build.
//
// A built table is one layout however it came to exist: sorted keys,
// offsets, ids and the radix key directory over the keys' top bits,
// held as spans over a shared immutable backing. The backing is the
// heap arrays of Build()/ReadFrom() or an mmap'd frozen-shard file
// (core/frozen_shard.h, AdoptFrozenView), which stores the directory,
// so mapping stays O(1) in the index size. Lookup reads the key's
// bucket from the directory and scans it. Copies share the backing;
// that is safe because a built table never changes.

#ifndef SKEWSEARCH_CORE_INVERTED_INDEX_H_
#define SKEWSEARCH_CORE_INVERTED_INDEX_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "core/posting_table.h"
#include "data/dataset.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Frozen multimap from 64-bit filter keys to vector ids.
class FilterTable {
 public:
  /// The table over \p postings: sorted distinct keys, and each key's ids
  /// in ascending order with duplicate pairs kept. Counts the pairs per
  /// top-b bucket (b = KeyDirectoryBits(postings.size())), scatters them
  /// into their buckets, sorts each bucket by (key, id) and adopts
  /// exactly sized arrays, so MemoryBytes() equals a ReadFrom() copy's.
  /// Holds at most 2^32 - 1 pairs (offsets are 32-bit).
  static FilterTable Build(std::vector<Posting> postings);

  /// Replaces this table with frozen arrays it takes over and builds
  /// their key directory: what Build() and ReadFrom() end in, and how
  /// a join cuts its per-worker slices. Checks the bracketing
  /// invariants AdoptFrozenView checks; key order is the caller's
  /// contract (Validate() checks it).
  Status AdoptArrays(std::vector<uint64_t> keys, std::vector<uint32_t> offsets,
                     std::vector<VectorId> ids);

  /// Replaces this table with a zero-copy view over frozen arrays that
  /// \p backing keeps alive (for the frozen-shard mapper, the mapped
  /// file). Validates only the O(1) bracketing invariants:
  /// offsets.size() == keys.size() + 1, offsets[0] == 0, offsets.back() ==
  /// ids.size(), \p directory has KeyDirectorySize(keys.size()) entries,
  /// directory[0] == 0 and directory.back() == keys.size(). Key
  /// sortedness, the directory's interior and id ranges are the caller's
  /// contract (the frozen-shard mapper checks them via its checksums and,
  /// on request, a full payload verification).
  Status AdoptFrozenView(std::shared_ptr<const void> backing,
                         std::span<const uint64_t> keys,
                         std::span<const uint32_t> offsets,
                         std::span<const VectorId> ids,
                         std::span<const uint32_t> directory);

  /// Posting list for \p key (empty when absent).
  std::span<const VectorId> Lookup(uint64_t key) const;

  /// \name Positional access (iteration order is by ascending key). Used
  /// by compaction, serialization and validation; \p idx must be
  /// < num_keys().
  /// @{
  uint64_t key_at(size_t idx) const { return keys_[idx]; }
  std::span<const VectorId> postings_at(size_t idx) const {
    return ids_.subspan(offsets_[idx], offsets_[idx + 1] - offsets_[idx]);
  }
  /// @}

  /// Number of stored (key, id) pairs.
  size_t num_pairs() const { return ids_.size(); }

  /// Number of distinct keys.
  size_t num_keys() const { return keys_.size(); }

  /// True once Build(), ReadFrom() or AdoptFrozenView() has produced
  /// posting lists (a default-constructed table is empty and is not).
  bool frozen() const { return backing_ != nullptr; }

  /// \name Raw frozen arrays (serialization / the frozen-shard writer).
  /// @{
  std::span<const uint64_t> keys_span() const { return keys_; }
  std::span<const uint32_t> offsets_span() const { return offsets_; }
  std::span<const VectorId> ids_span() const { return ids_; }
  std::span<const uint32_t> directory_span() const { return directory_; }
  /// @}

  /// Approximate heap usage in bytes: the arrays a Build()/ReadFrom()
  /// allocated (0 for a view over a mapped file).
  size_t MemoryBytes() const { return heap_bytes_; }

  /// Serializes the table (keys, offsets, ids; the directory is rebuilt
  /// on read) to \p out.
  Status WriteTo(std::ostream* out) const;

  /// Replaces this table with one read from \p in (already frozen).
  Status ReadFrom(std::istream* in);

  /// Checks the O(size) invariants AdoptFrozenView trusts: keys strictly
  /// ascending, offsets non-decreasing, and the directory equal to one
  /// rebuilt from the keys.
  Status Validate() const;

 private:
  struct OwnedArrays;

  // Keeps the frozen arrays alive; null until frozen.
  std::shared_ptr<const void> backing_;
  std::span<const uint64_t> keys_;     // sorted distinct keys
  std::span<const uint32_t> offsets_;  // keys_.size() + 1 offsets into ids_
  std::span<const VectorId> ids_;
  // 2^directory_bits_ + 1 key positions; a default-constructed table's
  // is {0, 0}, so its Lookup finds nothing.
  std::span<const uint32_t> directory_ = kEmptyDirectory;
  int directory_bits_ = 0;
  size_t heap_bytes_ = 0;  // bytes of an owned backing

  static constexpr uint32_t kEmptyDirectory[2] = {0, 0};
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_INVERTED_INDEX_H_
