// Copyright 2026 The skewsearch Authors.
// Cache-friendly open-addressing hash containers for the posting hot
// paths, plus the PostingMap/PostingSet aliases that make the container
// choice a one-line seam.
//
// std::unordered_map buys its iterator/reference stability with one heap
// node per entry; every probe of a posting-path map therefore costs at
// least two dependent cache misses. The hot maps of this codebase (filter
// key -> posting offsets, candidate dedup sets, delta/tombstone
// registries) never rely on reference stability across mutations, so an
// open-addressing table with linear probing over one flat slot array is
// strictly better: one expected cache miss per probe, ~half the memory,
// trivially copyable slot storage. This mirrors the ska::flat_hash_map
// layout the SetSketchIndex exemplar uses, implemented locally so the
// repo stays dependency-free.
//
// Contracts (narrower than std::unordered_map — by design):
//   - Keys must be trivially copyable integers (hashed with a full
//     64-bit avalanche mix, so sequential VectorIds and structured
//     filter keys both spread well under power-of-two masking).
//   - Mutations invalidate iterators AND references (rehash moves slots;
//     erase back-shifts the probe window). Never mutate mid-iteration.
//   - Values must be default-constructible and movable.
//   - Iteration order is deterministic for a given insertion/erase
//     history but is NOT the insertion order; any output that must be
//     stable is sorted by the caller (as the Save paths already do).

#ifndef SKEWSEARCH_UTIL_CONTAINERS_H_
#define SKEWSEARCH_UTIL_CONTAINERS_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace skewsearch {

/// Full-avalanche 64-bit mixer (splitmix64 finalizer). Every bit of the
/// input affects every bit of the output, which linear probing under a
/// power-of-two mask depends on.
struct FlatHash {
  size_t operator()(uint64_t x) const {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }
};

/// \brief Open-addressing hash map: flat slot array, linear probing,
/// power-of-two capacity, backward-shift deletion (no tombstones).
///
/// Grows at 7/8 load. See the file comment for the (deliberately
/// narrowed) contracts relative to std::unordered_map.
template <typename K, typename V, typename Hash = FlatHash>
class FlatHashMap {
  static_assert(std::is_integral_v<K>,
                "FlatHashMap keys must be integers (see file comment)");

 public:
  /// Entry type exposed by iterators (`first` / `second`, like the std
  /// containers, so call sites and structured bindings port unchanged).
  struct value_type {
    K first;
    [[no_unique_address]] V second;  // takes no bytes when V is empty
  };

  /// Forward iterator over occupied slots. Invalidated by any mutation.
  template <bool kConst>
  class Iter {
   public:
    using MapPtr = std::conditional_t<kConst, const FlatHashMap*,
                                      FlatHashMap*>;
    using Ref = std::conditional_t<kConst, const value_type&, value_type&>;
    using Ptr = std::conditional_t<kConst, const value_type*, value_type*>;

    Iter() = default;
    Iter(MapPtr map, size_t idx) : map_(map), idx_(idx) { SkipEmpty(); }

    Ref operator*() const { return map_->slots_[idx_]; }
    Ptr operator->() const { return &map_->slots_[idx_]; }

    Iter& operator++() {
      ++idx_;
      SkipEmpty();
      return *this;
    }

    friend bool operator==(const Iter& a, const Iter& b) {
      return a.idx_ == b.idx_;
    }
    friend bool operator!=(const Iter& a, const Iter& b) {
      return a.idx_ != b.idx_;
    }

    /// Const iterators convert from mutable ones (std idiom).
    operator Iter<true>() const { return Iter<true>(map_, idx_, 0); }

   private:
    friend class FlatHashMap;
    template <bool>
    friend class Iter;
    Iter(MapPtr map, size_t idx, int /*raw*/) : map_(map), idx_(idx) {}
    void SkipEmpty() {
      while (map_ != nullptr && idx_ < map_->full_.size() &&
             !map_->full_[idx_]) {
        ++idx_;
      }
    }
    MapPtr map_ = nullptr;
    size_t idx_ = 0;
  };

  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  FlatHashMap() = default;
  FlatHashMap(const FlatHashMap&) = default;
  FlatHashMap(FlatHashMap&& other) noexcept { Swap(other); }
  FlatHashMap& operator=(const FlatHashMap&) = default;
  FlatHashMap& operator=(FlatHashMap&& other) noexcept {
    if (this != &other) {
      Clear();
      Swap(other);
    }
    return *this;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Approximate heap usage in bytes (slot array + occupancy bitmap).
  size_t MemoryBytes() const {
    return slots_.capacity() * sizeof(value_type) +
           full_.capacity() * sizeof(uint8_t);
  }

  /// Drops every entry but keeps the allocation (hot scratch reuse).
  /// Mapped values are reset so operator[] after clear() yields a
  /// default value; an empty mapped type (a set) has none to reset.
  void clear() {
    if constexpr (!std::is_empty_v<V>) {
      for (size_t i = 0; i < full_.size(); ++i) {
        if (full_[i]) slots_[i].second = V{};
      }
    }
    std::fill(full_.begin(), full_.end(), uint8_t{0});
    size_ = 0;
  }

  /// Pre-sizes so \p n entries fit without rehashing.
  void reserve(size_t n) {
    size_t needed = CapacityFor(n);
    if (needed > full_.size()) Rehash(needed);
  }

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, full_.size(), 0); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const {
    return const_iterator(this, full_.size(), 0);
  }

  iterator find(K key) {
    size_t idx = FindIndex(key);
    return idx == kNotFound ? end() : iterator(this, idx, 0);
  }
  const_iterator find(K key) const {
    size_t idx = FindIndex(key);
    return idx == kNotFound ? end() : const_iterator(this, idx, 0);
  }

  bool contains(K key) const { return FindIndex(key) != kNotFound; }
  size_t count(K key) const { return contains(key) ? 1 : 0; }

  /// Inserts default-constructed V when absent (std semantics).
  V& operator[](K key) {
    size_t idx = InsertSlot(key);
    return slots_[idx].second;
  }

  /// No-op when \p key is present (std semantics: the existing mapped
  /// value is kept). Returns {iterator, inserted}.
  template <typename... Args>
  std::pair<iterator, bool> emplace(K key, Args&&... args) {
    size_t before = size_;
    size_t idx = InsertSlot(key);
    bool inserted = size_ != before;
    if (inserted) slots_[idx].second = V(std::forward<Args>(args)...);
    return {iterator(this, idx, 0), inserted};
  }

  std::pair<iterator, bool> insert(value_type entry) {
    size_t before = size_;
    size_t idx = InsertSlot(entry.first);
    bool inserted = size_ != before;
    if (inserted) slots_[idx].second = std::move(entry.second);
    return {iterator(this, idx, 0), inserted};
  }

  /// Returns the number of entries removed (0 or 1).
  size_t erase(K key) {
    size_t idx = FindIndex(key);
    if (idx == kNotFound) return 0;
    EraseIndex(idx);
    return 1;
  }

 private:
  static constexpr size_t kNotFound = static_cast<size_t>(-1);
  static constexpr size_t kMinCapacity = 16;

  void Swap(FlatHashMap& other) {
    slots_.swap(other.slots_);
    full_.swap(other.full_);
    std::swap(size_, other.size_);
    std::swap(mask_, other.mask_);
  }

  void Clear() {
    slots_.clear();
    full_.clear();
    size_ = 0;
    mask_ = 0;
  }

  /// Smallest power-of-two capacity keeping \p n entries under 7/8 load.
  static size_t CapacityFor(size_t n) {
    size_t cap = kMinCapacity;
    while (n + n / 7 >= cap - cap / 8) cap <<= 1;
    return cap;
  }

  size_t IndexFor(K key) const {
    return Hash()(static_cast<uint64_t>(key)) & mask_;
  }

  size_t FindIndex(K key) const {
    if (full_.empty()) return kNotFound;
    size_t idx = IndexFor(key);
    while (full_[idx]) {
      if (slots_[idx].first == key) return idx;
      idx = (idx + 1) & mask_;
    }
    return kNotFound;
  }

  /// Finds \p key or claims the slot it belongs in (growing first if the
  /// insert would cross the load ceiling).
  size_t InsertSlot(K key) {
    if (full_.empty() || (size_ + 1) * 8 > full_.size() * 7) {
      Rehash(full_.empty() ? kMinCapacity : full_.size() * 2);
    }
    size_t idx = IndexFor(key);
    while (full_[idx]) {
      if (slots_[idx].first == key) return idx;
      idx = (idx + 1) & mask_;
    }
    slots_[idx].first = key;
    full_[idx] = 1;
    ++size_;
    return idx;
  }

  void Rehash(size_t new_capacity) {
    std::vector<value_type> old_slots;
    std::vector<uint8_t> old_full;
    old_slots.swap(slots_);
    old_full.swap(full_);
    slots_.resize(new_capacity);
    full_.assign(new_capacity, 0);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (size_t i = 0; i < old_full.size(); ++i) {
      if (!old_full[i]) continue;
      size_t idx = InsertSlotNoGrow(old_slots[i].first);
      slots_[idx].second = std::move(old_slots[i].second);
    }
  }

  size_t InsertSlotNoGrow(K key) {
    size_t idx = IndexFor(key);
    while (full_[idx]) idx = (idx + 1) & mask_;
    slots_[idx].first = key;
    full_[idx] = 1;
    ++size_;
    return idx;
  }

  /// Backward-shift deletion: pulls displaced entries of the probe
  /// window over the hole so lookups never need tombstones.
  void EraseIndex(size_t hole) {
    size_t j = hole;
    while (true) {
      j = (j + 1) & mask_;
      if (!full_[j]) break;
      size_t home = IndexFor(slots_[j].first);
      // The entry at j may fill the hole iff its home lies at or before
      // the hole in probe order: (j - home) mod cap >= (j - hole) mod cap.
      if (((j - home) & mask_) >= ((j - hole) & mask_)) {
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = value_type{};
    full_[hole] = 0;
    --size_;
  }

  std::vector<value_type> slots_;
  std::vector<uint8_t> full_;  // 1 = slot occupied
  size_t size_ = 0;
  size_t mask_ = 0;
};

/// \brief Open-addressing hash set over integer keys: a FlatHashMap
/// whose mapped type is empty, so it shares the map's probing, growth
/// and erase, and a slot is still just the key.
template <typename K, typename Hash = FlatHash>
class FlatHashSet {
  struct Empty {};
  using Map = FlatHashMap<K, Empty, Hash>;
  static_assert(sizeof(typename Map::value_type) == sizeof(K),
                "a set slot must hold only its key");

 public:
  /// Forward iterator over stored keys. Invalidated by any mutation.
  class const_iterator {
   public:
    const_iterator() = default;
    explicit const_iterator(typename Map::const_iterator it) : it_(it) {}

    const K& operator*() const { return it_->first; }

    const_iterator& operator++() {
      ++it_;
      return *this;
    }

    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.it_ == b.it_;
    }
    friend bool operator!=(const const_iterator& a, const const_iterator& b) {
      return a.it_ != b.it_;
    }

   private:
    typename Map::const_iterator it_;
  };
  using iterator = const_iterator;

  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }

  /// Approximate heap usage in bytes (slot array + occupancy bitmap).
  size_t MemoryBytes() const { return map_.MemoryBytes(); }

  /// Drops every key but keeps the allocation (hot scratch reuse).
  void clear() { map_.clear(); }

  /// Pre-sizes so \p n keys fit without rehashing.
  void reserve(size_t n) { map_.reserve(n); }

  const_iterator begin() const { return const_iterator(map_.begin()); }
  const_iterator end() const { return const_iterator(map_.end()); }

  const_iterator find(K key) const { return const_iterator(map_.find(key)); }
  bool contains(K key) const { return map_.contains(key); }
  size_t count(K key) const { return map_.count(key); }

  /// Returns {iterator, inserted}; `inserted` is false when the key was
  /// already present (the idiom the dedup hot loops key off).
  std::pair<const_iterator, bool> insert(K key) {
    auto [it, inserted] = map_.emplace(key);
    return {const_iterator(it), inserted};
  }

  /// Returns the number of keys removed (0 or 1).
  size_t erase(K key) { return map_.erase(key); }

 private:
  Map map_;
};

/// \name The posting-path container seam.
///
/// Every hot map/set on the posting paths (filter-key lookup, candidate
/// dedup, delta/tombstone registries, partition routing) goes through
/// these aliases, so the container implementation can be swapped in one
/// line. Cold-path maps (configuration, test oracles) may stay std with
/// a comment saying why.
/// @{
template <typename K, typename V>
using PostingMap = FlatHashMap<K, V>;

template <typename K>
using PostingSet = FlatHashSet<K>;
/// @}

}  // namespace skewsearch

#endif  // SKEWSEARCH_UTIL_CONTAINERS_H_
