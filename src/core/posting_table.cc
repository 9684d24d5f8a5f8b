#include "core/posting_table.h"

#include <algorithm>
#include <cassert>

namespace skewsearch {

void PostingArena::Reserve(size_t expected_pairs) {
  nodes_.reserve(expected_pairs);
}

void PostingArena::Add(uint64_t key, VectorId id) {
  assert(nodes_.size() < kNil && "posting arena overflow (2^32 - 1 pairs)");
  auto [it, inserted] = index_.emplace(key, 0);
  if (inserted) {
    it->second = static_cast<uint32_t>(slots_.size());
    slots_.push_back({key, kNil});
  }
  KeySlot& slot = slots_[it->second];
  nodes_.push_back({id, slot.head});
  slot.head = static_cast<uint32_t>(nodes_.size() - 1);
}

size_t PostingArena::MemoryBytes() const {
  return index_.MemoryBytes() + slots_.capacity() * sizeof(KeySlot) +
         nodes_.capacity() * sizeof(Node);
}

void PostingArena::Freeze(std::vector<uint64_t>* keys,
                          std::vector<uint32_t>* offsets,
                          std::vector<VectorId>* ids) {
  std::sort(slots_.begin(), slots_.end(),
            [](const KeySlot& a, const KeySlot& b) { return a.key < b.key; });
  keys->clear();
  offsets->clear();
  ids->clear();
  keys->reserve(slots_.size());
  offsets->reserve(slots_.size() + 1);
  ids->reserve(nodes_.size());
  for (const KeySlot& slot : slots_) {
    keys->push_back(slot.key);
    offsets->push_back(static_cast<uint32_t>(ids->size()));
    const size_t start = ids->size();
    // Chains link newest-first; the per-key ascending sort below both
    // restores and canonicalizes the order (duplicate ids survive).
    for (uint32_t n = slot.head; n != kNil; n = nodes_[n].next) {
      ids->push_back(nodes_[n].id);
    }
    std::sort(ids->begin() + static_cast<ptrdiff_t>(start), ids->end());
  }
  offsets->push_back(static_cast<uint32_t>(ids->size()));
  Clear();
}

void PostingArena::Clear() {
  index_ = PostingMap<uint64_t, uint32_t>();
  slots_.clear();
  slots_.shrink_to_fit();
  nodes_.clear();
  nodes_.shrink_to_fit();
}

std::vector<uint32_t> BuildKeyDirectory(std::span<const uint64_t> keys) {
  const int bits = KeyDirectoryBits(keys.size());
  std::vector<uint32_t> dir(KeyDirectorySize(keys.size()));
  const size_t buckets = dir.size() - 1;
  size_t k = 0;
  for (size_t i = 0; i < buckets; ++i) {
    while (k < keys.size() && KeyBucket(keys[k], bits) < i) ++k;
    dir[i] = static_cast<uint32_t>(k);
  }
  dir[buckets] = static_cast<uint32_t>(keys.size());
  return dir;
}

}  // namespace skewsearch
