#include "core/posting_table.h"

namespace skewsearch {

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
