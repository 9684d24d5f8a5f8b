#include "hashing/path_hasher.h"

#include "util/random.h"

namespace skewsearch {

PathHasher::PathHasher(uint64_t seed, int max_level, HashEngine engine)
    : seed_(seed), max_level_(max_level), engine_(engine) {
  Rng rng(Mix64(seed ^ 0x5ca1ab1e0ddba11ULL));
  level_salts_.reserve(static_cast<size_t>(max_level));
  for (int level = 0; level < max_level; ++level) {
    level_salts_.push_back(rng.NextUint64());
  }
  if (engine_ == HashEngine::kPairwise) {
    level_hashes_.reserve(static_cast<size_t>(max_level));
    for (int level = 0; level < max_level; ++level) {
      level_hashes_.emplace_back(&rng);
    }
  }
}

uint64_t PathHasher::RootKey(uint32_t rep) const {
  return MixPair(Mix64(seed_), Mix64(0xabcdef12345678ULL + rep));
}

}  // namespace skewsearch
