// Copyright 2026 The skewsearch Authors.
// Byte-level helpers for tests that rewrite SKF2 frozen index files
// (layout: docs/FILE_FORMATS.md). A test that corrupts a field and then
// recomputes the checksums over it reaches the validation that sits
// behind the checksums.

#ifndef SKEWSEARCH_TESTS_FROZEN_TEST_UTIL_H_
#define SKEWSEARCH_TESTS_FROZEN_TEST_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>

#include "core/frozen_shard.h"

namespace skewsearch {
namespace test {

/// Offsets into the SKF2 parameter block. The mode, hash-engine and
/// measure bytes come first; the int32 repetition count follows b1,
/// alpha, seed (8 bytes each), max_depth (4), max_paths_per_element and
/// verify_threshold (8 each).
constexpr size_t kFrozenParamModeOffset = 0;
constexpr size_t kFrozenParamRepetitionsOffset = 47;

/// Shard entry \p s of the file in \p bytes (which must hold it).
inline FrozenShardFile::ShardInfo FrozenShardEntry(const std::string& bytes,
                                                   uint32_t s) {
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, bytes.data() + 48, 8);
  FrozenShardFile::ShardInfo entry;
  std::memcpy(&entry, bytes.data() + table_offset + s * sizeof(entry),
              sizeof(entry));
  return entry;
}

/// Recomputes the payload checksum of shard \p s of \p bytes in place,
/// over its keys, offsets, ids and directory sections (which must lie in
/// \p bytes). Recompute the metadata checksum afterwards.
inline void RecomputeFrozenPayloadChecksum(std::string* bytes, uint32_t s) {
  FrozenShardFile::ShardInfo e = FrozenShardEntry(*bytes, s);
  frozen_internal::Checksum64 sum;
  sum.Update(bytes->data() + e.keys_offset, e.keys_count * 8);
  sum.Update(bytes->data() + e.offsets_offset, (e.keys_count + 1) * 4);
  sum.Update(bytes->data() + e.ids_offset, e.ids_count * 4);
  sum.Update(bytes->data() + e.directory_offset,
             KeyDirectorySize(e.keys_count) * 4);
  e.payload_checksum = sum.digest();
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, bytes->data() + 48, 8);
  std::memcpy(bytes->data() + table_offset + s * sizeof(e), &e, sizeof(e));
}

/// Recomputes the SKF2 metadata checksum of \p bytes in place. Returns
/// false when the header no longer locates the checksummed regions.
inline bool RecomputeFrozenMetaChecksum(std::string* bytes) {
  if (bytes->size() < frozen_internal::kHeaderSize) return false;
  uint64_t param_size = 0, table_offset = 0;
  uint32_t num_shards = 0;
  std::memcpy(&param_size, bytes->data() + 40, 8);
  std::memcpy(&table_offset, bytes->data() + 48, 8);
  std::memcpy(&num_shards, bytes->data() + 24, 4);
  const uint64_t table_bytes = uint64_t{64} * num_shards;
  if (64 + param_size > bytes->size() || table_offset > bytes->size() ||
      table_bytes > bytes->size() - table_offset) {
    return false;
  }
  frozen_internal::Checksum64 sum;
  sum.Update(bytes->data(), 56);
  sum.Update(bytes->data() + 64, param_size);
  sum.Update(bytes->data() + table_offset, table_bytes);
  const uint64_t digest = sum.digest();
  std::memcpy(bytes->data() + 56, &digest, 8);
  return true;
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_FROZEN_TEST_UTIL_H_
