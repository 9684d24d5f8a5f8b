// Copyright 2026 The skewsearch Authors.
// FrozenShardFile: the "SKF2" page-aligned on-disk layout for frozen
// posting tables, designed to be mmap'd PROT_READ and served zero-copy.
//
// The online index's SKD2 format streams length-prefixed vectors and
// materializes them on Load — O(index) start time and a full RAM copy.
// SKF2 instead lays each shard's frozen arrays (keys, offsets, ids and
// the key directory) out offset-based, 64-byte aligned, behind a
// fixed-size header and a shard section table, so Map() only validates
// O(num_shards) metadata and then adopts spans straight into the mapped
// bytes: warm start is O(1) in the index size, residency is the OS page
// cache's problem, and a mapped table has the same layout and the same
// Lookup as the heap table it was frozen from. SKF2 is the static
// index's only file format. docs/FILE_FORMATS.md specifies the layout
// normatively; tests/core_frozen_shard_fuzz_test.cc holds Map() to clean
// rejection of every corrupted byte it can reach.
//
// Integrity model: the header, parameter block and shard section table
// are covered by an always-verified metadata checksum, so Map() never
// trusts an unchecksummed offset or count. The posting payload itself
// is covered by per-shard checksums verified only when
// FrozenMapOptions::verify_payload is set — the O(index) scan is opt-in
// precisely so the default map stays O(1).

#ifndef SKEWSEARCH_CORE_FROZEN_SHARD_H_
#define SKEWSEARCH_CORE_FROZEN_SHARD_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/index_io.h"
#include "core/inverted_index.h"
#include "util/mapped_file.h"
#include "util/result.h"
#include "util/status.h"

namespace skewsearch {

/// \brief How FrozenShardFile::Map opens and validates a file.
struct FrozenMapOptions {
  /// Skip mmap and read the file onto the heap (same validation, same
  /// views — just materialized). For environments that cannot map.
  bool force_heap = false;

  /// Also verify the per-shard payload checksums and the structural
  /// invariants of every posting array (sorted keys, monotone offsets,
  /// ids bounded by the recorded max, the directory equal to one rebuilt
  /// from the keys). O(index) — deliberately not the default, which
  /// validates metadata only and stays O(1).
  bool verify_payload = false;
};

/// \brief A mapped (or heap-read) SKF2 file serving zero-copy shard views.
///
/// Immutable and thread-safe after Map(). Shard views returned by
/// MakeShardView alias the file's bytes and keep the file alive.
class FrozenShardFile
    : public std::enable_shared_from_this<FrozenShardFile> {
 public:
  /// One shard's section metadata, as recorded in the file (covered by
  /// the metadata checksum). Offsets are absolute file offsets; counts
  /// are element counts. The offsets section holds keys_count + 1
  /// entries and the directory KeyDirectorySize(keys_count).
  struct ShardInfo {
    uint64_t keys_offset = 0;
    uint64_t keys_count = 0;
    uint64_t offsets_offset = 0;
    uint64_t directory_offset = 0;
    uint64_t ids_offset = 0;
    uint64_t ids_count = 0;
    uint64_t max_id = 0;  ///< largest posting id (0 when ids_count == 0)
    uint64_t payload_checksum = 0;
  };

  /// Maps \p path and validates its metadata (magic, sizes, alignment,
  /// section bounds, checksum; plus payload when asked). Returns a
  /// shared handle because shard views borrow the mapped bytes.
  static Result<std::shared_ptr<const FrozenShardFile>> Map(
      const std::string& path, const FrozenMapOptions& options = {});

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardInfo& shard_info(int s) const {
    return shards_[static_cast<size_t>(s)];
  }

  /// The parameter block the file was frozen with (same fields the
  /// online SKD2 format embeds).
  const index_io_internal::ParamHeader& params() const { return params_; }

  /// Fingerprint of the dataset the index was built over; callers check
  /// it against the dataset they re-supply.
  uint64_t fingerprint() const { return fingerprint_; }

  /// True when the bytes are an mmap'd view (false on the heap fallback).
  bool mapped() const { return file_.mapped(); }

  /// A zero-copy FilterTable view over shard \p s. The view (and any
  /// copy of it) aliases this file's bytes and keeps the file alive.
  Result<FilterTable> MakeShardView(int s) const;

 private:
  FrozenShardFile() = default;

  MappedFile file_;
  index_io_internal::ParamHeader params_;
  uint64_t fingerprint_ = 0;
  std::vector<ShardInfo> shards_;
};

/// Writes the frozen tables \p shards to \p path in SKF2 form. Shard s
/// of the file is written from shards[s]; every table must be frozen.
/// The parameter fields mirror what the heap formats persist, so a
/// mapped file restores the identical FilterFamily.
Status WriteFrozenShards(const std::string& path,
                         const SkewedIndexOptions& options,
                         double verify_threshold,
                         const IndexBuildStats& stats, uint64_t fingerprint,
                         std::span<const FilterTable* const> shards);

namespace frozen_internal {

/// The 64-bit FNV-1a the SKF2 checksums use (normative; see
/// docs/FILE_FORMATS.md).
class Checksum64 {
 public:
  void Update(const void* bytes, size_t size);
  uint64_t digest() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr size_t kHeaderSize = 64;
constexpr size_t kShardEntrySize = 64;
constexpr size_t kSectionAlign = 64;

}  // namespace frozen_internal

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_FROZEN_SHARD_H_
