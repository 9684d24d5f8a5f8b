// Copyright 2026 The skewsearch Authors.
// MappedFile: a read-only view of a whole file, preferably via mmap.
//
// The frozen-shard path (core/frozen_shard.h) wants a file's bytes
// addressable without copying them onto the heap: mmap gives zero-copy
// access, O(1) open time regardless of file size, and leaves residency
// and eviction to the OS page cache. Not every environment can mmap
// (exotic filesystems, locked-down containers, 32-bit address-space
// pressure), so Open falls back to reading the file into one heap
// buffer — the same span-shaped surface, just materialized. A mapping
// is hinted MADV_RANDOM: its readers probe posting lists, they do not
// scan. Callers that need to know which path they got (the mmap bench,
// the CLI's reporting) ask `mapped()`.

#ifndef SKEWSEARCH_UTIL_MAPPED_FILE_H_
#define SKEWSEARCH_UTIL_MAPPED_FILE_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Read-only RAII mapping (or heap image) of one file.
///
/// Move-only; the destructor unmaps / frees. All accessors are const and
/// the bytes never change, so a MappedFile may be shared across threads.
class MappedFile {
 public:
  struct Options {
    /// Skip mmap entirely and read the file onto the heap. What the
    /// graceful-degradation tests force, and what callers on platforms
    /// they do not trust to mmap can pin.
    bool force_heap = false;
  };

  MappedFile() = default;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  ~MappedFile();

  /// Opens \p path read-only and maps (or reads) its entire contents.
  /// Empty files yield a valid zero-length mapping. Fails with IOError
  /// when the file cannot be opened, stat'ed or read.
  static Result<MappedFile> Open(const std::string& path,
                                 const Options& options);

  /// The file's bytes. Valid until destruction/move-from.
  std::span<const uint8_t> bytes() const { return {data_, size_}; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

  /// True when the bytes are an mmap'd view; false on the heap fallback
  /// (or a default-constructed instance).
  bool mapped() const { return mapped_; }

 private:
  void Release();

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool mapped_ = false;
  std::vector<uint8_t> heap_;  // owns the bytes on the fallback path
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_UTIL_MAPPED_FILE_H_
