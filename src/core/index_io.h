// Copyright 2026 The skewsearch Authors.
// Internal shared pieces of the persisted-index formats — the frozen
// static index ("SKF2", core/frozen_shard.h) and the online index
// ("SKD2", core/dynamic_index.h) both embed the same parameter block and
// dataset fingerprint, so the encoding and the corruption checks live
// here exactly once. Not part of the public API.

#ifndef SKEWSEARCH_CORE_INDEX_IO_H_
#define SKEWSEARCH_CORE_INDEX_IO_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <vector>

#include "core/skewed_index.h"
#include "data/dataset.h"
#include "util/status.h"

namespace skewsearch {
namespace index_io_internal {

template <typename T>
bool WritePod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
  return static_cast<bool>(out);
}

template <typename T>
bool ReadPod(std::istream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return static_cast<bool>(in);
}

template <typename T>
bool WriteVector(std::ostream& out, const std::vector<T>& values) {
  uint64_t count = values.size();
  out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  out.write(reinterpret_cast<const char*>(values.data()),
            static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(out);
}

/// Bytes from the current position to the end of the stream, or -1 when
/// the stream is unseekable/invalid. Used to bound allocations while
/// reading untrusted files: a corrupt length field can never demand more
/// payload than the file actually holds.
int64_t RemainingBytes(std::istream& in);

template <typename T>
bool ReadVector(std::istream& in, std::vector<T>* values) {
  uint64_t count = 0;
  in.read(reinterpret_cast<char*>(&count), sizeof(count));
  if (!in) return false;
  const int64_t remaining = RemainingBytes(in);
  if (remaining < 0 ||
      count > static_cast<uint64_t>(remaining) / sizeof(T)) {
    return false;
  }
  values->resize(count);
  in.read(reinterpret_cast<char*>(values->data()),
          static_cast<std::streamsize>(count * sizeof(T)));
  return static_cast<bool>(in);
}

/// Cheap content fingerprint: shape plus a sampled item hash. Rejects
/// re-supplying a different dataset on Load without a full scan.
uint64_t Fingerprint(const Dataset& data);

/// \brief The parameter block every index format embeds after its magic.
struct ParamHeader {
  SkewedIndexOptions options;      ///< mode/hash_engine/verify_measure set
  double verify_threshold = 0.0;
  IndexBuildStats stats;           ///< repetitions, delta_used, counters
};

/// Writes the parameter block (16 fields, fixed order and width).
bool WriteParams(std::ostream& out, const SkewedIndexOptions& options,
                 double verify_threshold, const IndexBuildStats& stats);

/// Reads the parameter block and performs field-level sanity checks (enum
/// ranges); deeper validation happens in FilterFamily::Restore.
Status ReadParams(std::istream& in, ParamHeader* header);

}  // namespace index_io_internal
}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_INDEX_IO_H_
