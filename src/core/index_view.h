// Copyright 2026 The skewsearch Authors.
// IndexView: the shared read-only surface of both index flavours.
//
// ShardedIndex (static; one shard is the unsharded case) and
// DynamicIndex (online) expose the same read-only accessors — the
// parameters a consumer needs to interpret results without caring which
// flavour produced them. Before this interface existed each class
// declared (and documented) the surface independently and every
// consumer (cli/, similarity_join, the benches) dispatched with ternary
// chains per accessor. IndexView is that surface, declared once; the
// indexes implement it and consumers hold a `const IndexView&`.
//
// The view is intentionally *read-only and query-free*: Build/Query
// signatures legitimately differ per flavour (thread pools, editions,
// maintenance hooks), so they stay on the concrete classes. Accessors
// are virtual — they are called per run or per batch, never per posting
// entry, so the indirection is free.

#ifndef SKEWSEARCH_CORE_INDEX_VIEW_H_
#define SKEWSEARCH_CORE_INDEX_VIEW_H_

#include <cstddef>

namespace skewsearch {

class FilterFamily;      // core/skewed_index.h
struct IndexBuildStats;  // core/skewed_index.h

/// \brief Read-only parameter surface shared by both index flavours.
///
/// For a DynamicIndex the values describe the *current* edition and may
/// change across rebuilds; for the static flavours they are fixed after
/// Build()/Load(). Before a successful Build()/Load() the accessors
/// return graceful defaults (false / 0 / 0.0 / an empty family).
class IndexView {
 public:
  virtual ~IndexView() = default;

  /// True after a successful Build()/Load().
  virtual bool built() const = 0;

  /// Number of filter repetitions actually used.
  virtual int repetitions() const = 0;

  /// The similarity a returned match is guaranteed to have.
  virtual double verify_threshold() const = 0;

  /// The filter family driving the index. The reference stays valid for
  /// the index's lifetime (a DynamicIndex never destroys editions).
  virtual const FilterFamily& family() const = 0;

  /// Aggregate build counters of the last Build().
  virtual const IndexBuildStats& build_stats() const = 0;

  /// Approximate heap usage of the posting structures. Thread-safe.
  virtual size_t MemoryBytes() const = 0;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_INDEX_VIEW_H_
