// Copyright 2026 The skewsearch Authors.
// Dataset: the collection S of n sparse vectors, stored CSR-style.

#ifndef SKEWSEARCH_DATA_DATASET_H_
#define SKEWSEARCH_DATA_DATASET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "data/sparse_vector.h"
#include "util/status.h"

namespace skewsearch {

/// Index of a vector within a Dataset.
using VectorId = uint32_t;

/// \brief An immutable-after-build collection of sparse vectors.
///
/// Storage is a single concatenated item array plus offsets (CSR), which
/// keeps the n * E[|x|] ids cache-friendly during index construction and
/// brute-force verification.
class Dataset {
 public:
  Dataset() = default;

  /// Appends one vector; returns its id.
  VectorId Add(const SparseVector& vec);

  /// Appends the set of ids in \p ids; returns its id. Strictly
  /// increasing ids are stored as given (one O(|ids|) check); any other
  /// span is stored sorted and deduplicated, as SparseVector::FromIds
  /// would.
  VectorId Add(std::span<const ItemId> ids);

  /// Number of vectors n.
  size_t size() const { return offsets_.size() - 1; }

  /// True iff the dataset holds no vectors.
  bool empty() const { return size() == 0; }

  /// Universe size d = 1 + max item id seen (0 for an empty dataset), unless
  /// overridden by SetDimension.
  size_t dimension() const { return dim_; }

  /// Declares the universe size explicitly (must be > max item id seen).
  Status SetDimension(size_t d);

  /// Sorted items of vector \p id (undefined for out-of-range ids).
  std::span<const ItemId> Get(VectorId id) const {
    return {items_.data() + offsets_[id],
            offsets_[id + 1] - offsets_[id]};
  }

  /// Copies vector \p id into a SparseVector.
  SparseVector GetVector(VectorId id) const;

  /// Size |x| of vector \p id.
  size_t SizeOf(VectorId id) const {
    return offsets_[id + 1] - offsets_[id];
  }

  /// Total number of stored ids (sum of |x| over the dataset).
  size_t TotalItems() const { return items_.size(); }

  /// Mean vector size (0 for an empty dataset).
  double AverageSize() const;

  /// Bytes of payload storage (items + offsets).
  size_t MemoryBytes() const;

 private:
  std::vector<ItemId> items_;
  std::vector<size_t> offsets_ = {0};
  size_t dim_ = 0;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_DATA_DATASET_H_
