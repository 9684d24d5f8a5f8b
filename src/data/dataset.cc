#include "data/dataset.h"

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

namespace skewsearch {

VectorId Dataset::Add(const SparseVector& vec) { return Add(vec.span()); }

VectorId Dataset::Add(std::span<const ItemId> ids) {
  if (std::adjacent_find(ids.begin(), ids.end(),
                         std::greater_equal<ItemId>()) != ids.end()) {
    return Add(
        SparseVector::FromIds(std::vector<ItemId>(ids.begin(), ids.end())));
  }
  items_.insert(items_.end(), ids.begin(), ids.end());
  offsets_.push_back(items_.size());
  if (!ids.empty()) {
    dim_ = std::max(dim_, static_cast<size_t>(ids.back()) + 1);
  }
  return static_cast<VectorId>(offsets_.size() - 2);
}

Status Dataset::SetDimension(size_t d) {
  if (d < dim_) {
    return Status::InvalidArgument(
        "dimension " + std::to_string(d) + " smaller than max item id + 1 (" +
        std::to_string(dim_) + ")");
  }
  dim_ = d;
  return Status::OK();
}

SparseVector Dataset::GetVector(VectorId id) const {
  auto span = Get(id);
  return SparseVector::FromSorted(
      std::vector<ItemId>(span.begin(), span.end()));
}

double Dataset::AverageSize() const {
  if (empty()) return 0.0;
  return static_cast<double>(items_.size()) / static_cast<double>(size());
}

size_t Dataset::MemoryBytes() const {
  return items_.size() * sizeof(ItemId) + offsets_.size() * sizeof(size_t);
}

}  // namespace skewsearch
