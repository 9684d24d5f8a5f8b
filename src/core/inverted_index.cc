#include "core/inverted_index.h"

#include <algorithm>
#include <cassert>
#include <istream>
#include <numeric>
#include <ostream>
#include <utility>
#include <vector>

#include "core/index_io.h"

namespace skewsearch {

namespace {

template <typename T>
bool ReadVector(std::istream* in, std::vector<T>* values) {
  return index_io_internal::ReadVector(*in, values);
}

// Span flavour of the vec<T> encoding (u64 count + raw elements), so a
// table writes the same bytes whatever backs it.
template <typename T>
bool WriteSpan(std::ostream* out, std::span<const T> values) {
  uint64_t count = values.size();
  if (!index_io_internal::WritePod(*out, count)) return false;
  if (count == 0) return true;
  out->write(reinterpret_cast<const char*>(values.data()),
             static_cast<std::streamsize>(count * sizeof(T)));
  return out->good();
}

}  // namespace

/// The heap backing of a table frozen in memory.
struct FilterTable::OwnedArrays {
  std::vector<uint64_t> keys;
  std::vector<uint32_t> offsets;
  std::vector<VectorId> ids;
  std::vector<uint32_t> directory;
};

FilterTable FilterTable::Build(std::vector<Posting> postings) {
  const size_t count = postings.size();
  assert(count < (uint64_t{1} << 32) && "posting table overflow");
  std::vector<uint64_t> keys;
  std::vector<uint32_t> offsets;
  std::vector<VectorId> ids;
  {
    // Count the pairs per top-b bucket; the running sums leave bounds[i]
    // at the end of bucket i.
    const int bits = KeyDirectoryBits(count);
    std::vector<uint32_t> bounds((size_t{1} << bits) + 1, 0);
    for (const Posting& p : postings) ++bounds[KeyBucket(p.key, bits)];
    std::partial_sum(bounds.begin(), bounds.end(), bounds.begin());
    // Scatter each pair into its bucket, filling buckets from the back,
    // so bounds[i] ends at the start of bucket i.
    std::vector<Posting> sorted(count);
    for (const Posting& p : postings) {
      sorted[--bounds[KeyBucket(p.key, bits)]] = p;
    }
    postings = std::vector<Posting>();  // the input's memory goes first
    // Buckets are in key order, so sorting each by (key, id) sorts all.
    for (size_t i = 0; i + 1 < bounds.size(); ++i) {
      std::sort(sorted.begin() + bounds[i], sorted.begin() + bounds[i + 1],
                [](const Posting& a, const Posting& b) {
                  return a.key != b.key ? a.key < b.key : a.id < b.id;
                });
    }
    size_t num_keys = 0;
    for (size_t i = 0; i < count; ++i) {
      num_keys += i == 0 || sorted[i].key != sorted[i - 1].key;
    }
    keys.resize(num_keys);
    offsets.resize(num_keys + 1);
    ids.resize(count);
    for (size_t i = 0, k = 0; i < count; ++i) {
      if (i == 0 || sorted[i].key != sorted[i - 1].key) {
        keys[k] = sorted[i].key;
        offsets[k++] = static_cast<uint32_t>(i);
      }
      ids[i] = sorted[i].id;
    }
    offsets[num_keys] = static_cast<uint32_t>(count);
  }
  FilterTable table;
  Status s =
      table.AdoptArrays(std::move(keys), std::move(offsets), std::move(ids));
  assert(s.ok() && "built offsets bracket the ids");
  (void)s;
  return table;
}

Status FilterTable::AdoptArrays(std::vector<uint64_t> keys,
                                std::vector<uint32_t> offsets,
                                std::vector<VectorId> ids) {
  auto arrays = std::make_shared<OwnedArrays>();
  arrays->keys = std::move(keys);
  arrays->offsets = std::move(offsets);
  arrays->ids = std::move(ids);
  arrays->directory = BuildKeyDirectory(arrays->keys);
  const size_t heap_bytes = arrays->keys.capacity() * sizeof(uint64_t) +
                            arrays->offsets.capacity() * sizeof(uint32_t) +
                            arrays->ids.capacity() * sizeof(VectorId) +
                            arrays->directory.capacity() * sizeof(uint32_t);
  Status adopted = AdoptFrozenView(arrays, arrays->keys, arrays->offsets,
                                   arrays->ids, arrays->directory);
  if (adopted.ok()) heap_bytes_ = heap_bytes;
  return adopted;
}

Status FilterTable::AdoptFrozenView(std::shared_ptr<const void> backing,
                                    std::span<const uint64_t> keys,
                                    std::span<const uint32_t> offsets,
                                    std::span<const VectorId> ids,
                                    std::span<const uint32_t> directory) {
  if (offsets.size() != keys.size() + 1) {
    return Status::InvalidArgument("frozen view offset/key count mismatch");
  }
  if (offsets.front() != 0 || offsets.back() != ids.size()) {
    return Status::InvalidArgument("frozen view offsets do not bracket ids");
  }
  if (directory.size() != KeyDirectorySize(keys.size()) ||
      directory.front() != 0 || directory.back() != keys.size()) {
    return Status::InvalidArgument(
        "frozen view directory does not bracket the keys");
  }
  FilterTable fresh;
  fresh.backing_ = std::move(backing);
  fresh.keys_ = keys;
  fresh.offsets_ = offsets;
  fresh.ids_ = ids;
  fresh.directory_ = directory;
  fresh.directory_bits_ = KeyDirectoryBits(keys.size());
  *this = std::move(fresh);
  return Status::OK();
}

std::span<const VectorId> FilterTable::Lookup(uint64_t key) const {
  const size_t bucket = KeyBucket(key, directory_bits_);
  const uint32_t end = directory_[bucket + 1];
  for (uint32_t i = directory_[bucket]; i < end; ++i) {
    if (keys_[i] == key) return postings_at(i);
  }
  return {};
}

Status FilterTable::WriteTo(std::ostream* out) const {
  if (out == nullptr) return Status::InvalidArgument("null stream");
  if (!WriteSpan(out, keys_) || !WriteSpan(out, offsets_) ||
      !WriteSpan(out, ids_)) {
    return Status::IOError("filter table write failed");
  }
  return Status::OK();
}

Status FilterTable::ReadFrom(std::istream* in) {
  if (in == nullptr) return Status::InvalidArgument("null stream");
  std::vector<uint64_t> keys;
  std::vector<uint32_t> offsets;
  std::vector<VectorId> ids;
  if (!ReadVector(in, &keys) || !ReadVector(in, &offsets) ||
      !ReadVector(in, &ids)) {
    return Status::InvalidArgument("truncated or corrupt filter table");
  }
  // Adoption checks that the offsets run from 0 to the id count and
  // Validate() that they never fall, so every list lies inside the ids.
  FilterTable fresh;
  SKEWSEARCH_RETURN_NOT_OK(fresh.AdoptArrays(std::move(keys),
                                             std::move(offsets),
                                             std::move(ids)));
  SKEWSEARCH_RETURN_NOT_OK(fresh.Validate());
  *this = std::move(fresh);
  return Status::OK();
}

Status FilterTable::Validate() const {
  for (size_t i = 1; i < keys_.size(); ++i) {
    if (keys_[i - 1] >= keys_[i]) {
      return Status::InvalidArgument("filter table keys not sorted");
    }
  }
  for (size_t i = 1; i < offsets_.size(); ++i) {
    if (offsets_[i] < offsets_[i - 1]) {
      return Status::InvalidArgument("filter table offsets not monotone");
    }
  }
  const std::vector<uint32_t> rebuilt = BuildKeyDirectory(keys_);
  if (!std::equal(rebuilt.begin(), rebuilt.end(), directory_.begin(),
                  directory_.end())) {
    return Status::InvalidArgument(
        "filter table directory does not match its keys");
  }
  return Status::OK();
}

}  // namespace skewsearch
