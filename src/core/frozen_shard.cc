#include "core/frozen_shard.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

namespace skewsearch {

namespace frozen_internal {

void Checksum64::Update(const void* bytes, size_t size) {
  const uint8_t* p = static_cast<const uint8_t*>(bytes);
  uint64_t h = h_;
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  h_ = h;
}

}  // namespace frozen_internal

namespace {

using frozen_internal::Checksum64;
using frozen_internal::kHeaderSize;
using frozen_internal::kSectionAlign;
using frozen_internal::kShardEntrySize;

constexpr char kFrozenMagic[4] = {'S', 'K', 'F', '2'};
constexpr uint32_t kMaxFileShards = 1u << 12;  // matches ShardedIndex's cap

/// The fixed 64-byte SKF2 header (normative layout; docs/FILE_FORMATS.md).
/// The meta checksum covers bytes [0, 56) of this struct plus the param
/// block plus the shard entry table.
struct FileHeader {
  char magic[4];
  uint32_t reserved0;
  uint64_t file_size;
  uint64_t fingerprint;
  uint32_t num_shards;
  uint32_t section_count;  // always 4 * num_shards
  uint64_t param_offset;   // always kHeaderSize
  uint64_t param_size;
  uint64_t table_offset;   // kSectionAlign-aligned
  uint64_t meta_checksum;
};
static_assert(sizeof(FileHeader) == kHeaderSize);
static_assert(sizeof(FrozenShardFile::ShardInfo) == kShardEntrySize);
static_assert(std::is_trivially_copyable_v<FrozenShardFile::ShardInfo>);

constexpr size_t kChecksummedHeaderBytes =
    kHeaderSize - sizeof(uint64_t);  // everything before meta_checksum

uint64_t AlignUp(uint64_t value, uint64_t align) {
  return (value + align - 1) / align * align;
}

/// True iff [offset, offset + count*elem) lies within a file of
/// \p file_size bytes and starts kSectionAlign-aligned. Overflow-safe:
/// every comparison is against quantities already bounded by file_size.
bool SectionInBounds(uint64_t offset, uint64_t count, uint64_t elem,
                     uint64_t file_size) {
  if (offset % kSectionAlign != 0) return false;
  if (offset > file_size) return false;
  return count <= (file_size - offset) / elem;
}

bool WritePadding(std::ostream& out, uint64_t from, uint64_t to) {
  static const char kZeros[kSectionAlign] = {};
  while (from < to) {
    uint64_t n = std::min<uint64_t>(to - from, sizeof(kZeros));
    out.write(kZeros, static_cast<std::streamsize>(n));
    from += n;
  }
  return static_cast<bool>(out);
}

bool WriteSection(std::ostream& out, std::span<const std::byte> section,
                  uint64_t offset) {
  out.write(reinterpret_cast<const char*>(section.data()),
            static_cast<std::streamsize>(section.size()));
  const uint64_t end = offset + section.size();
  return WritePadding(out, end, AlignUp(end, kSectionAlign));
}

/// A table's four payload sections, in file order.
std::array<std::span<const std::byte>, 4> Sections(const FilterTable& table) {
  return {std::as_bytes(table.keys_span()),
          std::as_bytes(table.offsets_span()),
          std::as_bytes(table.ids_span()),
          std::as_bytes(table.directory_span())};
}

/// The fields of \p e that record where each of those sections starts.
std::array<uint64_t*, 4> SectionOffsets(FrozenShardFile::ShardInfo* e) {
  return {&e->keys_offset, &e->offsets_offset, &e->ids_offset,
          &e->directory_offset};
}

uint64_t PayloadChecksum(const FilterTable& table) {
  Checksum64 sum;
  for (std::span<const std::byte> section : Sections(table)) {
    sum.Update(section.data(), section.size());
  }
  return sum.digest();
}

}  // namespace

Status WriteFrozenShards(const std::string& path,
                         const SkewedIndexOptions& options,
                         double verify_threshold,
                         const IndexBuildStats& stats, uint64_t fingerprint,
                         std::span<const FilterTable* const> shards) {
  namespace io = index_io_internal;
  if (shards.empty() || shards.size() > kMaxFileShards) {
    return Status::InvalidArgument("frozen file needs 1..4096 shards");
  }
  for (const FilterTable* shard : shards) {
    if (shard == nullptr || !shard->frozen()) {
      return Status::InvalidArgument(
          "cannot freeze an unbuilt posting table");
    }
  }

  std::ostringstream param_stream(std::ios::binary);
  if (!io::WriteParams(param_stream, options, verify_threshold, stats)) {
    return Status::IOError("parameter block serialization failed");
  }
  const std::string params = param_stream.str();

  // Lay out the file: header | params | shard entry table | sections,
  // every section kSectionAlign-aligned.
  FileHeader header = {};
  std::memcpy(header.magic, kFrozenMagic, sizeof(kFrozenMagic));
  header.fingerprint = fingerprint;
  header.num_shards = static_cast<uint32_t>(shards.size());
  header.section_count = 4 * header.num_shards;
  header.param_offset = kHeaderSize;
  header.param_size = params.size();
  header.table_offset = AlignUp(kHeaderSize + params.size(), kSectionAlign);

  std::vector<FrozenShardFile::ShardInfo> entries(shards.size());
  uint64_t cursor =
      header.table_offset + uint64_t{kShardEntrySize} * shards.size();
  for (size_t s = 0; s < shards.size(); ++s) {
    const FilterTable& table = *shards[s];
    FrozenShardFile::ShardInfo& e = entries[s];
    e.keys_count = table.num_keys();
    e.ids_count = table.num_pairs();
    const auto sections = Sections(table);
    const auto offsets = SectionOffsets(&e);
    for (size_t i = 0; i < sections.size(); ++i) {
      *offsets[i] = cursor;
      cursor = AlignUp(cursor + sections[i].size(), kSectionAlign);
    }
    for (VectorId id : table.ids_span()) {
      e.max_id = std::max<uint64_t>(e.max_id, id);
    }
    e.payload_checksum = PayloadChecksum(table);
  }
  header.file_size = cursor;

  Checksum64 meta;
  meta.Update(&header, kChecksummedHeaderBytes);
  meta.Update(params.data(), params.size());
  meta.Update(entries.data(), entries.size() * kShardEntrySize);
  header.meta_checksum = meta.digest();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(params.data(), static_cast<std::streamsize>(params.size()));
  if (!WritePadding(out, kHeaderSize + params.size(),
                    header.table_offset)) {
    return Status::IOError("header write to '" + path + "' failed");
  }
  out.write(reinterpret_cast<const char*>(entries.data()),
            static_cast<std::streamsize>(entries.size() * kShardEntrySize));
  for (size_t s = 0; s < shards.size(); ++s) {
    const auto sections = Sections(*shards[s]);
    const auto offsets = SectionOffsets(&entries[s]);
    bool ok = true;
    for (size_t i = 0; ok && i < sections.size(); ++i) {
      ok = WriteSection(out, sections[i], *offsets[i]);
    }
    if (!ok) {
      return Status::IOError("section write to '" + path + "' failed");
    }
  }
  out.flush();
  if (!out) return Status::IOError("flush of '" + path + "' failed");
  return Status::OK();
}

Result<std::shared_ptr<const FrozenShardFile>> FrozenShardFile::Map(
    const std::string& path, const FrozenMapOptions& options) {
  namespace io = index_io_internal;
  MappedFile::Options open_options;
  open_options.force_heap = options.force_heap;
  Result<MappedFile> opened = MappedFile::Open(path, open_options);
  if (!opened.ok()) return opened.status();

  auto file = std::shared_ptr<FrozenShardFile>(new FrozenShardFile());
  file->file_ = std::move(opened).value();
  const uint8_t* base = file->file_.data();
  const uint64_t size = file->file_.size();

  if (size < kHeaderSize) {
    return Status::InvalidArgument("'" + path +
                                   "' is too small for a frozen shard file");
  }
  FileHeader header;
  std::memcpy(&header, base, sizeof(header));
  if (std::memcmp(header.magic, kFrozenMagic, sizeof(kFrozenMagic)) != 0) {
    return Status::InvalidArgument("'" + path +
                                   "' is not a frozen shard file");
  }
  if (header.reserved0 != 0) {
    return Status::InvalidArgument("unsupported frozen shard flags in '" +
                                   path + "'");
  }
  // The recorded size must match the bytes actually present: a truncated
  // (or appended-to) file fails here before any offset is trusted.
  if (header.file_size != size) {
    return Status::InvalidArgument("frozen shard file '" + path +
                                   "' size mismatch (truncated?)");
  }
  if (header.num_shards < 1 || header.num_shards > kMaxFileShards ||
      header.section_count != 4 * header.num_shards) {
    return Status::InvalidArgument("corrupt shard count in '" + path + "'");
  }
  if (header.param_offset != kHeaderSize ||
      header.param_size > size - kHeaderSize ||
      header.table_offset % kSectionAlign != 0 ||
      header.table_offset < kHeaderSize + header.param_size ||
      header.table_offset > size ||
      uint64_t{kShardEntrySize} * header.num_shards >
          size - header.table_offset) {
    return Status::InvalidArgument("corrupt section table in '" + path +
                                   "'");
  }

  std::vector<ShardInfo> entries(header.num_shards);
  std::memcpy(entries.data(), base + header.table_offset,
              entries.size() * kShardEntrySize);

  Checksum64 meta;
  meta.Update(base, kChecksummedHeaderBytes);
  meta.Update(base + header.param_offset, header.param_size);
  meta.Update(entries.data(), entries.size() * kShardEntrySize);
  if (meta.digest() != header.meta_checksum) {
    return Status::InvalidArgument("frozen shard metadata checksum "
                                   "mismatch in '" +
                                   path + "'");
  }

  // Parse the parameter block; it must be consumed exactly.
  std::istringstream param_stream(
      std::string(reinterpret_cast<const char*>(base + header.param_offset),
                  header.param_size),
      std::ios::binary);
  Status params = io::ReadParams(param_stream, &file->params_);
  if (!params.ok()) {
    return Status::InvalidArgument(params.message() + " in '" + path + "'");
  }
  if (static_cast<uint64_t>(param_stream.tellg()) != header.param_size) {
    return Status::InvalidArgument("parameter block size mismatch in '" +
                                   path + "'");
  }
  file->fingerprint_ = header.fingerprint;

  file->shards_ = std::move(entries);
  for (int s = 0; s < file->num_shards(); ++s) {
    const ShardInfo& e = file->shards_[static_cast<size_t>(s)];
    if (e.keys_count > std::numeric_limits<uint32_t>::max() ||
        e.ids_count > std::numeric_limits<uint32_t>::max() ||
        (e.ids_count == 0 && e.max_id != 0) ||
        e.max_id > std::numeric_limits<VectorId>::max()) {
      return Status::InvalidArgument("corrupt shard entry in '" + path +
                                     "'");
    }
    if (!SectionInBounds(e.keys_offset, e.keys_count, sizeof(uint64_t),
                         size) ||
        !SectionInBounds(e.offsets_offset, e.keys_count + 1,
                         sizeof(uint32_t), size) ||
        !SectionInBounds(e.ids_offset, e.ids_count, sizeof(VectorId),
                         size) ||
        !SectionInBounds(e.directory_offset, KeyDirectorySize(e.keys_count),
                         sizeof(uint32_t), size)) {
      return Status::InvalidArgument("shard section out of bounds in '" +
                                     path + "'");
    }
    // Adopting the view checks the brackets of the offsets and of the
    // directory in O(1); their interiors are covered by the payload
    // checksum.
    Result<FilterTable> view = file->MakeShardView(s);
    Status payload = view.status();
    if (payload.ok() && options.verify_payload) {
      const std::span<const VectorId> ids = view->ids_span();
      if (PayloadChecksum(*view) != e.payload_checksum) {
        payload = Status::InvalidArgument("payload checksum mismatch");
      } else if (std::any_of(ids.begin(), ids.end(),
                             [&](VectorId id) { return id > e.max_id; })) {
        payload = Status::InvalidArgument("posting id exceeds recorded max");
      } else {
        payload = view->Validate();
      }
    }
    if (!payload.ok()) {
      return Status::InvalidArgument("shard " + std::to_string(s) + ": " +
                                     payload.message() + " in '" + path +
                                     "'");
    }
  }
  return std::shared_ptr<const FrozenShardFile>(std::move(file));
}

Result<FilterTable> FrozenShardFile::MakeShardView(int s) const {
  if (s < 0 || s >= num_shards()) {
    return Status::InvalidArgument("shard index out of range");
  }
  const ShardInfo& e = shards_[static_cast<size_t>(s)];
  const uint8_t* base = file_.data();
  FilterTable table;
  Status adopted = table.AdoptFrozenView(
      shared_from_this(),
      {reinterpret_cast<const uint64_t*>(base + e.keys_offset),
       static_cast<size_t>(e.keys_count)},
      {reinterpret_cast<const uint32_t*>(base + e.offsets_offset),
       static_cast<size_t>(e.keys_count + 1)},
      {reinterpret_cast<const VectorId*>(base + e.ids_offset),
       static_cast<size_t>(e.ids_count)},
      {reinterpret_cast<const uint32_t*>(base + e.directory_offset),
       static_cast<size_t>(KeyDirectorySize(e.keys_count))});
  if (!adopted.ok()) return adopted;
  return table;
}

}  // namespace skewsearch
