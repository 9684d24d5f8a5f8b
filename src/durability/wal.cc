// Copyright 2026 The skewsearch Authors.

#include "durability/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "core/frozen_shard.h"  // frozen_internal::Checksum64 (shared FNV-1a)
#include "obs/metrics.h"

namespace skewsearch {
namespace {

using wal_internal::kFileHeaderSize;
using wal_internal::kMaxPayloadSize;
using wal_internal::kRecordHeaderSize;
using wal_internal::kWalMagic;

template <typename T>
void AppendPod(const T& value, std::string* out) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// The 8-byte SKW1 file header: the magic, then a reserved u32 of zeros.
std::string FileHeader() {
  std::string header(kWalMagic, sizeof(kWalMagic));
  header.append(sizeof(uint32_t), '\0');
  return header;
}

template <typename T>
T LoadPod(const char* bytes) {
  T value;
  std::memcpy(&value, bytes, sizeof(T));
  return value;
}

/// Production sink: POSIX fd opened for appending, fsync as the
/// barrier.
class PosixFileSink : public WalSink {
 public:
  explicit PosixFileSink(int fd) : fd_(fd) {}
  ~PosixFileSink() override {
    if (fd_ >= 0) ::close(fd_);
  }

  Status Append(const void* data, size_t size) override {
    const char* p = static_cast<const char*>(data);
    while (size > 0) {
      ssize_t n = ::write(fd_, p, size);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError(std::string("wal append: write failed: ") +
                               std::strerror(errno));
      }
      p += n;
      size -= static_cast<size_t>(n);
    }
    return Status::OK();
  }

  Status Sync() override {
    if (::fsync(fd_) != 0) {
      return Status::IOError(std::string("wal fsync failed: ") +
                             std::strerror(errno));
    }
    return Status::OK();
  }

 private:
  int fd_;
};

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  if (in.bad()) return Status::IOError("read failed for '" + path + "'");
  return Status::OK();
}

uint64_t RecordChecksum(const char* header16, std::span<const char> payload) {
  frozen_internal::Checksum64 crc;
  crc.Update(header16, kRecordHeaderSize - sizeof(uint64_t));
  crc.Update(payload.data(), payload.size());
  return crc.digest();
}

}  // namespace

Result<SyncPolicy> ParseSyncPolicy(std::string_view name) {
  if (name == "none") return SyncPolicy::kNone;
  if (name == "interval") return SyncPolicy::kInterval;
  if (name == "group") return SyncPolicy::kGroup;
  if (name == "always") return SyncPolicy::kAlways;
  return Status::InvalidArgument(
      "unknown sync policy '" + std::string(name) +
      "' (expected none|interval|group|always)");
}

std::string_view SyncPolicyName(SyncPolicy policy) {
  switch (policy) {
    case SyncPolicy::kNone:
      return "none";
    case SyncPolicy::kInterval:
      return "interval";
    case SyncPolicy::kGroup:
      return "group";
    case SyncPolicy::kAlways:
      return "always";
  }
  return "unknown";
}

Result<std::unique_ptr<WalSink>> OpenFileSink(const std::string& path) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError("cannot open wal '" + path +
                           "': " + std::strerror(errno));
  }
  return std::unique_ptr<WalSink>(new PosixFileSink(fd));
}

namespace wal_internal {

void EncodeRecord(WalRecord::Type type, uint64_t seq, VectorId id,
                  std::span<const ItemId> items, std::string* out) {
  std::string payload;
  payload.reserve(sizeof(VectorId) +
                  (type == WalRecord::Type::kInsert
                       ? sizeof(uint32_t) + items.size() * sizeof(ItemId)
                       : 0));
  AppendPod(id, &payload);
  if (type == WalRecord::Type::kInsert) {
    AppendPod(static_cast<uint32_t>(items.size()), &payload);
    if (!items.empty()) {
      payload.append(reinterpret_cast<const char*>(items.data()),
                     items.size() * sizeof(ItemId));
    }
  }

  char header[kRecordHeaderSize - sizeof(uint64_t)] = {};
  header[0] = static_cast<char>(type);
  const uint32_t payload_size = static_cast<uint32_t>(payload.size());
  std::memcpy(header + 4, &payload_size, sizeof(uint32_t));
  std::memcpy(header + 8, &seq, sizeof(uint64_t));
  const uint64_t crc = RecordChecksum(header, payload);

  out->append(header, sizeof(header));
  AppendPod(crc, out);
  out->append(payload);
}

Status FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  Status status;
  if (::fsync(fd) != 0) {
    status = Status::IOError("fsync of '" + path +
                             "' failed: " + std::strerror(errno));
  }
  ::close(fd);
  return status;
}

}  // namespace wal_internal

Result<WalReadResult> DecodeWal(std::span<const char> bytes) {
  WalReadResult result;
  if (bytes.empty()) return result;  // a fresh (never-written) log
  if (bytes.size() < kFileHeaderSize) {
    // The header itself was torn: nothing valid, truncate to zero.
    result.truncated = true;
    result.truncate_reason = "torn file header";
    return result;
  }
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::IOError("not a SKW1 write-ahead log (bad magic)");
  }
  if (LoadPod<uint32_t>(bytes.data() + 4) != 0) {
    return Status::IOError("SKW1 header reserved field is nonzero");
  }
  result.valid_bytes = kFileHeaderSize;

  size_t pos = kFileHeaderSize;
  auto stop = [&](const char* reason) -> Result<WalReadResult> {
    result.truncated = true;
    result.truncate_reason = reason;
    result.next_seq =
        result.records.empty() ? 1 : result.records.back().seq + 1;
    return result;
  };
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kRecordHeaderSize) {
      return stop("torn record header");
    }
    const char* header = bytes.data() + pos;
    const uint8_t type_byte = static_cast<uint8_t>(header[0]);
    if (type_byte != static_cast<uint8_t>(WalRecord::Type::kInsert) &&
        type_byte != static_cast<uint8_t>(WalRecord::Type::kRemove)) {
      return stop("unknown record type");
    }
    if (header[1] != 0 || header[2] != 0 || header[3] != 0) {
      return stop("nonzero record padding");
    }
    const uint32_t payload_size = LoadPod<uint32_t>(header + 4);
    if (payload_size > kMaxPayloadSize) {
      return stop("payload length past the decode bound");
    }
    const uint64_t seq = LoadPod<uint64_t>(header + 8);
    const uint64_t crc = LoadPod<uint64_t>(header + 16);
    if (bytes.size() - pos - kRecordHeaderSize < payload_size) {
      return stop("torn record payload");
    }
    std::span<const char> payload(header + kRecordHeaderSize, payload_size);
    if (RecordChecksum(header, payload) != crc) {
      return stop("record checksum mismatch");
    }
    // Seqs are assigned consecutively by the writer and rotation keeps
    // a contiguous suffix, so any gap or regression is damage.
    if (!result.records.empty() &&
        seq != result.records.back().seq + 1) {
      return stop("non-consecutive record seq");
    }
    if (seq == 0) return stop("record seq zero");

    WalRecord record;
    record.type = static_cast<WalRecord::Type>(type_byte);
    record.seq = seq;
    if (record.type == WalRecord::Type::kInsert) {
      if (payload_size < sizeof(VectorId) + sizeof(uint32_t)) {
        return stop("insert payload too short");
      }
      record.id = LoadPod<VectorId>(payload.data());
      const uint32_t count = LoadPod<uint32_t>(payload.data() + 4);
      if (payload_size !=
          sizeof(VectorId) + sizeof(uint32_t) + count * sizeof(ItemId)) {
        return stop("insert item count disagrees with payload length");
      }
      record.items.resize(count);
      std::memcpy(record.items.data(), payload.data() + 8,
                  count * sizeof(ItemId));
    } else {
      if (payload_size != sizeof(VectorId)) {
        return stop("remove payload length mismatch");
      }
      record.id = LoadPod<VectorId>(payload.data());
    }
    result.records.push_back(std::move(record));
    pos += kRecordHeaderSize + payload_size;
    result.valid_bytes = pos;
  }
  result.next_seq =
      result.records.empty() ? 1 : result.records.back().seq + 1;
  return result;
}

Result<WalReadResult> ReadWal(const std::string& path) {
  std::string bytes;
  SKEWSEARCH_RETURN_NOT_OK(ReadFileBytes(path, &bytes));
  return DecodeWal(bytes);
}

WalWriter::WalWriter(std::unique_ptr<WalSink> sink, std::string path,
                     const WalWriterOptions& options, uint64_t next_seq,
                     uint64_t existing_bytes)
    : sink_(std::move(sink)),
      path_(std::move(path)),
      options_(options),
      last_sync_time_(std::chrono::steady_clock::now()),
      next_seq_(next_seq),
      last_appended_seq_(next_seq > 0 ? next_seq - 1 : 0),
      last_synced_seq_(next_seq > 0 ? next_seq - 1 : 0),
      bytes_(existing_bytes) {}

Result<std::unique_ptr<WalWriter>> WalWriter::Open(
    const std::string& path, const WalWriterOptions& options,
    uint64_t existing_bytes, uint64_t next_seq) {
  if (next_seq == 0) {
    return Status::InvalidArgument("wal seqs start at 1");
  }
  Result<std::unique_ptr<WalSink>> sink = OpenFileSink(path);
  SKEWSEARCH_RETURN_NOT_OK(sink.status());
  return Start(std::move(sink).value(), path, options, next_seq,
               existing_bytes, /*write_header=*/existing_bytes == 0);
}

Result<std::unique_ptr<WalWriter>> WalWriter::OpenWithSink(
    std::unique_ptr<WalSink> sink, const WalWriterOptions& options,
    uint64_t next_seq, bool write_header) {
  if (next_seq == 0) {
    return Status::InvalidArgument("wal seqs start at 1");
  }
  return Start(std::move(sink), std::string(), options, next_seq,
               /*existing_bytes=*/0, write_header);
}

Result<std::unique_ptr<WalWriter>> WalWriter::Start(
    std::unique_ptr<WalSink> sink, std::string path,
    const WalWriterOptions& options, uint64_t next_seq,
    uint64_t existing_bytes, bool write_header) {
  auto writer = std::unique_ptr<WalWriter>(new WalWriter(
      std::move(sink), std::move(path), options, next_seq, existing_bytes));
  if (write_header) {
    const std::string header = FileHeader();
    SKEWSEARCH_RETURN_NOT_OK(writer->sink_->Append(header.data(),
                                                   header.size()));
    writer->bytes_.store(kFileHeaderSize, std::memory_order_release);
  }
  return writer;
}

Result<uint64_t> WalWriter::Append(WalRecord::Type type, VectorId id,
                                   std::span<const ItemId> items) {
  static obs::Counter* const appends_metric =
      obs::MetricsRegistry::Global().GetCounter("wal.appends");
  static obs::Counter* const bytes_metric =
      obs::MetricsRegistry::Global().GetCounter("wal.bytes");
  if (type == WalRecord::Type::kRemove && !items.empty()) {
    return Status::InvalidArgument("remove records carry no items");
  }
  uint64_t seq = 0;
  size_t encoded = 0;
  {
    std::lock_guard<std::mutex> lock(append_mutex_);
    if (poisoned_) {
      return Status::IOError(
          "wal writer poisoned by an earlier append failure");
    }
    seq = next_seq_.load(std::memory_order_relaxed);
    if (seq == std::numeric_limits<uint64_t>::max()) {
      return Status::Internal("wal seq space exhausted");
    }
    scratch_.clear();
    wal_internal::EncodeRecord(type, seq, id, items, &scratch_);
    Status appended = sink_->Append(scratch_.data(), scratch_.size());
    if (!appended.ok()) {
      // The file may now end mid-record; anything appended after the
      // tear would be unreachable to recovery, so refuse to continue.
      poisoned_ = true;
      return appended;
    }
    encoded = scratch_.size();
    next_seq_.store(seq + 1, std::memory_order_release);
    bytes_.fetch_add(encoded, std::memory_order_acq_rel);
    appends_.fetch_add(1, std::memory_order_relaxed);
    last_appended_seq_.store(seq, std::memory_order_release);
  }
  appends_metric->Increment();
  bytes_metric->Increment(encoded);

  switch (options_.sync_policy) {
    case SyncPolicy::kNone:
      break;
    case SyncPolicy::kAlways:
      SKEWSEARCH_RETURN_NOT_OK(SyncUpTo(seq, /*strict=*/true));
      break;
    case SyncPolicy::kGroup:
      SKEWSEARCH_RETURN_NOT_OK(SyncUpTo(seq, /*strict=*/false));
      break;
    case SyncPolicy::kInterval: {
      bool due = false;
      {
        std::lock_guard<std::mutex> lock(sync_mutex_);
        due = std::chrono::steady_clock::now() - last_sync_time_ >=
              std::chrono::milliseconds(options_.interval_ms);
      }
      if (due) SKEWSEARCH_RETURN_NOT_OK(SyncUpTo(seq, /*strict=*/false));
      break;
    }
  }
  return seq;
}

Status WalWriter::Sync() {
  const uint64_t target = last_appended_seq_.load(std::memory_order_acquire);
  return SyncUpTo(target, /*strict=*/false);
}

Status WalWriter::SyncUpTo(uint64_t seq, bool strict) {
  static obs::Counter* const fsyncs_metric =
      obs::MetricsRegistry::Global().GetCounter("wal.fsyncs");
  static obs::Histogram* const fsync_ns_metric =
      obs::MetricsRegistry::Global().GetHistogram("wal.fsync_ns");
  std::unique_lock<std::mutex> lock(sync_mutex_);
  while (true) {
    if (!strict && last_synced_seq_.load(std::memory_order_relaxed) >= seq) {
      return Status::OK();  // a concurrent leader's fsync covered us
    }
    if (!sync_in_progress_) break;
    sync_cv_.wait(lock);
  }
  sync_in_progress_ = true;
  // Every byte appended before this load was written before the fsync
  // below starts, so the barrier covers through `target`.
  const uint64_t target = last_appended_seq_.load(std::memory_order_acquire);
  lock.unlock();
  const auto sync_start = std::chrono::steady_clock::now();
  Status synced = sink_->Sync();
  const auto sync_end = std::chrono::steady_clock::now();
  lock.lock();
  sync_in_progress_ = false;
  if (synced.ok()) {
    fsyncs_.fetch_add(1, std::memory_order_relaxed);
    fsyncs_metric->Increment();
    fsync_ns_metric->Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(sync_end -
                                                             sync_start)
            .count()));
    last_sync_time_ = sync_end;
    if (target > last_synced_seq_.load(std::memory_order_relaxed)) {
      last_synced_seq_.store(target, std::memory_order_release);
    }
  }
  sync_cv_.notify_all();
  return synced;
}

Status WalWriter::Truncate(uint64_t cut_seq) {
  if (path_.empty()) {
    return Status::NotSupported("truncate requires a path-backed wal");
  }
  std::lock_guard<std::mutex> append_lock(append_mutex_);
  if (poisoned_) {
    return Status::IOError("wal writer poisoned by an earlier append failure");
  }
  std::unique_lock<std::mutex> sync_lock(sync_mutex_);
  sync_cv_.wait(sync_lock, [&] { return !sync_in_progress_; });
  // Exclusive now: appends hold append_mutex_, fsyncs hold the
  // sync_in_progress_ token, and both are excluded for the duration.

  std::string bytes;
  SKEWSEARCH_RETURN_NOT_OK(ReadFileBytes(path_, &bytes));
  Result<WalReadResult> decoded = DecodeWal(bytes);
  SKEWSEARCH_RETURN_NOT_OK(decoded.status());
  if (decoded->truncated) {
    return Status::Internal("live wal decodes with a torn tail: " +
                            decoded->truncate_reason);
  }

  std::string fresh = FileHeader();
  for (const WalRecord& record : decoded->records) {
    if (record.seq <= cut_seq) continue;
    wal_internal::EncodeRecord(record.type, record.seq, record.id,
                               record.items, &fresh);
  }

  const std::string tmp = path_ + ".tmp";
  {
    int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                    0644);
    if (fd < 0) {
      return Status::IOError("cannot open '" + tmp +
                             "': " + std::strerror(errno));
    }
    PosixFileSink tmp_sink(fd);
    Status written = tmp_sink.Append(fresh.data(), fresh.size());
    if (written.ok()) written = tmp_sink.Sync();
    SKEWSEARCH_RETURN_NOT_OK(written);
  }
  if (::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::IOError("rename '" + tmp + "' -> '" + path_ +
                           "' failed: " + std::strerror(errno));
  }
  const size_t slash = path_.find_last_of('/');
  SKEWSEARCH_RETURN_NOT_OK(wal_internal::FsyncPath(
      slash == std::string::npos ? "." : path_.substr(0, slash)));

  Result<std::unique_ptr<WalSink>> sink = OpenFileSink(path_);
  SKEWSEARCH_RETURN_NOT_OK(sink.status());
  sink_ = std::move(sink).value();
  bytes_.store(fresh.size(), std::memory_order_release);
  // The rewritten file was fsync'd whole, so everything appended so far
  // is durable.
  last_synced_seq_.store(last_appended_seq_.load(std::memory_order_acquire),
                         std::memory_order_release);
  truncations_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace skewsearch
