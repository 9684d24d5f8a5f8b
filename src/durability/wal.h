// Copyright 2026 The skewsearch Authors.
// SKW1 write-ahead log: the durability primitive of the online index.
//
// A WAL file is a fixed 8-byte header followed by length-prefixed,
// individually checksummed mutation records (one per acknowledged
// Insert/Remove). The format is deliberately dumb — append-only,
// byte-order fixed, no compression — because its one job is to make
// the *torn tail* after a crash unambiguous: a reader walks records
// front to back and stops at the first one whose length prefix or
// FNV-1a checksum does not hold, and everything before that point is
// exactly the prefix of mutations the writer acknowledged durable.
// docs/FILE_FORMATS.md holds the normative layout; wal_internal below
// mirrors it field for field.
//
// Durability policy is a seam, not a constant: WalWriter::Append makes
// the record *durable before returning* under SyncPolicy::kAlways and
// kGroupCommit (concurrent committers share one fsync via a
// leader/follower protocol), lazily under kInterval (piggybacked
// time-based syncs), and not at all under kNone (the OS decides).
// The byte sink the writer appends through is itself a seam (WalSink):
// production uses a POSIX fd + fsync; tests substitute FaultFile
// (durability/fault_file.h) to materialize deterministic crash images
// with any suffix of unsynced writes dropped, shortened or corrupted.

#ifndef SKEWSEARCH_DURABILITY_WAL_H_
#define SKEWSEARCH_DURABILITY_WAL_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/dataset.h"
#include "util/result.h"
#include "util/status.h"

namespace skewsearch {

/// \brief When an acknowledged append is made durable (fsync'd).
enum class SyncPolicy {
  kNone = 0,      ///< never fsync; the OS writes back when it pleases
  kInterval = 1,  ///< fsync at most every interval_ms, piggybacked on appends
  kGroup = 2,     ///< fsync before ack; concurrent committers share one fsync
  kAlways = 3,    ///< one fsync per acknowledged append, no sharing
};

/// Parses "none" / "interval" / "group" / "always" (CLI surface).
Result<SyncPolicy> ParseSyncPolicy(std::string_view name);

/// The canonical spelling ParseSyncPolicy accepts.
std::string_view SyncPolicyName(SyncPolicy policy);

/// \brief One decoded WAL record: a single acknowledged mutation.
struct WalRecord {
  /// Record kinds (the `type` byte of the on-disk header).
  enum class Type : uint8_t {
    kInsert = 1,  ///< payload: id + item list
    kRemove = 2,  ///< payload: id
  };

  Type type = Type::kInsert;
  /// Commit sequence number; consecutive within a file.
  uint64_t seq = 0;
  /// The mutated vector id.
  VectorId id = 0;
  /// Inserted items (empty for kRemove).
  std::vector<ItemId> items;
};

/// \brief Byte sink the WAL writes through (the fault-injection seam).
///
/// Append() buffers or writes bytes; Sync() is the durability barrier:
/// after it returns OK, every byte appended before the call must
/// survive a crash. Implementations must be thread-safe (appends are
/// serialized by WalWriter, but Sync may race Append).
class WalSink {
 public:
  virtual ~WalSink() = default;

  /// Appends \p size bytes at the current end.
  virtual Status Append(const void* data, size_t size) = 0;

  /// Durability barrier for every previously appended byte.
  virtual Status Sync() = 0;
};

/// Opens \p path for appending (created if absent) as a POSIX-fd sink
/// whose Sync() is fsync(2).
Result<std::unique_ptr<WalSink>> OpenFileSink(const std::string& path);

/// \brief Writer-side policy knobs.
struct WalWriterOptions {
  SyncPolicy sync_policy = SyncPolicy::kGroup;
  /// kInterval only: maximum staleness between piggybacked fsyncs.
  int interval_ms = 5;
};

/// \brief Outcome of decoding a WAL file: the valid record prefix plus
/// where (and why) decoding stopped.
struct WalReadResult {
  /// Records of the valid prefix, in commit order.
  std::vector<WalRecord> records;
  /// Bytes of the valid prefix (file header + intact records). A file
  /// may deterministically be truncated to this length to drop a torn
  /// tail.
  uint64_t valid_bytes = 0;
  /// One past the last valid record's seq (1 for an empty log).
  uint64_t next_seq = 1;
  /// True when bytes beyond valid_bytes exist but do not form an
  /// intact record (torn tail or corruption).
  bool truncated = false;
  /// Human-readable reason decoding stopped early (empty when clean).
  std::string truncate_reason;
};

/// Decodes an in-memory SKW1 image. Fails loudly (IOError) only when
/// the 8-byte file header itself is present-but-wrong (not a WAL); a
/// short header or any record-level damage is the torn-tail case and
/// reports a truncated valid prefix instead.
Result<WalReadResult> DecodeWal(std::span<const char> bytes);

/// Reads and decodes \p path (NotFound when the file does not exist).
Result<WalReadResult> ReadWal(const std::string& path);

/// \brief Appends SKW1 records with a configurable durability policy.
///
/// Thread-safe: any number of threads may Append concurrently; records
/// are assigned consecutive seqs in append order. A failed sink append
/// poisons the writer (the file may now end mid-record, so further
/// appends would be unrecoverable noise behind the tear). Create via
/// Open (POSIX file) or OpenWithSink (tests).
class WalWriter {
 public:
  /// Opens \p path for appending. The caller is responsible for having
  /// truncated any torn tail first (see ReadWal / recovery.h); \p
  /// existing_bytes is the current file size (0 writes a fresh header)
  /// and \p next_seq the seq the next record gets.
  static Result<std::unique_ptr<WalWriter>> Open(
      const std::string& path, const WalWriterOptions& options,
      uint64_t existing_bytes, uint64_t next_seq);

  /// Wraps an arbitrary sink (fault injection). When \p write_header is
  /// true an 8-byte SKW1 header is appended first. Truncate() is
  /// unavailable on sink-backed writers.
  static Result<std::unique_ptr<WalWriter>> OpenWithSink(
      std::unique_ptr<WalSink> sink, const WalWriterOptions& options,
      uint64_t next_seq, bool write_header);

  /// Appends one record and applies the sync policy; after an OK return
  /// under kAlways/kGroup the record is durable. Returns the assigned
  /// seq. \p items must be empty for kRemove.
  Result<uint64_t> Append(WalRecord::Type type, VectorId id,
                          std::span<const ItemId> items);

  /// Forces durability of every record appended so far (used on close
  /// and before checkpoint renames), regardless of policy.
  Status Sync();

  /// Rewrites the log keeping only records with seq > \p cut_seq
  /// (checkpoint truncation): the retained suffix goes to a temp file
  /// that is fsync'd and atomically renamed over the log. Blocks
  /// appends for the duration; the surviving records are durable when
  /// this returns. Path-backed writers only (NotSupported otherwise).
  Status Truncate(uint64_t cut_seq);

  /// \name Introspection (tests, checkpoint policy, stats lines).
  /// @{
  uint64_t next_seq() const {
    return next_seq_.load(std::memory_order_acquire);
  }
  uint64_t last_appended_seq() const {
    return last_appended_seq_.load(std::memory_order_acquire);
  }
  uint64_t last_synced_seq() const {
    return last_synced_seq_.load(std::memory_order_acquire);
  }
  /// Current log size in bytes (header included).
  uint64_t bytes() const { return bytes_.load(std::memory_order_acquire); }
  uint64_t num_appends() const {
    return appends_.load(std::memory_order_relaxed);
  }
  uint64_t num_fsyncs() const {
    return fsyncs_.load(std::memory_order_relaxed);
  }
  uint64_t num_truncations() const {
    return truncations_.load(std::memory_order_relaxed);
  }
  const WalWriterOptions& options() const { return options_; }
  /// @}

 private:
  WalWriter(std::unique_ptr<WalSink> sink, std::string path,
            const WalWriterOptions& options, uint64_t next_seq,
            uint64_t existing_bytes);

  /// The construction path Open and OpenWithSink share: wraps \p sink,
  /// whose log holds \p existing_bytes, and appends the file header
  /// first when \p write_header is set.
  static Result<std::unique_ptr<WalWriter>> Start(
      std::unique_ptr<WalSink> sink, std::string path,
      const WalWriterOptions& options, uint64_t next_seq,
      uint64_t existing_bytes, bool write_header);

  /// Leader/follower shared fsync: returns once every record with
  /// seq <= \p seq is durable. \p strict forces a dedicated fsync even
  /// when a concurrent one already covered seq (the kAlways contract).
  Status SyncUpTo(uint64_t seq, bool strict);

  std::unique_ptr<WalSink> sink_;
  const std::string path_;  // empty for sink-backed writers
  const WalWriterOptions options_;

  std::mutex append_mutex_;  // serializes record encoding + sink appends
  bool poisoned_ = false;    // guarded by append_mutex_
  std::string scratch_;      // guarded by append_mutex_

  std::mutex sync_mutex_;  // guards the group-commit protocol below
  std::condition_variable sync_cv_;
  bool sync_in_progress_ = false;
  std::chrono::steady_clock::time_point last_sync_time_;  // kInterval

  std::atomic<uint64_t> next_seq_;
  std::atomic<uint64_t> last_appended_seq_;
  std::atomic<uint64_t> last_synced_seq_;
  std::atomic<uint64_t> bytes_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<uint64_t> truncations_{0};
};

namespace wal_internal {

/// Normative SKW1 constants (docs/FILE_FORMATS.md).
inline constexpr char kWalMagic[4] = {'S', 'K', 'W', '1'};
inline constexpr size_t kFileHeaderSize = 8;   // magic + u32 reserved
inline constexpr size_t kRecordHeaderSize = 24;  // type+pad+len+seq+crc
/// Decode-side allocation bound: a length prefix past this is treated
/// as corruption, not a request for memory.
inline constexpr uint32_t kMaxPayloadSize = 64u << 20;

/// Serializes one record (header + payload) onto \p out.
void EncodeRecord(WalRecord::Type type, uint64_t seq, VectorId id,
                  std::span<const ItemId> items, std::string* out);

/// fsync(2) of \p path (a file or a directory — the latter pins a
/// rename into the directory entry).
Status FsyncPath(const std::string& path);

}  // namespace wal_internal

}  // namespace skewsearch

#endif  // SKEWSEARCH_DURABILITY_WAL_H_
