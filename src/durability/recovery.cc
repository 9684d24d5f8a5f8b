// Copyright 2026 The skewsearch Authors.

#include "durability/recovery.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <system_error>
#include <utility>

#include "obs/metrics.h"
#include "util/timer.h"

namespace skewsearch {

Status WalJournal::LogInsert(VectorId id, std::span<const ItemId> items) {
  return wal_->Append(WalRecord::Type::kInsert, id, items).status();
}

Status WalJournal::LogRemove(VectorId id) {
  return wal_->Append(WalRecord::Type::kRemove, id, {}).status();
}

Status ReplayWal(std::span<const WalRecord> records, DynamicIndex* index,
                 RecoveryStats* stats) {
  static obs::Counter* const replayed_metric =
      obs::MetricsRegistry::Global().GetCounter("recovery.replayed");
  static obs::Histogram* const replay_ns_metric =
      obs::MetricsRegistry::Global().GetHistogram("recovery.replay_ns");
  Timer timer;
  Status status = Status::OK();
  for (const WalRecord& record : records) {
    Result<bool> applied =
        record.type == WalRecord::Type::kInsert
            ? index->ReplayInsert(record.id, record.items)
            : index->ReplayRemove(record.id);
    if (!applied.ok()) {
      status = applied.status();
      break;
    }
    if (stats != nullptr) {
      if (*applied) {
        ++stats->replayed;
      } else {
        ++stats->skipped;
      }
    }
    if (*applied) replayed_metric->Increment();
  }
  replay_ns_metric->Record(static_cast<uint64_t>(timer.ElapsedNanos()));
  return status;
}

std::string DurableIndex::SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.skd";
}

std::string DurableIndex::WalPath(const std::string& dir) {
  return dir + "/wal.skw";
}

DurableIndex::~DurableIndex() { Close().ok(); }

Status DurableIndex::Open(const Dataset* data,
                          const ProductDistribution* dist,
                          const DynamicIndexOptions& index_options,
                          const DurableOptions& durable,
                          RecoveryStats* stats) {
  static obs::Counter* const truncations_metric =
      obs::MetricsRegistry::Global().GetCounter("recovery.truncated");
  static obs::Counter* const truncated_bytes_metric =
      obs::MetricsRegistry::Global().GetCounter("recovery.truncated_bytes");
  if (wal_ != nullptr) {
    return Status::InvalidArgument("durable index already open");
  }
  if (durable.dir.empty()) {
    return Status::InvalidArgument("durable dir must be non-empty");
  }
  options_ = durable;
  std::error_code ec;
  std::filesystem::create_directories(durable.dir, ec);
  if (ec) {
    return Status::IOError("cannot create '" + durable.dir +
                           "': " + ec.message());
  }

  const std::string snapshot_path = SnapshotPath(durable.dir);
  const std::string wal_path = WalPath(durable.dir);

  const bool have_snapshot = std::filesystem::exists(snapshot_path);
  if (have_snapshot) {
    SKEWSEARCH_RETURN_NOT_OK(index_.Load(snapshot_path, data, dist));
  } else {
    SKEWSEARCH_RETURN_NOT_OK(index_.Build(data, dist, index_options));
  }
  if (stats != nullptr) stats->snapshot_loaded = have_snapshot;

  // Decode the log; a missing file is simply a fresh one.
  uint64_t existing_bytes = 0;
  uint64_t next_seq = 1;
  Result<WalReadResult> log = ReadWal(wal_path);
  if (log.ok()) {
    if (log->truncated) {
      // Deterministic truncation: physically drop the torn tail so the
      // reopened writer appends after the last intact record and every
      // future recovery of these files decodes identically.
      const uint64_t file_size = std::filesystem::file_size(wal_path, ec);
      const uint64_t dropped =
          ec ? 0 : file_size - std::min<uint64_t>(file_size, log->valid_bytes);
      if (::truncate(wal_path.c_str(), static_cast<off_t>(log->valid_bytes)) !=
          0) {
        return Status::IOError("cannot truncate torn wal tail of '" +
                               wal_path + "'");
      }
      SKEWSEARCH_RETURN_NOT_OK(wal_internal::FsyncPath(wal_path));
      truncations_metric->Increment();
      truncated_bytes_metric->Increment(dropped);
      if (stats != nullptr) {
        stats->truncated = true;
        stats->truncated_bytes = dropped;
        stats->truncate_reason = log->truncate_reason;
      }
    }
    SKEWSEARCH_RETURN_NOT_OK(ReplayWal(log->records, &index_, stats));
    existing_bytes = log->valid_bytes;
    next_seq = log->next_seq;
  } else if (log.status().code() != Status::Code::kNotFound) {
    return log.status();
  }
  if (stats != nullptr) stats->next_seq = next_seq;

  WalWriterOptions writer_options;
  writer_options.sync_policy = durable.sync_policy;
  Result<std::unique_ptr<WalWriter>> writer =
      WalWriter::Open(wal_path, writer_options, existing_bytes, next_seq);
  SKEWSEARCH_RETURN_NOT_OK(writer.status());
  wal_ = std::move(writer).value();
  journal_ = std::make_unique<WalJournal>(wal_.get());
  index_.SetMutationJournal(journal_.get());
  return Status::OK();
}

bool DurableIndex::CheckpointDue() {
  if (wal_ == nullptr) return false;
  const uint64_t payload =
      wal_->bytes() -
      std::min<uint64_t>(wal_->bytes(), wal_internal::kFileHeaderSize);
  if (payload == 0) return false;  // nothing to fold in
  return options_.checkpoint_bytes > 0 &&
         wal_->bytes() >= options_.checkpoint_bytes;
}

Status DurableIndex::Checkpoint() {
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  if (wal_ == nullptr) {
    return Status::InvalidArgument("durable index not open");
  }
  // The cut is read *before* Save pins its snapshot: every record with
  // seq <= cut was applied before the pin, hence is inside the
  // snapshot; records the snapshot additionally absorbed but that were
  // logged after the cut stay in the retained suffix and are skipped by
  // idempotent replay (see ReplayInsert/ReplayRemove).
  const uint64_t cut = wal_->last_appended_seq();

  const std::string snapshot_path = SnapshotPath(options_.dir);
  const std::string tmp = snapshot_path + ".tmp";
  SKEWSEARCH_RETURN_NOT_OK(index_.Save(tmp));
  SKEWSEARCH_RETURN_NOT_OK(wal_internal::FsyncPath(tmp));
  if (::rename(tmp.c_str(), snapshot_path.c_str()) != 0) {
    return Status::IOError("rename '" + tmp + "' -> '" + snapshot_path +
                           "' failed");
  }
  SKEWSEARCH_RETURN_NOT_OK(wal_internal::FsyncPath(options_.dir));
  // A crash here leaves the new snapshot with the untruncated log —
  // safe, because replay against it is idempotent.
  SKEWSEARCH_RETURN_NOT_OK(wal_->Truncate(cut));
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DurableIndex::Close() {
  std::lock_guard<std::mutex> lock(checkpoint_mutex_);
  if (wal_ == nullptr) return Status::OK();
  index_.SetMutationJournal(nullptr);
  Status synced = wal_->Sync();
  wal_.reset();
  journal_.reset();
  return synced;
}

}  // namespace skewsearch
