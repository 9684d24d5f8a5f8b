// Copyright 2026 The skewsearch Authors.
// Recovery: snapshot (SKD2) + WAL tail = a restartable online index.
//
// A durable index directory holds two files: `snapshot.skd`, the last
// checkpoint written through DynamicIndex::Save's pinned-snapshot
// path, and `wal.skw`, the SKW1 log of every mutation acknowledged
// since. Opening the directory is deterministic recovery: load the
// snapshot (or Build fresh when none exists), read the log, truncate
// the torn tail at the first damaged record, and replay the intact
// records through DynamicIndex::ReplayInsert/ReplayRemove. Replay is
// idempotent against the snapshot — a record whose effect the
// checkpoint already captured is skipped — which is what makes the
// checkpoint itself safe to take while writers are running: the WAL
// cut is read *before* the snapshot is pinned, so every record at or
// below the cut is provably inside the snapshot, and the retained
// suffix can only re-deliver mutations the snapshot may already hold.
//
// Checkpoints (snapshot + log truncate) are driven by the maintenance
// thread: DurableIndex implements maintenance/service.h's
// CheckpointDriver, with due-ness decided by the log-size threshold
// in DurableOptions.

#ifndef SKEWSEARCH_DURABILITY_RECOVERY_H_
#define SKEWSEARCH_DURABILITY_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>

#include "core/dynamic_index.h"
#include "durability/wal.h"
#include "maintenance/service.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Durability policy of a DurableIndex.
struct DurableOptions {
  /// Directory holding snapshot.skd + wal.skw (created if absent).
  std::string dir;

  /// When an acknowledged mutation is fsync'd (see durability/wal.h;
  /// kInterval uses the WAL writer's default interval).
  SyncPolicy sync_policy = SyncPolicy::kGroup;

  /// Checkpoint once the log exceeds this many bytes (0 = never).
  uint64_t checkpoint_bytes = 8ull << 20;
};

/// \brief What recovery found and did while opening a directory.
struct RecoveryStats {
  bool snapshot_loaded = false;   ///< snapshot.skd existed and was loaded
  size_t replayed = 0;            ///< WAL records applied
  size_t skipped = 0;             ///< WAL records the snapshot already held
  bool truncated = false;         ///< the log had a torn/corrupt tail
  uint64_t truncated_bytes = 0;   ///< bytes dropped with that tail
  std::string truncate_reason;    ///< why decoding stopped (diagnostics)
  uint64_t next_seq = 1;          ///< first seq the reopened writer assigns
};

/// \brief MutationJournal that appends every acknowledged mutation to a
/// WalWriter (the production durability seam of DynamicIndex).
class WalJournal : public MutationJournal {
 public:
  /// Wraps \p wal (borrowed; must outlive the journal registration).
  explicit WalJournal(WalWriter* wal) : wal_(wal) {}

  Status LogInsert(VectorId id, std::span<const ItemId> items) override;
  Status LogRemove(VectorId id) override;

 private:
  WalWriter* wal_;
};

/// Replays decoded WAL \p records into \p index (which must not have a
/// journal attached), counting applied vs skipped records in \p stats
/// (may be null). A record that is semantically impossible against the
/// restored snapshot (an insert colliding with the base dataset, an
/// invalid item list) fails loudly: that is a snapshot/log mismatch,
/// not a torn tail. Each call records its duration, failed or not, as
/// one `recovery.replay_ns` sample.
Status ReplayWal(std::span<const WalRecord> records, DynamicIndex* index,
                 RecoveryStats* stats);

/// \brief A DynamicIndex whose acknowledged mutations survive crashes.
///
/// Open() performs recovery and attaches the WAL journal; from then on
/// every Insert/Remove on index() is durable per the sync policy
/// before it returns. Checkpoint() (usually via the maintenance
/// thread, see SetCheckpointDriver) bounds recovery time by folding
/// the log into a fresh snapshot. Close() detaches and syncs. The
/// index is usable after Close(), just no longer journaled.
class DurableIndex : public CheckpointDriver {
 public:
  DurableIndex() = default;
  ~DurableIndex() override;
  DurableIndex(const DurableIndex&) = delete;
  DurableIndex& operator=(const DurableIndex&) = delete;

  /// Recovers (or initializes) the directory `durable.dir` and attaches
  /// the journal. \p data / \p dist are the base dataset the snapshot
  /// was built over (fingerprint-checked on load); \p index_options is
  /// used only when no snapshot exists yet.
  Status Open(const Dataset* data, const ProductDistribution* dist,
              const DynamicIndexOptions& index_options,
              const DurableOptions& durable, RecoveryStats* stats = nullptr);

  /// The recovered, journaled index. Valid after a successful Open().
  DynamicIndex& index() { return index_; }
  const DynamicIndex& index() const { return index_; }

  /// The log writer (stats surface; null before Open/after Close).
  WalWriter* wal() { return wal_.get(); }

  /// CheckpointDriver: the log-size trigger from DurableOptions.
  bool CheckpointDue() override;

  /// CheckpointDriver: pinned-snapshot Save to a temp file, atomic
  /// rename over snapshot.skd, then WAL truncation at the pre-pin cut.
  /// Safe against concurrent Insert/Remove/Query traffic; serializes
  /// with itself.
  Status Checkpoint() override;

  size_t num_checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }

  /// Final sync + journal detach. Idempotent.
  Status Close();

  /// Layout of a durable directory (shared with tests and tooling).
  static std::string SnapshotPath(const std::string& dir);
  static std::string WalPath(const std::string& dir);

 private:
  DynamicIndex index_;
  DurableOptions options_;
  std::unique_ptr<WalWriter> wal_;
  std::unique_ptr<WalJournal> journal_;

  std::mutex checkpoint_mutex_;  // serializes Checkpoint/Close
  std::atomic<size_t> checkpoints_{0};
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_DURABILITY_RECOVERY_H_
