// Copyright 2026 The skewsearch Authors.
// MaintenanceService: the background housekeeping policy of the online
// index.
//
// The DynamicIndex provides the *mechanisms* — epoch-published shard
// snapshots, CompactShard(), RebuildForSize() — and stays policy-free:
// Remove() never compacts inline, it only notifies the registered
// listener. This service is that listener. A dedicated thread watches
// per-shard dead-entry ratios and the drift between the live count and
// the build-time n the parameters were derived for (Lemma 5 provisions
// the repetition count against ln n, so heavy growth silently erodes
// the recall guarantee). When a shard's dead ratio crosses the
// threshold it is compacted; when the live count drifts past the
// configured factor, the whole index is re-derived and rebuilt shard by
// shard — all on the maintenance thread, with readers wait-free and
// writers blocked only for the short per-shard merge sections.
//
// The service can also be driven manually (RunOnce) for deterministic
// tests and batch jobs.

#ifndef SKEWSEARCH_MAINTENANCE_SERVICE_H_
#define SKEWSEARCH_MAINTENANCE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <thread>

#include "core/dynamic_index.h"
#include "util/status.h"

namespace skewsearch {

/// \brief Policy knobs of the maintenance service.
struct MaintenanceOptions {
  /// Dead-entry fraction above which a shard is compacted; negative
  /// falls back to the index's compact_dead_fraction. A shard whose
  /// delta outgrows the base is compacted too (service.cc).
  double dead_ratio = -1.0;

  /// Live-count drift that triggers a parameter re-derive + rebuild:
  /// rebuild once live > factor * derived_n or live * factor <
  /// derived_n. Values <= 1 disable drift rebuilds.
  double drift_factor = 2.0;

  /// Background thread poll interval. Dirty-shard notifications wake
  /// the thread earlier.
  int poll_interval_ms = 50;

  /// Smallest live count a drift rebuild is worth re-deriving for.
  size_t min_rebuild_n = 16;
};

/// \brief Counters of the work performed so far.
struct MaintenanceStats {
  size_t scans = 0;        ///< completed RunOnce passes
  size_t compactions = 0;  ///< shard compactions performed
  size_t rebuilds = 0;     ///< full drift rebuilds performed
  size_t reclaimed = 0;    ///< retired snapshots reclaimed by our collects
  size_t checkpoints = 0;  ///< durability checkpoints completed
};

/// \brief Hook letting the maintenance thread drive durability
/// checkpoints (snapshot + WAL truncate) on its own cadence.
///
/// The service stays storage-agnostic: each RunOnce pass asks the
/// registered driver whether a checkpoint is due (the log-size policy
/// lives in the driver, see durability/recovery.h) and runs it on the
/// maintenance thread. Implementations must be safe against concurrent
/// Insert/Remove/Query traffic — the DurableIndex driver is, via the
/// index's pinned-snapshot Save path.
class CheckpointDriver {
 public:
  virtual ~CheckpointDriver() = default;

  /// True when the WAL's size or age warrants a checkpoint now.
  virtual bool CheckpointDue() = 0;

  /// Snapshots the index and truncates the log behind it.
  virtual Status Checkpoint() = 0;
};

/// \brief Background compaction + drift-rebuild driver for one
/// DynamicIndex.
///
/// Thread-safety: Attach/Start/Stop/Detach are for the owning thread;
/// RunOnce may race the background thread (index maintenance operations
/// serialize internally). The attached index must outlive the service
/// (or Detach() must be called first).
class MaintenanceService : public MaintenanceListener {
 public:
  MaintenanceService() = default;
  ~MaintenanceService() override;
  MaintenanceService(const MaintenanceService&) = delete;
  MaintenanceService& operator=(const MaintenanceService&) = delete;

  /// Binds the service to \p index (registering it as the maintenance
  /// listener) with the given policy. Does not start the thread.
  Status Attach(DynamicIndex* index,
                const MaintenanceOptions& options = MaintenanceOptions());

  /// Stops the thread (if running) and unregisters from the index.
  void Detach();

  /// Starts the background thread. Requires a prior Attach().
  Status Start();

  /// Stops and joins the background thread; the listener registration
  /// and manual RunOnce() remain usable.
  void Stop();

  /// Registers (or clears, with nullptr) the checkpoint driver each
  /// RunOnce pass consults. Register before Start() (or while the
  /// thread is stopped); the driver must outlive the service or be
  /// cleared first.
  void SetCheckpointDriver(CheckpointDriver* driver);

  /// One maintenance pass: compacts every shard over the dead-ratio
  /// threshold, performs a drift rebuild if warranted, runs a due
  /// durability checkpoint, and collects retired snapshots. Callable
  /// with or without the thread running.
  Status RunOnce();

  bool running() const { return running_.load(std::memory_order_acquire); }

  MaintenanceStats stats() const;

  /// Status of the most recent failed maintenance action (OK if none).
  Status last_error() const;

  /// MaintenanceListener: a writer pushed a shard over the dead-entry
  /// threshold; wake the thread.
  void OnShardDirty(int shard) override;

 private:
  void ThreadMain();

  DynamicIndex* index_ = nullptr;
  MaintenanceOptions options_;
  std::atomic<CheckpointDriver*> checkpoint_driver_{nullptr};

  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};

  mutable std::mutex mutex_;  // guards cv_ wakeups, stats_, last_error_
  std::condition_variable cv_;
  bool dirty_ = false;
  MaintenanceStats stats_;
  Status last_error_;
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_MAINTENANCE_SERVICE_H_
