#include "maintenance/service.h"

#include <algorithm>
#include <chrono>

#include "obs/metrics.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

/// A shard is compacted, even without tombstones, once its delta
/// postings exceed this fraction of its entries: an insert-heavy shard
/// accumulates delta postings that cost queries one hash probe per key
/// and writers bucket-sized COW copies, so folding the delta into the
/// frozen base is maintenance too.
constexpr double kDeltaRatio = 0.25;

/// The memtable-style per-shard delta cap (entries): past it the shard
/// is compacted regardless of the ratio, keeping the COW write cost flat
/// as the shard grows (write amplification is O(shard / cap), the usual
/// leveling trade).
constexpr size_t kMaxDeltaEntries = 16384;

}  // namespace

MaintenanceService::~MaintenanceService() { Detach(); }

Status MaintenanceService::Attach(DynamicIndex* index,
                                  const MaintenanceOptions& options) {
  if (index == nullptr) {
    return Status::InvalidArgument("index must be non-null");
  }
  if (options.poll_interval_ms <= 0) {
    return Status::InvalidArgument("poll_interval_ms must be positive");
  }
  if (running()) {
    return Status::InvalidArgument("cannot re-attach while running");
  }
  if (index_ != nullptr) index_->SetMaintenanceListener(nullptr);
  index_ = index;
  options_ = options;
  index_->SetMaintenanceListener(this);
  return Status::OK();
}

void MaintenanceService::Detach() {
  Stop();
  if (index_ != nullptr) {
    index_->SetMaintenanceListener(nullptr);
    index_ = nullptr;
  }
}

Status MaintenanceService::Start() {
  if (index_ == nullptr) {
    return Status::InvalidArgument("no index attached");
  }
  if (running()) return Status::OK();
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { ThreadMain(); });
  return Status::OK();
}

void MaintenanceService::Stop() {
  if (!running()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_release);
}

void MaintenanceService::SetCheckpointDriver(CheckpointDriver* driver) {
  checkpoint_driver_.store(driver, std::memory_order_seq_cst);
}

void MaintenanceService::OnShardDirty(int /*shard*/) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    dirty_ = true;
  }
  cv_.notify_one();
}

Status MaintenanceService::RunOnce() {
  // Maintenance metrics (docs/OBSERVABILITY.md, "maintenance.*") —
  // compaction/rebuild counters plus duration histograms, and the epoch
  // backlog gauge a stuck reader would show up in.
  static obs::Counter* const scans_metric =
      obs::MetricsRegistry::Global().GetCounter("maintenance.scans");
  static obs::Counter* const compactions_metric =
      obs::MetricsRegistry::Global().GetCounter("maintenance.compactions");
  static obs::Counter* const rebuilds_metric =
      obs::MetricsRegistry::Global().GetCounter("maintenance.rebuilds");
  static obs::Counter* const reclaimed_metric =
      obs::MetricsRegistry::Global().GetCounter("maintenance.reclaimed");
  static obs::Histogram* const compact_span_metric =
      obs::MetricsRegistry::Global().GetHistogram(
          "span.maintenance.compact");
  static obs::Histogram* const rebuild_span_metric =
      obs::MetricsRegistry::Global().GetHistogram(
          "span.maintenance.rebuild");
  static obs::Gauge* const backlog_metric =
      obs::MetricsRegistry::Global().GetGauge("maintenance.epoch_backlog");

  DynamicIndex* index = index_;
  if (index == nullptr) {
    return Status::InvalidArgument("no index attached");
  }
  if (!index->built()) return Status::OK();
  const double threshold = options_.dead_ratio >= 0.0
                               ? options_.dead_ratio
                               : index->options().compact_dead_fraction;
  size_t compactions = 0;
  Status status = Status::OK();
  for (int s = 0; s < index->num_shards() && status.ok(); ++s) {
    ShardHealth health = index->Health(s);
    const size_t total = health.live_entries + health.dead_entries;
    const bool dead_pressure =
        health.dead_entries > 0 && health.dead_ratio > threshold;
    const bool delta_pressure =
        (total > 0 && static_cast<double>(health.delta_entries) >
                          kDeltaRatio * static_cast<double>(total)) ||
        health.delta_entries > kMaxDeltaEntries;
    if (dead_pressure || delta_pressure) {
      Timer compact_timer;
      status = index->CompactShard(s);
      if (status.ok()) {
        ++compactions;
        compactions_metric->Increment();
        compact_span_metric->Record(
            static_cast<uint64_t>(compact_timer.ElapsedNanos()));
      }
    }
  }
  size_t rebuilds = 0;
  if (status.ok() && options_.drift_factor > 1.0) {
    const double factor = options_.drift_factor;
    const size_t live = index->size();
    const size_t derived = index->derived_n();
    const bool drifted =
        derived > 0 && live >= std::max<size_t>(2, options_.min_rebuild_n) &&
        (static_cast<double>(live) > factor * static_cast<double>(derived) ||
         static_cast<double>(live) * factor < static_cast<double>(derived));
    if (drifted) {
      Timer rebuild_timer;
      status = index->RebuildForSize(live);
      if (status.ok()) {
        ++rebuilds;
        rebuilds_metric->Increment();
        rebuild_span_metric->Record(
            static_cast<uint64_t>(rebuild_timer.ElapsedNanos()));
      }
    }
  }
  size_t checkpoints = 0;
  if (status.ok()) {
    static obs::Counter* const checkpoints_metric =
        obs::MetricsRegistry::Global().GetCounter("maintenance.checkpoints");
    static obs::Histogram* const checkpoint_span_metric =
        obs::MetricsRegistry::Global().GetHistogram(
            "span.maintenance.checkpoint");
    CheckpointDriver* driver =
        checkpoint_driver_.load(std::memory_order_acquire);
    if (driver != nullptr && driver->CheckpointDue()) {
      Timer checkpoint_timer;
      status = driver->Checkpoint();
      if (status.ok()) {
        ++checkpoints;
        checkpoints_metric->Increment();
        checkpoint_span_metric->Record(
            static_cast<uint64_t>(checkpoint_timer.ElapsedNanos()));
      }
    }
  }
  const size_t reclaimed = index->epochs().Collect();
  scans_metric->Increment();
  reclaimed_metric->Increment(reclaimed);
  backlog_metric->Set(static_cast<int64_t>(index->epochs().limbo_size()));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats_.scans++;
    stats_.compactions += compactions;
    stats_.rebuilds += rebuilds;
    stats_.reclaimed += reclaimed;
    stats_.checkpoints += checkpoints;
    if (!status.ok()) last_error_ = status;
  }
  return status;
}

void MaintenanceService::ThreadMain() {
  const auto interval = std::chrono::milliseconds(options_.poll_interval_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait_for(lock, interval, [this] {
        return stop_.load(std::memory_order_acquire) || dirty_;
      });
      dirty_ = false;
    }
    if (stop_.load(std::memory_order_acquire)) return;
    RunOnce().ok();  // failures recorded in last_error_
  }
}

MaintenanceStats MaintenanceService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

Status MaintenanceService::last_error() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_error_;
}

}  // namespace skewsearch
