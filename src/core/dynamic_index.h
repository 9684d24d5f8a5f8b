// Copyright 2026 The skewsearch Authors.
// DynamicIndex: the sharded index made online — Insert() and Remove()
// after Build(), with wait-free concurrent readers.
//
// Layout per shard: an immutable *snapshot* published behind an atomic
// pointer. A snapshot bundles the frozen base posting table, a delta map
// holding the postings of vectors inserted since the last compaction, a
// tombstone map for removed ids, the owned item lists of inserted
// vectors, and the parameter *edition* (filter family) the postings were
// generated under. Filter keys are a pure function of
// (seed, repetition, vector), so an insert only replays the path engine
// for the new vector and appends the resulting (key, id) pairs to its
// shard's delta.
//
// Concurrency contract (epoch-based, see maintenance/epoch.h): readers
// pin an epoch, load the shard snapshot pointers they need, and scan
// without taking any lock — reads are wait-free and never block on
// writers, compaction or rebuild. Writers serialize per shard on a
// plain mutex, clone the current snapshot (cheap: posting lists and
// inserted vectors are shared substructure), apply their mutation, and
// publish by a single pointer swap; the old snapshot is retired to the
// epoch manager and reclaimed once no reader still pins it. A mutation
// completed before a query starts is always visible to it (no lost
// results); a removal completed before a query starts is never returned
// (no phantoms).
//
// Housekeeping is decoupled from the write path: Remove() past the
// dead-entry threshold only *flags* the shard and notifies the attached
// maintenance listener — it never compacts in the caller's thread. The
// MaintenanceService (maintenance/service.h) runs compaction and, when
// the live count has drifted far from the size the parameters were
// derived for, a full parameter re-derive + rebuild, shard by shard; in
// both cases the expensive table construction happens off-lock against
// a pinned snapshot and only a short merge section holds the shard's
// writer mutex, so the index stays online throughout.
//
// Snapshot isolation: GetSnapshot() pins one epoch and captures every
// shard's current state; queries against that handle return identical
// results no matter how many mutations, compactions or rebuilds happen
// concurrently. BatchQuery() answers the whole batch against one such
// snapshot, giving a batch a consistent cross-shard cut.
//
// Queries run through the query driver ShardedIndex uses
// (core/query_driver.h): a pinned shard is one more shard view, whose
// scan visits a key's base postings, then its delta postings, and skips
// tombstoned ids. Answers on a fresh build therefore equal the static
// index's at the same shard count, and every query records the same
// query.* metrics and trace spans (docs/OBSERVABILITY.md).

#ifndef SKEWSEARCH_CORE_DYNAMIC_INDEX_H_
#define SKEWSEARCH_CORE_DYNAMIC_INDEX_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/inverted_index.h"
#include "core/query_stats.h"
#include "core/sharded_index.h"
#include "core/skewed_index.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "maintenance/epoch.h"
#include "sim/brute_force.h"
#include "util/result.h"
#include "util/status.h"
#include "util/sync.h"

namespace skewsearch {

class ThreadPool;  // util/thread_pool.h

/// \brief Configuration of the online index.
struct DynamicIndexOptions {
  /// Per-shard index configuration (seed shared across shards).
  SkewedIndexOptions index;

  /// Number of hash partitions K (>= 1).
  int num_shards = 4;

  /// A shard is flagged for compaction once more than this fraction of
  /// its posting entries belongs to removed vectors. Must be > 0; values
  /// >= 1 effectively disable the flagging.
  double compact_dead_fraction = 0.25;
};

/// \brief Hook the index uses to hand housekeeping to a maintenance
/// component. Callbacks fire on the mutating thread while it still
/// holds the owning shard's writer mutex (that is what lets
/// SetMaintenanceListener() act as a barrier against in-flight
/// callbacks), so implementations must only signal — never call back
/// into the index, and never block.
class MaintenanceListener {
 public:
  virtual ~MaintenanceListener() = default;

  /// Shard \p shard crossed the dead-entry threshold and wants
  /// compaction.
  virtual void OnShardDirty(int shard) = 0;
};

/// \brief Hook making acknowledged mutations durable (the write-ahead
/// log seam; see durability/wal.h for the production implementation).
///
/// When registered, Insert/Remove call LogInsert/LogRemove after
/// applying the mutation but *before returning*, still under the
/// owning shard's writer mutex — so a mutation is acknowledged only
/// once the journal accepted it, per-shard journal order matches apply
/// order, and SetMutationJournal() can act as a barrier exactly like
/// SetMaintenanceListener(). A journal error fails the mutating call;
/// the mutation may then be visible in memory but is not durable (it
/// is an *unacknowledged* mutation: after a crash and recovery it is
/// allowed to be absent). Implementations may block (an fsync is the
/// point) but must never call back into the index.
class MutationJournal {
 public:
  virtual ~MutationJournal() = default;

  /// Mutation "insert \p id = \p items" was applied; make it durable.
  virtual Status LogInsert(VectorId id, std::span<const ItemId> items) = 0;

  /// Mutation "remove \p id" was applied; make it durable.
  virtual Status LogRemove(VectorId id) = 0;
};

/// \brief Per-shard health counters (for maintenance policy and tests).
struct ShardHealth {
  size_t live_entries = 0;   ///< posting entries referencing live ids
  size_t dead_entries = 0;   ///< posting entries referencing tombstones
  size_t delta_entries = 0;  ///< entries held in delta lists
  size_t tombstones = 0;     ///< dead ids whose postings are present
  uint64_t edition = 0;      ///< parameter edition the shard serves
  double dead_ratio = 0.0;   ///< dead / (live + dead), 0 when empty
};

/// \brief Sharded index with Insert/Remove, wait-free concurrent readers
/// and decoupled maintenance.
///
/// The base dataset and distribution are borrowed and must outlive the
/// index; inserted vectors are copied and owned. Query/QueryAll/
/// BatchQuery/GetSnapshot are safe to call concurrently with Insert/
/// Remove/CompactShard/RebuildForSize from any number of threads. Not
/// movable (shard slots and epoch slots pin addresses). Destruction
/// requires quiescence: no reader, writer or snapshot may be in flight.
class DynamicIndex {
 public:
  DynamicIndex();
  ~DynamicIndex();
  DynamicIndex(const DynamicIndex&) = delete;
  DynamicIndex& operator=(const DynamicIndex&) = delete;

  /// \brief A pinned, immutable cross-shard view of the index.
  ///
  /// Queries against a snapshot return byte-identical results for its
  /// whole lifetime, regardless of concurrent mutations, compactions or
  /// rebuilds. Holding a snapshot defers reclamation of superseded
  /// tables (it pins an epoch), so scope snapshots to a query batch,
  /// not to the application lifetime. Movable, not copyable.
  class Snapshot {
   public:
    Snapshot() = default;
    Snapshot(Snapshot&&) noexcept = default;
    Snapshot& operator=(Snapshot&&) noexcept = default;

    bool valid() const { return index_ != nullptr; }

    /// First match in scan order, as DynamicIndex::Query, but evaluated
    /// against this snapshot's fixed state.
    std::optional<Match> Query(std::span<const ItemId> query,
                               QueryStats* stats = nullptr) const;

    /// All live matches >= \p threshold, as DynamicIndex::QueryAll, but
    /// evaluated against this snapshot's fixed state.
    std::vector<Match> QueryAll(std::span<const ItemId> query,
                                double threshold,
                                QueryStats* stats = nullptr) const;

    /// Live vectors in this snapshot.
    size_t size() const;

    /// The epoch this snapshot pinned (diagnostics/tests).
    uint64_t epoch() const { return guard_.epoch(); }

   private:
    friend class DynamicIndex;
    const DynamicIndex* index_ = nullptr;
    EpochManager::Guard guard_;
    std::vector<const void*> states_;  // const ShardState*, type-erased
  };

  /// Builds the per-shard base tables over \p data. Not thread-safe
  /// against concurrent use of this object.
  Status Build(const Dataset* data, const ProductDistribution* dist,
               const DynamicIndexOptions& options);

  /// Inserts one vector (strictly increasing item ids, all inside the
  /// distribution's universe) and returns its id. Runs the path engine
  /// outside any lock, then publishes a new shard snapshot under the
  /// owning shard's writer mutex. Thread-safe. \p num_filters (if
  /// non-null) receives the number of posting entries the vector
  /// contributed — 0 means the filter family emitted no paths for it,
  /// so no query can ever surface it until a rebuild.
  Result<VectorId> Insert(std::span<const ItemId> items,
                          size_t* num_filters = nullptr);

  /// Tombstones \p id (a base vector or a previous Insert). Returns
  /// NotFound for unknown or already-removed ids. Never compacts
  /// inline: crossing the dead-entry threshold only notifies the
  /// attached maintenance listener. Thread-safe.
  Status Remove(VectorId id);

  /// First match with similarity >= the shard's verify threshold in the
  /// scan order (repetition, key position, base-before-delta, id), or
  /// nullopt. Deterministic for a quiesced index. Thread-safe and
  /// wait-free (lock-free reads; never blocks on writers).
  std::optional<Match> Query(std::span<const ItemId> query,
                             QueryStats* stats = nullptr) const;

  /// All distinct live matches with similarity >= \p threshold, sorted
  /// by descending similarity (ties by id). On a freshly built index
  /// this is byte-identical to the static ShardedIndex::QueryAll.
  std::vector<Match> QueryAll(std::span<const ItemId> query, double threshold,
                              QueryStats* stats = nullptr) const;

  /// Pins the current state of every shard into one consistent view.
  Snapshot GetSnapshot() const;

  /// Answers every vector of \p queries as a Query(), parallelized over
  /// the batch on \p pool. The caller owns the pool and may reuse it for
  /// every batch; null runs serially on the calling thread. The whole
  /// batch is answered against one Snapshot, so it sees a single
  /// consistent cross-shard cut even while writers, compaction or
  /// rebuild proceed.
  std::vector<std::optional<Match>> BatchQuery(
      const Dataset& queries, ThreadPool* pool = nullptr,
      std::vector<QueryStats>* stats = nullptr,
      BatchQueryStats* batch_stats = nullptr) const;

  /// \name Maintenance operations
  /// Thread-safe against readers and writers; maintenance calls
  /// serialize among themselves. Intended to run on the maintenance
  /// thread (see maintenance/service.h) but callable directly.
  /// @{

  /// Rebuilds shard \p s without tombstoned entries, folding its delta
  /// into a fresh frozen table. The expensive table build runs against a
  /// pinned snapshot with no locks held; only a short merge section
  /// (bounded by the mutations that raced the build) takes the shard's
  /// writer mutex. No-op only when the shard has neither tombstones nor
  /// delta postings.
  Status CompactShard(int s);

  /// Re-derives the filter-family parameters for a live count of
  /// \p target_n and migrates every shard to the new edition, one shard
  /// at a time; readers stay online throughout and see each shard flip
  /// atomically. Queries spanning the migration remain correct because
  /// every snapshot carries its own edition.
  Status RebuildForSize(size_t target_n);

  /// \name Durability (write-ahead log seam; see durability/recovery.h)
  /// @{

  /// Registers (or clears, with nullptr) the mutation journal that
  /// Insert/Remove hand every applied mutation to before returning.
  /// Same barrier contract as SetMaintenanceListener: when this
  /// returns, no call into a previously registered journal is still in
  /// flight. Thread-safe (may briefly block on shard writers).
  void SetMutationJournal(MutationJournal* journal);

  /// Re-applies a logged insert during recovery: inserts \p items under
  /// the *given* id (bumping the id allocator past it) instead of
  /// allocating one, and skips ids the restored snapshot already knows
  /// (live or tombstoned) — replay after an overlapping checkpoint is
  /// idempotent. Returns true when the mutation was applied, false
  /// when it was skipped. Never journals. Not for use while concurrent
  /// Insert() traffic is allocating ids.
  Result<bool> ReplayInsert(VectorId id, std::span<const ItemId> items);

  /// Re-applies a logged remove during recovery; an id that is already
  /// gone is a skip (false), not an error. Never journals.
  Result<bool> ReplayRemove(VectorId id);

  /// @}

  /// Registers (or clears, with nullptr) the maintenance listener that
  /// Remove() notifies when a shard crosses the dead-entry threshold.
  /// Acts as a barrier: when this returns, no callback to a previously
  /// registered listener is still in flight, so the old listener may be
  /// destroyed. Thread-safe (may briefly block on shard writers).
  void SetMaintenanceListener(MaintenanceListener* listener);

  /// Health counters of shard \p s (taken from its current snapshot).
  ShardHealth Health(int s) const;

  /// Aggregate online-layout profile for the delta-aware cost model.
  OnlineIndexProfile Profile() const;

  /// The epoch-reclamation domain (exposed for the maintenance service
  /// and tests; Collect() is safe to call at any time).
  EpochManager& epochs() const { return epochs_; }

  /// @}

  /// Persists parameters, every edition, and every shard's snapshot
  /// (base table, delta postings, tombstones, inserted vectors). Reads
  /// one pinned snapshot, so writers are never blocked. Only valid
  /// after Build().
  Status Save(const std::string& path) const;

  /// Restores an index saved with Save(); the caller re-supplies the
  /// same *base* dataset and distribution (fingerprint-checked).
  /// Inserted vectors and tombstones are restored from the file.
  Status Load(const std::string& path, const Dataset* data,
              const ProductDistribution* dist);

  /// Checks every shard of one pinned snapshot against the rules Load
  /// holds a file to (docs/FILE_FORMATS.md). Scans every posting: for
  /// tests and audits, never a serving path. Returns Internal naming the
  /// first broken rule; OK before Build().
  Status CheckInvariants() const;

  /// True after a successful Build()/Load().
  bool built() const { return !shards_.empty(); }

  /// True iff \p id currently exists and is not tombstoned. Thread-safe.
  bool IsLive(VectorId id) const;

  /// Number of live vectors (base + inserted - removed). Exact for a
  /// quiesced index. Thread-safe, lock-free.
  size_t size() const;

  /// Number of tombstoned ids whose postings are still physically
  /// present (compaction drops them). Thread-safe.
  size_t num_tombstones() const;

  /// Number of shard compactions completed so far.
  size_t num_compactions() const {
    return compactions_.load(std::memory_order_relaxed);
  }

  /// Number of full parameter re-derive rebuilds completed so far.
  size_t num_rebuilds() const {
    return rebuilds_.load(std::memory_order_relaxed);
  }

  size_t base_size() const { return base_n_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// The live count the current parameter edition was derived for.
  size_t derived_n() const;

  /// Version of the current parameter edition (0 = as built).
  uint64_t edition_version() const;

  /// Repetitions / verify threshold / family of the *current* edition.
  /// During a rebuild individual shards may briefly serve the previous
  /// edition; queries handle that internally. The family reference stays
  /// valid for the index's lifetime (editions are never destroyed).
  /// Before Build()/Load() these return graceful defaults (0 / 0.0 / an
  /// empty family).
  int repetitions() const;
  double verify_threshold() const;
  const FilterFamily& family() const;

  /// Aggregate build counters of the last Build().
  const IndexBuildStats& build_stats() const { return build_stats_; }

  const DynamicIndexOptions& options() const { return options_; }

  /// Approximate heap usage (base tables + deltas + inserted vectors).
  /// Thread-safe.
  size_t MemoryBytes() const;

 private:
  struct Edition;     // parameter edition (filter family + derivation)
  struct Shard;       // atomic snapshot slot + writer mutex
  struct ShardState;  // immutable published snapshot
  struct ShardView;   // the query driver's view of a pinned ShardState

  std::optional<Match> QueryImpl(const std::vector<const void*>& states,
                                 std::span<const ItemId> query,
                                 QueryStats* stats,
                                 query_internal::Scratch* scratch) const;

  /// Swaps \p next in as \p shard's snapshot and retires the old one.
  /// Caller holds the shard's writer mutex. Returns true when the limbo
  /// backlog warrants an epochs_.Collect() — which the caller must run
  /// only *after* releasing the mutex (reclamation can destroy
  /// O(shard)-sized retired tables).
  bool PublishLocked(Shard* shard,
                     std::shared_ptr<const ShardState> next) const;

  /// Copies the current owner pointer of shard \p s (takes and releases
  /// the writer mutex).
  std::shared_ptr<const ShardState> OwnerOf(int s) const;

  Status RebuildShardLocked(int s, std::shared_ptr<const Edition> edition);

  /// Items precondition shared by Insert, ReplayInsert and Load:
  /// non-empty, strictly increasing, all below \p dimension.
  static Status ValidateInsertItems(std::span<const ItemId> items,
                                    size_t dimension);

  /// The locked apply of an insert under a fixed id. In replay mode an
  /// id the shard already knows is a skip (*applied = false); otherwise
  /// the insert is published and, when a journal is registered and
  /// \p journal is true, logged before the shard lock is released.
  Status ApplyInsert(VectorId id, std::span<const ItemId> items,
                     size_t* num_filters, bool journal, bool replay,
                     bool* applied);

  /// Remove with the journal hand-off optional (replay must not log).
  Status RemoveImpl(VectorId id, bool journal);

  const Dataset* data_ = nullptr;
  const ProductDistribution* dist_ = nullptr;
  DynamicIndexOptions options_;
  IndexBuildStats build_stats_;
  size_t base_n_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  /// Parameter editions, append-only; index in the vector == version.
  /// Kept alive for the index lifetime so family() references stay
  /// valid. Guarded by editions_mutex_ for mutation; the current edition
  /// is also published through current_edition_ for lock-free reads.
  mutable std::mutex editions_mutex_;
  std::vector<std::shared_ptr<const Edition>> editions_;
  std::atomic<const Edition*> current_edition_{nullptr};

  /// Serializes CompactShard / RebuildForSize among themselves (writers
  /// and readers are not affected).
  std::mutex maintenance_mutex_;

  mutable EpochManager epochs_;
  std::atomic<MaintenanceListener*> listener_{nullptr};
  std::atomic<MutationJournal*> journal_{nullptr};
  std::atomic<VectorId> next_id_{0};
  std::atomic<size_t> compactions_{0};
  std::atomic<size_t> rebuilds_{0};
};

}  // namespace skewsearch

#endif  // SKEWSEARCH_CORE_DYNAMIC_INDEX_H_
