#include "core/dynamic_index.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "core/batch.h"
#include "core/index_io.h"
#include "core/query_driver.h"
#include "util/containers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

namespace io = index_io_internal;

constexpr char kDynamicMagic[4] = {'S', 'K', 'D', '2'};
constexpr int kMaxShards = 1 << 12;
constexpr uint64_t kMaxBlockCount = uint64_t{1} << 32;
constexpr uint32_t kMaxEditions = 1u << 20;

/// Writers collect retired snapshots opportunistically once this many
/// pile up, so an index without a maintenance thread still reclaims.
constexpr size_t kCollectBacklog = 32;

/// A set is a registry whose values take no bytes, as a PostingSet is a
/// PostingMap without values.
struct NoValue {};

/// One growing registry of a shard state: N copy-on-write buckets of a
/// PostingMap<K, V>, split by key % N (vector ids and filter keys both
/// spread evenly under modulo). A null bucket is empty and a copy shares
/// every bucket, so a writer clones only the buckets its mutation
/// touches and never writes a published bucket.
template <typename K, typename V, size_t N>
class CowBuckets {
 public:
  using Map = PostingMap<K, V>;

  /// Stages the entries of a registry no reader has seen yet.
  class Builder {
   public:
    /// Returns false, keeping the staged value, when \p key is staged.
    bool Add(K key, V value) {
      return maps_[BucketOf(key)].emplace(key, std::move(value)).second;
    }

    /// Installs the non-empty buckets.
    CowBuckets Build() && {
      CowBuckets registry;
      for (size_t b = 0; b < N; ++b) {
        if (maps_[b].empty()) continue;
        registry.buckets_[b] = std::make_shared<const Map>(std::move(maps_[b]));
      }
      return registry;
    }

   private:
    std::array<Map, N> maps_;
  };

  const V* Find(K key) const {
    const std::shared_ptr<const Map>& bucket = buckets_[BucketOf(key)];
    if (bucket == nullptr) return nullptr;
    auto it = bucket->find(key);
    return it == bucket->end() ? nullptr : &it->second;
  }

  bool contains(K key) const { return Find(key) != nullptr; }

  size_t size() const {
    size_t count = 0;
    for (const auto& bucket : buckets_) {
      if (bucket != nullptr) count += bucket->size();
    }
    return count;
  }

  /// Invokes fn(key, value) for every entry, in no particular order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& bucket : buckets_) {
      if (bucket == nullptr) continue;
      for (const auto& [key, value] : *bucket) fn(key, value);
    }
  }

  /// Every key, ascending.
  std::vector<K> SortedKeys() const {
    std::vector<K> keys;
    keys.reserve(size());
    ForEach([&](K key, const V& /*value*/) { keys.push_back(key); });
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// Writes the layout all four SKD2 registry blocks share: a u64 entry
  /// count, then each key in ascending order followed by its value,
  /// which write_value(out, value) writes. Identical registries write
  /// identical bytes; a failed write leaves \p out failed.
  template <typename WriteValue>
  void Write(std::ostream& out, WriteValue&& write_value) const {
    const std::vector<K> keys = SortedKeys();
    io::WritePod(out, static_cast<uint64_t>(keys.size()));
    for (K key : keys) {
      io::WritePod(out, key);
      write_value(out, *Find(key));
    }
  }

  /// Replaces this registry with one Write() wrote; read_value(in, key,
  /// &value) reads a value and returns false when it is short or
  /// invalid. Rejects a count above kMaxBlockCount, a short read and a
  /// repeated key; \p what names a key in the error ("inserted id").
  template <typename ReadValue>
  Status Read(std::istream& in, const std::string& what,
              ReadValue&& read_value) {
    uint64_t count = 0;
    bool ok = io::ReadPod(in, &count) && count <= kMaxBlockCount;
    Builder builder;
    for (uint64_t i = 0; ok && i < count; ++i) {
      K key{};
      V value{};
      ok = io::ReadPod(in, &key) && read_value(in, key, &value);
      if (ok && !builder.Add(key, std::move(value))) {
        return Status::InvalidArgument("duplicate " + what);
      }
    }
    if (!ok) return Status::InvalidArgument("corrupt block of " + what + "s");
    *this = std::move(builder).Build();
    return Status::OK();
  }

  /// Clones each bucket one of \p keys falls in, once per call however
  /// many keys share it, then runs fn(bucket, key) on that private copy
  /// for every key.
  template <typename Fn>
  void Update(std::span<const K> keys, Fn&& fn) {
    std::array<Map*, N> cloned{};
    for (K key : keys) {
      const size_t b = BucketOf(key);
      if (cloned[b] == nullptr) {
        auto fresh = buckets_[b] != nullptr
                         ? std::make_shared<Map>(*buckets_[b])
                         : std::make_shared<Map>();
        cloned[b] = fresh.get();
        buckets_[b] = std::move(fresh);
      }
      fn(*cloned[b], key);
    }
  }

  /// Inserts or overwrites one entry (clones its bucket).
  void Put(K key, V value) {
    Update({&key, 1}, [&](Map& bucket, K k) { bucket[k] = std::move(value); });
  }

  /// Erases one entry (clones its bucket).
  void Erase(K key) {
    Update({&key, 1}, [](Map& bucket, K k) { bucket.erase(k); });
  }

 private:
  static size_t BucketOf(K key) { return static_cast<size_t>(key) % N; }

  std::array<std::shared_ptr<const Map>, N> buckets_;
};

}  // namespace

/// One derivation of the paper's parameters (repetitions, delta, depth
/// bound, verify threshold) for a particular live count. Editions are
/// append-only and kept alive for the index lifetime; each published
/// shard snapshot references the edition its postings were generated
/// under, which is what keeps queries correct while a rebuild migrates
/// the shards one at a time.
struct DynamicIndex::Edition {
  FilterFamily family;
  uint64_t version = 0;
  size_t derived_n = 0;
};

/// The immutable published state of one shard. The base table, posting
/// lists and inserted vectors are shared substructure (shared_ptr), and
/// every growing registry (delta postings, tombstones, removed base ids,
/// inserted vectors) is one CowBuckets: a mutation deep-copies only the
/// buckets it touches and shares the rest, so cloning a state costs
/// O(touched buckets x bucket size), never O(shard) and never the
/// posting payloads or item lists. Bucket sizes stay flat because the
/// maintenance service folds the delta past an absolute cap; that is
/// the price of wait-free readers (a true persistent map would push
/// writers further toward O(keys), see ROADMAP).
struct DynamicIndex::ShardState {
  /// One live inserted vector: its items plus the posting-entry count it
  /// contributed under `edition` (so Remove can charge dead entries in
  /// O(1)).
  struct InsertedVector {
    std::vector<ItemId> items;
    uint32_t entries = 0;
  };

  using Delta =
      CowBuckets<uint64_t, std::shared_ptr<const std::vector<VectorId>>, 256>;
  using Tombstones = CowBuckets<VectorId, uint32_t, 64>;
  using RemovedBase = CowBuckets<VectorId, NoValue, 64>;
  using Inserted =
      CowBuckets<VectorId, std::shared_ptr<const InsertedVector>, 64>;

  std::shared_ptr<const Edition> edition;

  /// Frozen postings of the vectors present at Build()/last compaction.
  std::shared_ptr<const FilterTable> base;

  /// Posting-entry count each base vector of this shard contributed
  /// under `edition` (ids absent from the map contributed 0). Replaced
  /// only by a rebuild; shared across clones otherwise.
  std::shared_ptr<const PostingMap<VectorId, uint32_t>> base_counts;

  /// Postings of vectors inserted since the last compaction, keyed like
  /// the base table. Posting lists are immutable once published.
  Delta delta;

  /// Removed ids whose postings are still physically present, mapped to
  /// the entry count they occupy. Compaction drops the covered ids
  /// together with their postings.
  Tombstones tombstones;

  /// Removed *base* ids, kept forever: the base dataset still contains
  /// these vectors, so liveness bookkeeping (IsLive/size/double-Remove)
  /// needs them even after compaction has dropped their postings.
  RemovedBase removed_base;

  /// Live inserted vectors by id.
  Inserted inserted;

  /// Posting entries referencing live / tombstoned ids (CheckShard
  /// states how they add up).
  size_t live_entries = 0;
  size_t dead_entries = 0;

  const std::vector<VectorId>* FindDelta(uint64_t key) const {
    const auto* list = delta.Find(key);
    return list != nullptr ? list->get() : nullptr;
  }

  const InsertedVector* FindInserted(VectorId id) const {
    const auto* record = inserted.Find(id);
    return record != nullptr ? record->get() : nullptr;
  }

  /// The postings each id has in the base table and the delta: the entry
  /// count Remove() charges it. Load derives the counts from it, and
  /// CheckShard holds the stored counts to it.
  PostingMap<VectorId, uint32_t> EntriesPerId() const {
    PostingMap<VectorId, uint32_t> entries;
    for (VectorId id : base->ids_span()) ++entries[id];
    delta.ForEach([&](uint64_t /*key*/, const auto& ids) {
      for (VectorId id : *ids) ++entries[id];
    });
    return entries;
  }

  /// Every rule the state of shard \p s of \p num_shards keeps, each
  /// stated once; \p postings is EntriesPerId(). Load runs it on every
  /// shard it parses, CheckInvariants() on every pinned one.
  /// InvalidArgument names the first broken rule.
  Status CheckShard(const PostingMap<VectorId, uint32_t>& postings, int s,
                    int num_shards, size_t base_n, VectorId next_id) const;

  /// COW append of \p id to every key's posting list, kept sorted by
  /// id. Each touched bucket is cloned exactly once no matter how many
  /// of the vector's keys land in it (an insert emits
  /// filters-per-element x repetitions keys, so per-key cloning would
  /// multiply the copy cost by that factor).
  void AppendDeltaAll(const std::vector<uint64_t>& keys, VectorId id) {
    delta.Update(keys, [id](Delta::Map& bucket, uint64_t key) {
      std::shared_ptr<const std::vector<VectorId>>& slot = bucket[key];
      auto list = slot != nullptr
                      ? std::make_shared<std::vector<VectorId>>(*slot)
                      : std::make_shared<std::vector<VectorId>>();
      list->insert(std::upper_bound(list->begin(), list->end(), id), id);
      slot = std::move(list);
    });
  }
};

/// One hash partition: the atomically published snapshot plus the mutex
/// that serializes this shard's writers. Readers never touch the mutex.
struct DynamicIndex::Shard {
  std::atomic<const ShardState*> state{nullptr};
  mutable PaddedMutex writer;
  /// Owns what `state` points at. Guarded by `writer`.
  std::shared_ptr<const ShardState> owner;
};

DynamicIndex::DynamicIndex() = default;
DynamicIndex::~DynamicIndex() = default;

bool DynamicIndex::PublishLocked(Shard* shard,
                                 std::shared_ptr<const ShardState> next)
    const {
  const ShardState* raw = next.get();
  std::shared_ptr<const ShardState> old = std::move(shard->owner);
  shard->owner = std::move(next);
  shard->state.store(raw, std::memory_order_seq_cst);
  // Never Collect() here: the caller still holds the shard writer
  // mutex, and reclaiming can run arbitrarily heavy snapshot
  // destructors (a compacted-away FilterTable is O(shard)). Report
  // whether the backlog warrants a collect so the caller can run one
  // after unlocking.
  return epochs_.Retire(std::move(old)) >= kCollectBacklog;
}

std::shared_ptr<const DynamicIndex::ShardState> DynamicIndex::OwnerOf(
    int s) const {
  Shard& shard = *shards_[static_cast<size_t>(s)];
  MutexLock lock(shard.writer);
  return shard.owner;
}

Status DynamicIndex::Build(const Dataset* data,
                           const ProductDistribution* dist,
                           const DynamicIndexOptions& options) {
  if (data == nullptr || dist == nullptr) {
    return Status::InvalidArgument("data and dist must be non-null");
  }
  if (data->size() < 2) {
    return Status::InvalidArgument("dataset needs at least 2 vectors");
  }
  if (data->dimension() > dist->dimension()) {
    return Status::InvalidArgument(
        "dataset items exceed the distribution's universe");
  }
  if (options.num_shards < 1 || options.num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [1, 4096]");
  }
  if (!(options.compact_dead_fraction > 0.0) ||
      !std::isfinite(options.compact_dead_fraction)) {
    return Status::InvalidArgument(
        "compact_dead_fraction must be positive and finite");
  }
  Result<FilterFamily> family =
      FilterFamily::Create(dist, options.index, data->size());
  if (!family.ok()) return family.status();

  Timer timer;
  data_ = data;
  dist_ = dist;
  options_ = options;

  auto edition = std::make_shared<Edition>();
  edition->family = std::move(family).value();
  edition->version = 0;
  edition->derived_n = data->size();

  build_stats_ = IndexBuildStats{};
  build_stats_.repetitions = edition->family.repetitions();
  build_stats_.delta_used = edition->family.delta();
  std::vector<FilterTable> tables;
  std::vector<uint32_t> entry_counts;
  ThreadPool pool(options.index.build_threads);
  SKEWSEARCH_RETURN_NOT_OK(sharded_internal::BuildShardTables(
      *data, edition->family, options.num_shards, &pool, &build_stats_,
      &tables, &entry_counts));

  // Split the flat per-vector entry counts into per-shard maps (the
  // shard states hold them so a rebuild can swap in counts for its new
  // edition shard by shard).
  std::vector<PostingMap<VectorId, uint32_t>> counts(tables.size());
  for (VectorId id = 0; id < data->size(); ++id) {
    if (entry_counts[id] == 0) continue;
    counts[static_cast<size_t>(
        ShardedIndex::ShardOf(id, options.num_shards))]
        .emplace(id, entry_counts[id]);
  }

  shards_.clear();
  shards_.reserve(tables.size());
  for (size_t s = 0; s < tables.size(); ++s) {
    auto state = std::make_shared<ShardState>();
    state->edition = edition;
    state->base = std::make_shared<FilterTable>(std::move(tables[s]));
    state->base_counts =
        std::make_shared<const PostingMap<VectorId, uint32_t>>(
            std::move(counts[s]));
    state->live_entries = state->base->num_pairs();
    auto shard = std::make_unique<Shard>();
    shard->state.store(state.get(), std::memory_order_seq_cst);
    shard->owner = std::move(state);
    shards_.push_back(std::move(shard));
  }

  {
    std::lock_guard<std::mutex> lock(editions_mutex_);
    editions_.clear();
    editions_.push_back(edition);
  }
  current_edition_.store(edition.get(), std::memory_order_seq_cst);
  base_n_ = data->size();
  next_id_.store(static_cast<VectorId>(base_n_), std::memory_order_relaxed);
  compactions_.store(0, std::memory_order_relaxed);
  rebuilds_.store(0, std::memory_order_relaxed);
  build_stats_.build_seconds = timer.ElapsedSeconds();
  return Status::OK();
}

Status DynamicIndex::ValidateInsertItems(std::span<const ItemId> items,
                                         size_t dimension) {
  if (items.empty()) {
    return Status::InvalidArgument("cannot insert an empty vector");
  }
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i] >= dimension) {
      return Status::InvalidArgument(
          "item outside the distribution's universe");
    }
    if (i > 0 && items[i] <= items[i - 1]) {
      return Status::InvalidArgument("items must be strictly increasing");
    }
  }
  return Status::OK();
}

Status DynamicIndex::ApplyInsert(VectorId id, std::span<const ItemId> items,
                                 size_t* num_filters, bool journal,
                                 bool replay, bool* applied) {
  if (applied != nullptr) *applied = true;
  Shard& shard =
      *shards_[static_cast<size_t>(ShardedIndex::ShardOf(id, num_shards()))];

  // Path generation happens outside any lock against the shard's
  // current edition (editions live for the index lifetime, so the raw
  // pointer stays valid past the pin).
  const Edition* edition = nullptr;
  {
    EpochManager::Guard guard = epochs_.Pin();
    edition = shard.state.load(std::memory_order_seq_cst)->edition.get();
  }
  std::vector<uint64_t> keys;
  std::vector<size_t> key_offsets;
  auto compute = [&](const Edition& ed) {
    // Fused all-repetitions pass; identical to per-rep concatenation.
    ed.family.ComputeAllFilters(items, &keys, &key_offsets);
  };
  compute(*edition);

  bool collect = false;
  {
    MutexLock lock(shard.writer);
    const ShardState& s1 = *shard.owner;
    if (replay && (s1.inserted.contains(id) || s1.tombstones.contains(id))) {
      // The restored snapshot already covers this logged mutation
      // (checkpoint raced the log append); replay is idempotent.
      if (applied != nullptr) *applied = false;
      return Status::OK();
    }
    if (s1.edition.get() != edition) {
      // A rebuild migrated the shard between key generation and the
      // lock; regenerate under the edition the postings must match
      // (rare).
      compute(*s1.edition);
    }
    if (num_filters != nullptr) *num_filters = keys.size();
    auto next = std::make_shared<ShardState>(s1);
    auto record = std::make_shared<ShardState::InsertedVector>();
    record->items.assign(items.begin(), items.end());
    record->entries = static_cast<uint32_t>(keys.size());
    next->inserted.Put(id, std::move(record));
    // Copy-on-write the touched buckets + posting lists, keeping each
    // list sorted by id so the documented scan order (key position,
    // base-before-delta, id) holds regardless of which writer won the
    // lock first.
    next->AppendDeltaAll(keys, id);
    next->live_entries += keys.size();
    collect = PublishLocked(&shard, std::move(next));
    if (journal) {
      // Durability before acknowledgement: still under the shard's
      // writer mutex, so per-shard journal order matches apply order
      // and SetMutationJournal() can act as a barrier. On error the
      // mutation is applied in memory but unacknowledged (recovery may
      // legitimately not contain it).
      MutationJournal* sink = journal_.load(std::memory_order_acquire);
      if (sink != nullptr) {
        Status logged = sink->LogInsert(id, items);
        if (!logged.ok()) return logged;
      }
    }
  }
  if (collect) epochs_.Collect();
  return Status::OK();
}

Result<VectorId> DynamicIndex::Insert(std::span<const ItemId> items,
                                      size_t* num_filters) {
  if (!built()) return Status::InvalidArgument("index not built");
  SKEWSEARCH_RETURN_NOT_OK(ValidateInsertItems(items, dist_->dimension()));
  // The maximum VectorId is a sentinel that is never handed out and
  // never incremented past, so exhaustion is sticky: the counter cannot
  // wrap back into the live id range and reissue ids.
  VectorId id = next_id_.load(std::memory_order_relaxed);
  do {
    if (id == std::numeric_limits<VectorId>::max()) {
      return Status::Internal("vector id space exhausted");
    }
  } while (!next_id_.compare_exchange_weak(id, id + 1,
                                           std::memory_order_relaxed));

  SKEWSEARCH_RETURN_NOT_OK(ApplyInsert(id, items, num_filters,
                                       /*journal=*/true, /*replay=*/false,
                                       nullptr));
  return id;
}

Result<bool> DynamicIndex::ReplayInsert(VectorId id,
                                        std::span<const ItemId> items) {
  if (!built()) return Status::InvalidArgument("index not built");
  SKEWSEARCH_RETURN_NOT_OK(ValidateInsertItems(items, dist_->dimension()));
  if (id < base_n_) {
    return Status::InvalidArgument(
        "replayed insert id collides with the base dataset");
  }
  if (id == std::numeric_limits<VectorId>::max()) {
    return Status::InvalidArgument("replayed insert id is the sentinel");
  }
  // Bump the allocator past the logged id so post-recovery Insert()
  // traffic cannot reissue it.
  VectorId cur = next_id_.load(std::memory_order_relaxed);
  while (cur <= id && !next_id_.compare_exchange_weak(
                          cur, id + 1, std::memory_order_relaxed)) {
  }
  bool applied = false;
  SKEWSEARCH_RETURN_NOT_OK(ApplyInsert(id, items, nullptr,
                                       /*journal=*/false, /*replay=*/true,
                                       &applied));
  return applied;
}

Result<bool> DynamicIndex::ReplayRemove(VectorId id) {
  Status removed = RemoveImpl(id, /*journal=*/false);
  if (removed.ok()) return true;
  if (removed.code() == Status::Code::kNotFound) {
    // Already gone in the restored snapshot (checkpoint raced the log
    // append); replay is idempotent.
    return false;
  }
  return removed;
}

Status DynamicIndex::Remove(VectorId id) {
  return RemoveImpl(id, /*journal=*/true);
}

Status DynamicIndex::RemoveImpl(VectorId id, bool journal) {
  if (!built()) return Status::InvalidArgument("index not built");
  if (id >= next_id_.load(std::memory_order_relaxed)) {
    return Status::NotFound("no such vector id");
  }
  const int s = ShardedIndex::ShardOf(id, num_shards());
  Shard& shard = *shards_[static_cast<size_t>(s)];
  bool collect = false;
  {
    MutexLock lock(shard.writer);
    const ShardState& s1 = *shard.owner;
    uint32_t entries = 0;
    if (id < base_n_) {
      if (s1.removed_base.contains(id)) {
        return Status::NotFound("vector already removed");
      }
      auto it = s1.base_counts->find(id);
      entries = it != s1.base_counts->end() ? it->second : 0;
    } else {
      const ShardState::InsertedVector* record = s1.FindInserted(id);
      if (record == nullptr) {
        return Status::NotFound("no such vector id");
      }
      entries = record->entries;
    }
    auto next = std::make_shared<ShardState>(s1);
    if (id < base_n_) {
      next->removed_base.Put(id, NoValue{});
    } else {
      next->inserted.Erase(id);
    }
    next->tombstones.Put(id, entries);
    next->dead_entries += entries;
    next->live_entries -= std::min<size_t>(next->live_entries, entries);
    const size_t total = next->live_entries + next->dead_entries;
    const bool wants_maintenance =
        total > 0 &&
        static_cast<double>(next->dead_entries) >
            options_.compact_dead_fraction * static_cast<double>(total);
    collect = PublishLocked(&shard, std::move(next));
    if (journal) {
      // Same contract as the insert path: log before acknowledging,
      // under the shard's writer mutex.
      MutationJournal* sink = journal_.load(std::memory_order_acquire);
      if (sink != nullptr) {
        Status logged = sink->LogRemove(id);
        if (!logged.ok()) return logged;
      }
    }
    if (wants_maintenance) {
      // Never compact in the remover's thread: hand the shard to the
      // maintenance component (if any) and return. Notified under the
      // shard's writer mutex so SetMaintenanceListener() can act as a
      // barrier against in-flight callbacks (see its contract).
      MaintenanceListener* listener =
          listener_.load(std::memory_order_acquire);
      if (listener != nullptr) listener->OnShardDirty(s);
    }
  }
  if (collect) epochs_.Collect();
  return Status::OK();
}

void DynamicIndex::SetMutationJournal(MutationJournal* journal) {
  journal_.store(journal, std::memory_order_seq_cst);
  // Barrier, exactly as SetMaintenanceListener: journal calls run under
  // a shard writer mutex, so sweeping every one guarantees no call into
  // a *previous* journal is still in flight when this returns.
  for (const auto& shard : shards_) {
    MutexLock lock(shard->writer);
  }
}

void DynamicIndex::SetMaintenanceListener(MaintenanceListener* listener) {
  listener_.store(listener, std::memory_order_seq_cst);
  // Barrier: notifications fire under a shard writer mutex, so taking
  // and releasing every one guarantees no callback to a *previous*
  // listener is still in flight when this returns — making it safe to
  // destroy the old listener afterwards.
  for (const auto& shard : shards_) {
    MutexLock lock(shard->writer);
  }
}

Status DynamicIndex::CompactShard(int s) {
  if (!built()) return Status::InvalidArgument("index not built");
  if (s < 0 || s >= num_shards()) {
    return Status::InvalidArgument("shard index out of range");
  }
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  std::shared_ptr<const ShardState> s0 = OwnerOf(s);
  // Compaction has two jobs: dropping tombstoned postings and folding
  // the delta into the frozen base (a grown delta slows both queries —
  // one extra hash probe per key — and the COW write path, which clones
  // delta buckets). Nothing to do only when both are absent.
  if (s0->tombstones.size() == 0 && s0->delta.size() == 0) {
    return Status::OK();
  }

  // Phase 1 (no locks held): rebuild the frozen table from the pinned
  // snapshot, dropping tombstoned postings and folding the delta in.
  std::vector<Posting> postings;
  postings.reserve(s0->live_entries);
  for (size_t k = 0; k < s0->base->num_keys(); ++k) {
    const uint64_t key = s0->base->key_at(k);
    for (VectorId id : s0->base->postings_at(k)) {
      if (!s0->tombstones.contains(id)) postings.push_back({key, id});
    }
  }
  s0->delta.ForEach([&](uint64_t key, const auto& ids) {
    for (VectorId id : *ids) {
      if (!s0->tombstones.contains(id)) postings.push_back({key, id});
    }
  });
  FilterTable fresh = FilterTable::Build(std::move(postings));

  // Phase 2: merge the mutations that raced phase 1 and publish. The
  // lock section is bounded by that churn, not by the shard size.
  Shard& shard = *shards_[static_cast<size_t>(s)];
  {
    MutexLock lock(shard.writer);
    const ShardState& s1 = *shard.owner;
    if (s1.edition != s0->edition) {
      return Status::OK();  // a rebuild superseded this compaction
    }
    auto next = std::make_shared<ShardState>();
    next->edition = s1.edition;
    next->base = std::make_shared<FilterTable>(std::move(fresh));
    next->base_counts = s1.base_counts;
    next->inserted = s1.inserted;
    next->removed_base = s1.removed_base;
    // Postings of vectors inserted after the snapshot stay in the delta;
    // everything the snapshot covered is now in the base table.
    size_t delta_entries = 0;
    ShardState::Delta::Builder kept;
    s1.delta.ForEach([&](uint64_t key, const auto& ids) {
      std::vector<VectorId> keep;
      for (VectorId id : *ids) {
        if (!s0->inserted.contains(id) && !s0->tombstones.contains(id)) {
          keep.push_back(id);
        }
      }
      if (!keep.empty()) {
        delta_entries += keep.size();
        kept.Add(key, std::make_shared<const std::vector<VectorId>>(
                          std::move(keep)));
      }
    });
    next->delta = std::move(kept).Build();
    // Tombstones the snapshot did not cover keep their (still physically
    // present) postings and stay dead until the next compaction.
    size_t dead = 0;
    ShardState::Tombstones::Builder kept_tombs;
    s1.tombstones.ForEach([&](VectorId id, uint32_t entries) {
      if (!s0->tombstones.contains(id)) {
        kept_tombs.Add(id, entries);
        dead += entries;
      }
    });
    next->tombstones = std::move(kept_tombs).Build();
    next->dead_entries = dead;
    const size_t total = next->base->num_pairs() + delta_entries;
    next->live_entries = total - std::min(total, dead);
    PublishLocked(&shard, std::move(next));
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  epochs_.Collect();
  return Status::OK();
}

Status DynamicIndex::RebuildShardLocked(
    int s, std::shared_ptr<const Edition> edition) {
  std::shared_ptr<const ShardState> s0 = OwnerOf(s);
  const FilterFamily& family = edition->family;

  // Phase 1 (no locks held): replay the path engine under the new
  // edition for every vector that was live in the snapshot.
  std::vector<Posting> postings;
  auto base_counts = std::make_shared<PostingMap<VectorId, uint32_t>>();
  PostingMap<VectorId, uint32_t> replayed;  // live inserted ids
  std::vector<uint64_t> keys;
  std::vector<size_t> key_offsets;
  auto replay = [&](std::span<const ItemId> items, VectorId id) {
    // Fused all-repetitions pass; identical to per-rep concatenation.
    family.ComputeAllFilters(items, &keys, &key_offsets);
    for (uint64_t key : keys) postings.push_back({key, id});
    return static_cast<uint32_t>(keys.size());
  };
  for (VectorId id = 0; id < base_n_; ++id) {
    if (ShardedIndex::ShardOf(id, num_shards()) != s) continue;
    if (s0->removed_base.contains(id)) continue;
    const uint32_t count = replay(data_->Get(id), id);
    if (count > 0) base_counts->emplace(id, count);
  }
  const std::vector<VectorId> inserted_ids = s0->inserted.SortedKeys();
  // New-edition records for every vector inserted as of the snapshot are
  // also built here, off-lock — the merge below must not pay O(shard)
  // item copies while holding the writer mutex.
  PostingMap<VectorId, std::shared_ptr<const ShardState::InsertedVector>>
      prebuilt;
  prebuilt.reserve(inserted_ids.size());
  for (VectorId id : inserted_ids) {
    const ShardState::InsertedVector& record = *s0->FindInserted(id);
    const uint32_t count =
        replay({record.items.data(), record.items.size()}, id);
    replayed.emplace(id, count);
    auto fresh_record = std::make_shared<ShardState::InsertedVector>();
    fresh_record->items = record.items;
    fresh_record->entries = count;
    prebuilt.emplace(id, std::move(fresh_record));
  }
  FilterTable fresh = FilterTable::Build(std::move(postings));

  // Phase 2: short merge of the churn that raced the replay, publish.
  Shard& shard = *shards_[static_cast<size_t>(s)];
  MutexLock lock(shard.writer);
  const ShardState& s1 = *shard.owner;
  if (s1.edition != s0->edition) {
    return Status::Internal("concurrent edition change during rebuild");
  }
  auto next = std::make_shared<ShardState>();
  next->edition = edition;
  next->base_counts = base_counts;
  next->removed_base = s1.removed_base;
  size_t delta_entries = 0;
  PostingMap<uint64_t, std::vector<VectorId>> delta;
  ShardState::Inserted::Builder records;
  s1.inserted.ForEach([&](VectorId id, const auto& record) {
    auto done = prebuilt.find(id);
    if (done != prebuilt.end()) {
      // Folded into the fresh base table; the new-edition record was
      // already built off-lock — O(1) here.
      records.Add(id, std::move(done->second));
      return;
    }
    // Inserted while we were replaying: generate its postings under
    // the new edition now (bounded by the churn, not the shard size).
    family.ComputeAllFilters({record->items.data(), record->items.size()},
                             &keys, &key_offsets);
    for (uint64_t key : keys) delta[key].push_back(id);
    delta_entries += keys.size();
    auto fresh_record = std::make_shared<ShardState::InsertedVector>();
    fresh_record->items = record->items;
    fresh_record->entries = static_cast<uint32_t>(keys.size());
    records.Add(id, std::move(fresh_record));
  });
  next->inserted = std::move(records).Build();
  ShardState::Delta::Builder lists;
  for (auto& [key, ids] : delta) {
    std::sort(ids.begin(), ids.end());
    lists.Add(key,
              std::make_shared<const std::vector<VectorId>>(std::move(ids)));
  }
  next->delta = std::move(lists).Build();
  size_t dead = 0;
  ShardState::Tombstones::Builder tombs;
  s1.tombstones.ForEach([&](VectorId id, uint32_t /*old_entries*/) {
    if (s0->tombstones.contains(id)) return;  // not regenerated
    uint32_t entries = 0;
    if (id < base_n_) {
      auto it = base_counts->find(id);
      entries = it != base_counts->end() ? it->second : 0;
    } else {
      auto it = replayed.find(id);
      if (it == replayed.end()) return;  // insert+remove raced phase 1
      entries = it->second;
    }
    tombs.Add(id, entries);
    dead += entries;
  });
  next->tombstones = std::move(tombs).Build();
  next->base = std::make_shared<FilterTable>(std::move(fresh));
  next->dead_entries = dead;
  const size_t total = next->base->num_pairs() + delta_entries;
  next->live_entries = total - std::min(total, dead);
  PublishLocked(&shard, std::move(next));
  return Status::OK();
}

Status DynamicIndex::RebuildForSize(size_t target_n) {
  if (!built()) return Status::InvalidArgument("index not built");
  if (target_n < 2) {
    return Status::InvalidArgument("target size must be at least 2");
  }
  std::lock_guard<std::mutex> maintenance(maintenance_mutex_);
  Result<FilterFamily> family =
      FilterFamily::Create(dist_, options_.index, target_n);
  if (!family.ok()) return family.status();
  auto edition = std::make_shared<Edition>();
  edition->family = std::move(family).value();
  edition->derived_n = target_n;
  {
    std::lock_guard<std::mutex> lock(editions_mutex_);
    edition->version = static_cast<uint64_t>(editions_.size());
    editions_.push_back(edition);
  }
  for (int s = 0; s < num_shards(); ++s) {
    SKEWSEARCH_RETURN_NOT_OK(RebuildShardLocked(s, edition));
  }
  current_edition_.store(edition.get(), std::memory_order_seq_cst);
  rebuilds_.fetch_add(1, std::memory_order_relaxed);
  epochs_.Collect();
  return Status::OK();
}

/// The query driver's view of one pinned shard snapshot
/// (core/query_driver.h): a key's base postings, then its delta
/// postings; a tombstoned id has no items.
struct DynamicIndex::ShardView {
  const DynamicIndex* index;
  const ShardState* state;

  const FilterFamily& family() const { return state->edition->family; }

  template <typename Fn>
  bool Scan(uint64_t key, QueryStats* stats, Fn&& fn) const {
    const std::span<const VectorId> postings = state->base->Lookup(key);
    stats->candidates += postings.size();
    for (VectorId id : postings) {
      if (fn(uint8_t{0}, id)) return true;
    }
    const std::vector<VectorId>* delta = state->FindDelta(key);
    if (delta == nullptr) return false;
    stats->candidates += delta->size();
    for (VectorId id : *delta) {
      if (fn(uint8_t{1}, id)) return true;
    }
    return false;
  }

  std::span<const ItemId> Items(VectorId id) const {
    if (state->tombstones.contains(id)) return {};
    if (id < index->base_n_) return index->data_->Get(id);
    const ShardState::InsertedVector* record = state->FindInserted(id);
    if (record == nullptr) return {};
    return {record->items.data(), record->items.size()};
  }
};

std::optional<Match> DynamicIndex::QueryImpl(
    const std::vector<const void*>& states, std::span<const ItemId> query,
    QueryStats* stats, query_internal::Scratch* scratch) const {
  return query_internal::FirstMatch(
      query, states.size(),
      [&](size_t s) {
        return ShardView{this, static_cast<const ShardState*>(states[s])};
      },
      stats, scratch);
}

std::optional<Match> DynamicIndex::Query(std::span<const ItemId> query,
                                         QueryStats* stats) const {
  return GetSnapshot().Query(query, stats);
}

std::vector<Match> DynamicIndex::QueryAll(std::span<const ItemId> query,
                                          double threshold,
                                          QueryStats* stats) const {
  return GetSnapshot().QueryAll(query, threshold, stats);
}

DynamicIndex::Snapshot DynamicIndex::GetSnapshot() const {
  Snapshot snapshot;
  if (!built()) return snapshot;
  snapshot.index_ = this;
  snapshot.guard_ = epochs_.Pin();
  snapshot.states_.reserve(shards_.size());
  for (const auto& shard : shards_) {
    snapshot.states_.push_back(
        shard->state.load(std::memory_order_seq_cst));
  }
  return snapshot;
}

std::optional<Match> DynamicIndex::Snapshot::Query(
    std::span<const ItemId> query, QueryStats* stats) const {
  if (!valid()) {
    if (stats != nullptr) *stats = QueryStats{};
    return std::nullopt;
  }
  query_internal::Scratch scratch;
  return index_->QueryImpl(states_, query, stats, &scratch);
}

std::vector<Match> DynamicIndex::Snapshot::QueryAll(
    std::span<const ItemId> query, double threshold,
    QueryStats* stats) const {
  if (!valid()) {
    if (stats != nullptr) *stats = QueryStats{};
    return {};
  }
  return query_internal::AllMatches(
      query, threshold, states_.size(),
      [this](size_t s) {
        return ShardView{index_, static_cast<const ShardState*>(states_[s])};
      },
      stats);
}

size_t DynamicIndex::Snapshot::size() const {
  if (!valid()) return 0;
  size_t live = index_->base_n_;
  for (const void* raw : states_) {
    const auto* state = static_cast<const ShardState*>(raw);
    live += state->inserted.size();
    live -= state->removed_base.size();
  }
  return live;
}

std::vector<std::optional<Match>> DynamicIndex::BatchQuery(
    const Dataset& queries, ThreadPool* pool, std::vector<QueryStats>* stats,
    BatchQueryStats* batch_stats) const {
  // One pinned snapshot for the whole batch: a consistent cross-shard
  // cut, unaffected by concurrent writers, compaction or rebuild.
  Snapshot snapshot = GetSnapshot();
  return batch_internal::Run<query_internal::Scratch>(
      queries, pool, stats, batch_stats,
      [&](size_t i, query_internal::Scratch* scratch,
          QueryStats* query_stats) {
        return QueryImpl(snapshot.states_,
                         queries.Get(static_cast<VectorId>(i)), query_stats,
                         scratch);
      },
      [](const query_internal::Scratch& scratch, BatchQueryStats* agg) {
        AddPathGenStats(&agg->path_gen, scratch.path_gen);
      });
}

bool DynamicIndex::IsLive(VectorId id) const {
  if (!built() || id >= next_id_.load(std::memory_order_relaxed)) {
    return false;
  }
  EpochManager::Guard guard = epochs_.Pin();
  const ShardState* state =
      shards_[static_cast<size_t>(ShardedIndex::ShardOf(id, num_shards()))]
          ->state.load(std::memory_order_seq_cst);
  if (id < base_n_) return !state->removed_base.contains(id);
  return state->inserted.contains(id);
}

size_t DynamicIndex::size() const {
  if (!built()) return 0;
  return GetSnapshot().size();
}

size_t DynamicIndex::num_tombstones() const {
  if (!built()) return 0;
  EpochManager::Guard guard = epochs_.Pin();
  size_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->state.load(std::memory_order_seq_cst)->tombstones.size();
  }
  return total;
}

ShardHealth DynamicIndex::Health(int s) const {
  ShardHealth health;
  if (!built() || s < 0 || s >= num_shards()) return health;
  EpochManager::Guard guard = epochs_.Pin();
  const ShardState* state =
      shards_[static_cast<size_t>(s)]->state.load(std::memory_order_seq_cst);
  health.live_entries = state->live_entries;
  health.dead_entries = state->dead_entries;
  state->delta.ForEach([&](uint64_t /*key*/, const auto& ids) {
    health.delta_entries += ids->size();
  });
  health.tombstones = state->tombstones.size();
  health.edition = state->edition->version;
  const size_t total = health.live_entries + health.dead_entries;
  health.dead_ratio =
      total > 0 ? static_cast<double>(health.dead_entries) /
                      static_cast<double>(total)
                : 0.0;
  return health;
}

OnlineIndexProfile DynamicIndex::Profile() const {
  OnlineIndexProfile profile;
  if (!built()) return profile;
  EpochManager::Guard guard = epochs_.Pin();
  for (const auto& shard : shards_) {
    const ShardState* state =
        shard->state.load(std::memory_order_seq_cst);
    profile.base_entries += state->base->num_pairs();
    profile.dead_entries += state->dead_entries;
    profile.delta_keys += state->delta.size();
    state->delta.ForEach([&](uint64_t /*key*/, const auto& ids) {
      profile.delta_entries += ids->size();
    });
  }
  return profile;
}

size_t DynamicIndex::derived_n() const {
  const Edition* edition = current_edition_.load(std::memory_order_acquire);
  return edition != nullptr ? edition->derived_n : 0;
}

uint64_t DynamicIndex::edition_version() const {
  const Edition* edition = current_edition_.load(std::memory_order_acquire);
  return edition != nullptr ? edition->version : 0;
}

int DynamicIndex::repetitions() const {
  const Edition* edition = current_edition_.load(std::memory_order_acquire);
  return edition != nullptr ? edition->family.repetitions() : 0;
}

double DynamicIndex::verify_threshold() const {
  const Edition* edition = current_edition_.load(std::memory_order_acquire);
  return edition != nullptr ? edition->family.verify_threshold() : 0.0;
}

const FilterFamily& DynamicIndex::family() const {
  static const FilterFamily kEmpty;
  const Edition* edition = current_edition_.load(std::memory_order_acquire);
  return edition != nullptr ? edition->family : kEmpty;
}

size_t DynamicIndex::MemoryBytes() const {
  if (!built()) return 0;
  EpochManager::Guard guard = epochs_.Pin();
  size_t total = 0;
  for (const auto& shard : shards_) {
    const ShardState* state =
        shard->state.load(std::memory_order_seq_cst);
    total += state->base->MemoryBytes();
    state->delta.ForEach([&](uint64_t key, const auto& ids) {
      total += sizeof(key) + ids->capacity() * sizeof(VectorId);
    });
    total +=
        state->tombstones.size() * (sizeof(VectorId) + sizeof(uint32_t));
    state->inserted.ForEach([&](VectorId id, const auto& record) {
      total += sizeof(id) + record->items.capacity() * sizeof(ItemId);
    });
  }
  return total;
}

Status DynamicIndex::ShardState::CheckShard(
    const PostingMap<VectorId, uint32_t>& postings, int s, int num_shards,
    size_t base_n, VectorId next_id) const {
  const char* broken = nullptr;  // the first rule found broken
  auto check = [&](bool holds, const char* rule) {
    if (!holds && broken == nullptr) broken = rule;
  };
  auto placed = [&](VectorId id) {
    return id < next_id && ShardedIndex::ShardOf(id, num_shards) == s;
  };
  auto postings_of = [&](VectorId id) {
    auto it = postings.find(id);
    return it != postings.end() ? it->second : 0u;
  };
  // A live base id's count is what Remove() will charge it.
  auto base_count_holds = [&](VectorId id) {
    auto it = base_counts->find(id);
    const uint32_t counted = it != base_counts->end() ? it->second : 0;
    return removed_base.contains(id) || counted == postings_of(id);
  };
  const char* const base_count_rule =
      "base entry count differs from the id's postings";
  for (const auto& [id, count] : postings) {
    check(placed(id), "postings reference out-of-place vector ids");
    check(id >= base_n || base_count_holds(id), base_count_rule);
  }
  for (const auto& [id, count] : *base_counts) {
    check(base_count_holds(id), base_count_rule);
  }
  size_t delta_entries = 0;
  delta.ForEach([&](uint64_t /*key*/, const auto& ids) {
    check(!ids->empty() && std::is_sorted(ids->begin(), ids->end()),
          "delta posting list empty or not sorted by vector id");
    for (VectorId id : *ids) {
      check(id >= base_n, "delta postings reference base vector ids");
      // Remove() erases an inserted id and tombstones it in one step. An
      // orphan would be folded into the base by compaction and also kept
      // in the delta, live twice.
      check(inserted.contains(id) || tombstones.contains(id),
            "delta postings reference an id neither inserted nor "
            "tombstoned");
    }
    delta_entries += ids->size();
  });
  uint64_t tombstone_entries = 0;
  tombstones.ForEach([&](VectorId id, uint32_t entries) {
    check(placed(id), "tombstones reference out-of-place vector ids");
    // Unlisted, the id could be removed and charged dead a second time.
    check(id >= base_n || removed_base.contains(id),
          "tombstoned base id missing from the removed-base set");
    check(!inserted.contains(id), "tombstoned id is still inserted");
    check(entries == postings_of(id),
          "tombstone entry count differs from the id's postings");
    tombstone_entries += entries;
  });
  removed_base.ForEach([&](VectorId id, NoValue /*none*/) {
    check(id < base_n && placed(id),
          "removed-base ids reference out-of-place vector ids");
    // Compaction drops a removed base id's postings with its tombstone;
    // one still posted without a tombstone would be served as live.
    check(tombstones.contains(id) || postings_of(id) == 0,
          "removed base id without a tombstone still has postings");
  });
  inserted.ForEach([&](VectorId id, const auto& record) {
    check(id >= base_n && placed(id),
          "inserted ids reference out-of-place vector ids");
    check(record->entries == postings_of(id),
          "inserted entry count differs from the id's postings");
  });
  const size_t physical = base->num_pairs() + delta_entries;
  check(live_entries + dead_entries == physical,
        "live and dead entries differ from the shard's postings");
  check(dead_entries == tombstone_entries,
        "dead entries differ from the tombstones' entry counts");
  if (broken == nullptr) return Status::OK();
  return Status::InvalidArgument("shard " + std::to_string(s) + ": " +
                                 broken);
}

Status DynamicIndex::CheckInvariants() const {
  if (!built()) return Status::OK();
  Snapshot snapshot = GetSnapshot();
  // Read after the pin, so every id the snapshot holds is below it.
  const VectorId next_id = next_id_.load(std::memory_order_relaxed);
  for (size_t s = 0; s < snapshot.states_.size(); ++s) {
    const auto& state = *static_cast<const ShardState*>(snapshot.states_[s]);
    Status checked = state.CheckShard(state.EntriesPerId(), static_cast<int>(s),
                                      num_shards(), base_n_, next_id);
    if (!checked.ok()) return Status::Internal(checked.message());
  }
  return Status::OK();
}

Status DynamicIndex::Save(const std::string& path) const {
  if (!built()) {
    return Status::InvalidArgument("cannot save an unbuilt index");
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  // One pinned snapshot: cross-shard consistent, and writers are never
  // blocked while we serialize.
  Snapshot snapshot = GetSnapshot();
  std::vector<std::shared_ptr<const Edition>> editions;
  uint32_t current_version = 0;
  {
    std::lock_guard<std::mutex> lock(editions_mutex_);
    editions = editions_;
    // Recorded explicitly: a save can race a rebuild that has already
    // appended its new edition but not yet migrated every shard, in
    // which case the newest edition is *not* the current one — loading
    // it as current would report parameters no shard serves and pin
    // derived_n at the rebuild target, so the drift trigger could never
    // fire again to finish the migration.
    current_version = static_cast<uint32_t>(
        current_edition_.load(std::memory_order_seq_cst)->version);
  }

  out.write(kDynamicMagic, sizeof(kDynamicMagic));
  const uint32_t num_shards = static_cast<uint32_t>(shards_.size());
  const uint64_t base_n = base_n_;
  const uint32_t next_id = next_id_.load(std::memory_order_relaxed);
  bool ok = io::WriteParams(out, options_.index,
                            editions[0]->family.verify_threshold(),
                            build_stats_) &&
            io::WritePod(out, io::Fingerprint(*data_)) &&
            io::WritePod(out, num_shards) &&
            io::WritePod(out, options_.compact_dead_fraction) &&
            io::WritePod(out, base_n) && io::WritePod(out, next_id);
  const uint32_t num_editions = static_cast<uint32_t>(editions.size());
  ok = ok && io::WritePod(out, num_editions) &&
       io::WritePod(out, current_version);
  for (const auto& edition : editions) {
    const uint64_t derived_n = edition->derived_n;
    const int32_t repetitions = edition->family.repetitions();
    const double delta = edition->family.delta();
    const double verify_threshold = edition->family.verify_threshold();
    ok = ok && io::WritePod(out, derived_n) &&
         io::WritePod(out, repetitions) && io::WritePod(out, delta) &&
         io::WritePod(out, verify_threshold);
  }
  if (!ok) return Status::IOError("header write to '" + path + "' failed");

  for (const void* raw : snapshot.states_) {
    const auto* state = static_cast<const ShardState*>(raw);
    const uint32_t edition_version =
        static_cast<uint32_t>(state->edition->version);
    ok = io::WritePod(out, edition_version);
    if (!ok) return Status::IOError("shard write to '" + path + "' failed");
    SKEWSEARCH_RETURN_NOT_OK(state->base->WriteTo(&out));
    // The four registries, one block each (posting order within a delta
    // key is kept as stored). Entry counts are not written: Load derives
    // them from the postings. A failed write leaves `out` failed, which
    // the footer's writes report.
    state->delta.Write(out, [](std::ostream& to, const auto& ids) {
      io::WriteVector(to, *ids);
    });
    state->tombstones.Write(out, [](std::ostream& to, uint32_t entries) {
      io::WritePod(to, entries);
    });
    state->removed_base.Write(out, [](std::ostream& /*to*/, NoValue) {});
    state->inserted.Write(out, [](std::ostream& to, const auto& record) {
      io::WriteVector(to, record->items);
    });
    uint64_t live = state->live_entries, dead = state->dead_entries;
    ok = io::WritePod(out, live) && io::WritePod(out, dead);
    if (!ok) return Status::IOError("shard write to '" + path + "' failed");
  }
  out.flush();
  if (!out) return Status::IOError("flush of '" + path + "' failed");
  return Status::OK();
}

Status DynamicIndex::Load(const std::string& path, const Dataset* data,
                          const ProductDistribution* dist) {
  if (data == nullptr || dist == nullptr) {
    return Status::InvalidArgument("data and dist must be non-null");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kDynamicMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument(
        "'" + path + "' is not a skewsearch dynamic index file");
  }
  io::ParamHeader header;
  Status params = io::ReadParams(in, &header);
  if (!params.ok()) {
    return Status::InvalidArgument(params.message() + " in '" + path + "'");
  }
  uint64_t fingerprint = 0, base_n = 0;
  uint32_t num_shards = 0, next_id = 0, num_editions = 0;
  uint32_t current_version = 0;
  double compact_fraction = 0.0;
  if (!io::ReadPod(in, &fingerprint) || !io::ReadPod(in, &num_shards) ||
      !io::ReadPod(in, &compact_fraction) || !io::ReadPod(in, &base_n) ||
      !io::ReadPod(in, &next_id) || !io::ReadPod(in, &num_editions) ||
      !io::ReadPod(in, &current_version)) {
    return Status::InvalidArgument("truncated index header in '" + path +
                                   "'");
  }
  if (fingerprint != io::Fingerprint(*data)) {
    return Status::InvalidArgument(
        "dataset does not match the one this index was built from");
  }
  if (data->dimension() > dist->dimension()) {
    return Status::InvalidArgument(
        "dataset items exceed the distribution's universe");
  }
  if (base_n != data->size() || next_id < base_n) {
    return Status::InvalidArgument("corrupt id bounds in '" + path + "'");
  }
  if (num_shards < 1 || num_shards > kMaxShards) {
    return Status::InvalidArgument("corrupt shard count in '" + path + "'");
  }
  if (!(compact_fraction > 0.0) || !std::isfinite(compact_fraction)) {
    return Status::InvalidArgument("corrupt compaction threshold in '" +
                                   path + "'");
  }
  if (num_editions < 1 || num_editions > kMaxEditions) {
    return Status::InvalidArgument("corrupt edition count in '" + path +
                                   "'");
  }
  if (current_version >= num_editions) {
    return Status::InvalidArgument("corrupt current edition in '" + path +
                                   "'");
  }
  std::vector<std::shared_ptr<const Edition>> editions;
  editions.reserve(num_editions);
  for (uint32_t e = 0; e < num_editions; ++e) {
    uint64_t derived_n = 0;
    int32_t repetitions = 0;
    double delta = 0.0, verify_threshold = 0.0;
    if (!io::ReadPod(in, &derived_n) || !io::ReadPod(in, &repetitions) ||
        !io::ReadPod(in, &delta) || !io::ReadPod(in, &verify_threshold)) {
      return Status::InvalidArgument("truncated edition block in '" + path +
                                     "'");
    }
    if (derived_n < 2) {
      return Status::InvalidArgument("corrupt edition block in '" + path +
                                     "'");
    }
    Result<FilterFamily> family = FilterFamily::Restore(
        dist, header.options, static_cast<size_t>(derived_n), repetitions,
        delta, verify_threshold);
    if (!family.ok()) {
      return Status::InvalidArgument("corrupt edition block in '" + path +
                                     "': " + family.status().message());
    }
    auto edition = std::make_shared<Edition>();
    edition->family = std::move(family).value();
    edition->version = e;
    edition->derived_n = static_cast<size_t>(derived_n);
    editions.push_back(std::move(edition));
  }

  // Readers of the registry blocks' values: false on a short read.
  auto read_ids = [](std::istream& from, uint64_t /*key*/, auto* list) {
    std::vector<VectorId> ids;
    if (!io::ReadVector(from, &ids)) return false;
    *list = std::make_shared<const std::vector<VectorId>>(std::move(ids));
    return true;
  };
  auto read_u32 = [](std::istream& from, VectorId /*id*/, uint32_t* value) {
    return io::ReadPod(from, value);
  };
  auto read_nothing = [](std::istream& /*from*/, VectorId, NoValue*) {
    return true;
  };
  const int shard_count = static_cast<int>(num_shards);
  std::vector<std::unique_ptr<Shard>> shards;
  shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    uint32_t edition_version = 0;
    if (!io::ReadPod(in, &edition_version) ||
        edition_version >= num_editions) {
      return Status::InvalidArgument("corrupt shard edition in '" + path +
                                     "'");
    }
    auto state = std::make_shared<ShardState>();
    state->edition = editions[edition_version];
    auto base = std::make_shared<FilterTable>();
    SKEWSEARCH_RETURN_NOT_OK(base->ReadFrom(&in));
    state->base = std::move(base);
    SKEWSEARCH_RETURN_NOT_OK(state->delta.Read(in, "delta key", read_ids));
    // Entry counts are not saved: each is the postings its id has. Base
    // ids keep theirs in the shard's count map, inserted ids in their
    // records.
    const PostingMap<VectorId, uint32_t> entries = state->EntriesPerId();
    auto base_counts = std::make_shared<PostingMap<VectorId, uint32_t>>();
    for (const auto& [id, count] : entries) {
      if (id < base_n) base_counts->emplace(id, count);
    }
    state->base_counts = std::move(base_counts);
    auto read_items = [&](std::istream& from, VectorId id, auto* record) {
      auto fresh = std::make_shared<ShardState::InsertedVector>();
      if (!io::ReadVector(from, &fresh->items) ||
          !ValidateInsertItems(fresh->items, dist->dimension()).ok()) {
        return false;
      }
      auto count = entries.find(id);
      if (count != entries.end()) fresh->entries = count->second;
      *record = std::move(fresh);
      return true;
    };
    SKEWSEARCH_RETURN_NOT_OK(state->tombstones.Read(in, "tombstone", read_u32));
    SKEWSEARCH_RETURN_NOT_OK(
        state->removed_base.Read(in, "removed-base id", read_nothing));
    SKEWSEARCH_RETURN_NOT_OK(
        state->inserted.Read(in, "inserted id", read_items));
    uint64_t live = 0, dead = 0;
    if (!io::ReadPod(in, &live) || !io::ReadPod(in, &dead)) {
      return Status::InvalidArgument("corrupt shard footer in '" + path +
                                     "'");
    }
    state->live_entries = static_cast<size_t>(live);
    state->dead_entries = static_cast<size_t>(dead);
    Status checked = state->CheckShard(entries, static_cast<int>(s),
                                       shard_count, base_n, next_id);
    if (!checked.ok()) {
      return Status::InvalidArgument(checked.message() + " in '" + path +
                                     "'");
    }

    auto shard = std::make_unique<Shard>();
    shard->state.store(state.get(), std::memory_order_seq_cst);
    shard->owner = std::move(state);
    shards.push_back(std::move(shard));
  }

  data_ = data;
  dist_ = dist;
  options_.index = header.options;
  options_.num_shards = shard_count;
  options_.compact_dead_fraction = compact_fraction;
  build_stats_ = header.stats;
  base_n_ = static_cast<size_t>(base_n);
  shards_ = std::move(shards);
  {
    std::lock_guard<std::mutex> lock(editions_mutex_);
    editions_ = std::move(editions);
    // The saved current edition, not editions_.back(): the file may
    // capture a rebuild mid-migration, where the newest edition is not
    // yet current. Restoring the true current keeps derived_n() honest
    // so the drift trigger can still fire and finish the migration.
    current_edition_.store(editions_[current_version].get(),
                           std::memory_order_seq_cst);
  }
  next_id_.store(next_id, std::memory_order_relaxed);
  compactions_.store(0, std::memory_order_relaxed);
  rebuilds_.store(0, std::memory_order_relaxed);
  return Status::OK();
}

}  // namespace skewsearch
