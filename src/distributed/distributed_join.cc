#include "distributed/distributed_join.h"

#include <algorithm>
#include <iterator>
#include <span>
#include <string>
#include <utility>

#include "core/frozen_shard.h"
#include "core/index_io.h"
#include "core/sharded_index.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "util/containers.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace skewsearch {

namespace distributed_internal {

/// The route phase's output: one ProbeRequest queue per worker, each
/// sorted by probe id, and the route's work counters.
struct RoutedProbes {
  std::vector<std::vector<ProbeRequest>> queues;
  size_t probes = 0;  ///< non-empty probe vectors
  size_t keys = 0;    ///< keys over all requests
  size_t draws = 0;   ///< PathGenStats::draws of the filter kernel
};

}  // namespace distributed_internal

namespace {

using distributed_internal::RoutedProbes;

/// Whether list \p k of a Build-path worker's \p slice can pair in a
/// self-join, so the attach ships it (AttachRemote). A light key's
/// slice is its whole list, which pairs when it holds two or more ids;
/// a heavy key's slice pairs through the keys a self-join ships,
/// whatever its length. Every other list holds one id.
bool PairingList(const FilterTable& slice, size_t k,
                 const PartitionPlan& plan) {
  return slice.postings_at(k).size() >= 2 ||
         plan.heavy.contains(slice.key_at(k));
}

/// Packs a (left, right) pair for the cross-worker merge dedup.
uint64_t PairKey(VectorId left, VectorId right) {
  return (static_cast<uint64_t>(left) << 32) | right;
}

/// R-S route of probes [begin, end) of \p left: computes each probe's
/// filter keys with the filter kernel, splits them by owner in
/// repetition-major order, and enqueues one ProbeRequest per touched
/// worker. Parallelizes over probes on \p pool; each queue is sorted by
/// probe id afterwards, so the queues are independent of the schedule.
RoutedProbes RouteThroughKernel(const Dataset& left, size_t begin,
                                size_t end, const FilterFamily& family,
                                const PartitionPlan& plan,
                                size_t worker_count, ThreadPool* pool) {
  struct RouteSlot {
    RoutedProbes routed;
    std::vector<uint64_t> keys;
    std::vector<size_t> key_offsets;
    std::vector<std::vector<uint64_t>> worker_keys;
    std::vector<int> owners;
  };
  std::vector<RouteSlot> slots(static_cast<size_t>(pool->num_threads()));
  for (RouteSlot& slot : slots) {
    slot.routed.queues.resize(worker_count);
    slot.worker_keys.resize(worker_count);
  }
  auto route_range = [&](size_t from, size_t to, int slot_id) {
    RouteSlot& slot = slots[static_cast<size_t>(slot_id)];
    RoutedProbes& routed = slot.routed;
    for (size_t i = from; i < to; ++i) {
      const VectorId lid = static_cast<VectorId>(i);
      auto query = left.Get(lid);
      if (query.empty()) continue;  // QueryAll answers empty probes empty
      routed.probes++;
      PathGenStats gen;
      family.ComputeAllFilters(query, &slot.keys, &slot.key_offsets, &gen);
      routed.draws += gen.draws;
      for (uint64_t key : slot.keys) {
        slot.owners.clear();
        plan.RouteKey(key, &slot.owners);
        for (int owner : slot.owners) {
          slot.worker_keys[static_cast<size_t>(owner)].push_back(key);
        }
      }
      for (size_t w = 0; w < worker_count; ++w) {
        if (slot.worker_keys[w].empty()) continue;
        ProbeRequest request;
        request.left = lid;
        request.items = query;
        request.keys = std::move(slot.worker_keys[w]);
        slot.worker_keys[w].clear();
        routed.keys += request.keys.size();
        routed.queues[w].push_back(std::move(request));
      }
    }
  };
  pool->ParallelFor(end - begin, /*grain=*/64,
                    [&](size_t from, size_t to, int slot_id) {
                      route_range(begin + from, begin + to, slot_id);
                    });
  RoutedProbes routed;
  routed.queues.resize(worker_count);
  for (RouteSlot& slot : slots) {
    routed.probes += slot.routed.probes;
    routed.keys += slot.routed.keys;
    routed.draws += slot.routed.draws;
    for (size_t w = 0; w < worker_count; ++w) {
      auto& queue = routed.queues[w];
      queue.insert(queue.end(),
                   std::make_move_iterator(slot.routed.queues[w].begin()),
                   std::make_move_iterator(slot.routed.queues[w].end()));
    }
  }
  for (auto& queue : routed.queues) {
    std::sort(queue.begin(), queue.end(),
              [](const ProbeRequest& a, const ProbeRequest& b) {
                return a.left < b.left;
              });
  }
  return routed;
}

/// Self-join route: F(x) is a pure function of (seed, repetition, x),
/// so every probe's candidates already sit in the lists of the build's
/// posting slices that hold it, and the worker holding such a list
/// pairs the probe there itself (JoinWorker::Probe). The slices are a
/// disjoint cover of the monolithic table, and Build keeps duplicate
/// (key, id) pairs, so each probe x finds all of F(x) there.
///
/// A self-join worker verifies only ids above the probe, so worker o
/// gets a request for x when a list of o holding x also holds an id
/// above it, and ships key k of x to o only when o's slice of k does not
/// hold x but holds an id above it: a heavy key's other slices, or a
/// frozen file's other shards. Any other key would only make o scan a
/// list and skip every entry. The requests carry x's items only when no
/// list o holds from the attach on references x: a remote worker of a
/// Build gets its pairing lists (PairingList) at the attach and its
/// one-id lists only at the first R-S join, and the route, computed once
/// per build, must hold before and after. The coordinator's slices
/// ascend by VectorId within a list, so the probes a list can still pair
/// with are those below its last id. Keys go out in slice order (worker by
/// worker, ascending key within each slice). One pass over the postings
/// counts each request's keys; a second fills them into exactly sized
/// vectors. A plan with no heavy key and no broadcast ships none, so it
/// skips both.
RoutedProbes RouteFromSlices(const Dataset& data, const PartitionPlan& plan,
                             const std::vector<JoinWorker>& workers) {
  const size_t worker_count = workers.size();
  // held[id * W + w]: kStores when a list w holds from the attach on (a
  // pairing list, or any list of a frozen shard) references id, kPairs
  // when a list of w holds id and an id above it.
  constexpr uint8_t kStores = 1;
  constexpr uint8_t kPairs = 2;
  std::vector<uint8_t> held(data.size() * worker_count, 0);
  for (size_t w = 0; w < worker_count; ++w) {
    const FilterTable& table = workers[w].table();
    for (size_t k = 0; k < table.num_keys(); ++k) {
      const std::span<const VectorId> postings = table.postings_at(k);
      const uint8_t stores =
          plan.broadcast || PairingList(table, k, plan) ? kStores : 0;
      for (VectorId id : postings) {
        held[id * worker_count + w] |=
            id < postings.back() ? kStores | kPairs : stores;
      }
    }
  }
  std::vector<int> owners;
  auto for_each_shipped_key = [&](auto&& visit) {
    if (plan.num_heavy_keys() == 0 && !plan.broadcast) return;
    for (size_t holder = 0; holder < worker_count; ++holder) {
      const FilterTable& table = workers[holder].table();
      for (size_t k = 0; k < table.num_keys(); ++k) {
        const uint64_t key = table.key_at(k);
        owners.clear();
        plan.RouteKey(key, &owners);
        const std::span<const VectorId> postings = table.postings_at(k);
        for (int owner : owners) {
          const size_t o = static_cast<size_t>(owner);
          if (o == holder) continue;
          const std::span<const VectorId> slice =
              workers[o].table().Lookup(key);
          if (slice.empty()) continue;
          const auto end =
              std::lower_bound(postings.begin(), postings.end(), slice.back());
          for (auto id = postings.begin(); id != end; ++id) {
            if (!std::binary_search(slice.begin(), slice.end(), *id)) {
              visit(key, *id, o);
            }
          }
        }
      }
    }
  };
  // count[id * W + w]: the keys probe id ships worker w. cursor: where
  // that request's next key goes. A request's key buffer stays put when
  // the request moves, so the cursors outlive the queues' growth.
  std::vector<uint32_t> count(held.size(), 0);
  for_each_shipped_key([&](uint64_t, VectorId id, size_t owner) {
    count[id * worker_count + owner]++;
  });
  std::vector<uint64_t*> cursor(count.size(), nullptr);
  RoutedProbes routed;
  routed.queues.resize(worker_count);
  for (VectorId id = 0; id < data.size(); ++id) {
    auto items = data.Get(id);
    if (!items.empty()) routed.probes++;
    for (size_t w = 0; w < worker_count; ++w) {
      const size_t s = id * worker_count + w;
      if (count[s] == 0 && (held[s] & kPairs) == 0) continue;
      ProbeRequest request;
      request.left = id;
      if ((held[s] & kStores) == 0) request.items = items;
      request.exclude_left_and_below = true;
      request.keys.resize(count[s]);
      cursor[s] = request.keys.data();
      routed.keys += count[s];
      routed.queues[w].push_back(std::move(request));
    }
  }
  for_each_shipped_key([&](uint64_t key, VectorId id, size_t owner) {
    *cursor[id * worker_count + owner]++ = key;
  });
  return routed;
}

/// Checks a remote worker's answer against the join contract: every
/// match names one of the \p build_size build vectors, and a self-join's
/// lies above the probe. The merge emits whatever passes, so a match
/// outside the contract would put a pair into the output that an
/// in-process worker never emits, or an id no dataset holds.
Status CheckMatches(const ProbeRequest& request, const ProbeResponse& response,
                    size_t build_size, size_t worker) {
  for (const Match& match : response.matches) {
    const char* broken = nullptr;
    if (match.id >= build_size) {
      broken = "beyond the build side";
    } else if (request.exclude_left_and_below && match.id <= request.left) {
      broken = "not above the probe in a self-join";
    }
    if (broken != nullptr) {
      return Status::IOError(
          "worker " + std::to_string(worker) + " answered probe " +
          std::to_string(request.left) + " with id " +
          std::to_string(match.id) + ", " + broken + " (" +
          std::to_string(build_size) + " build vectors)");
    }
  }
  return Status::OK();
}

}  // namespace

namespace distributed_internal {

Result<std::vector<FilterTable>> CutSlices(const FilterTable& table,
                                           const PartitionPlan& plan) {
  const size_t worker_count = static_cast<size_t>(plan.workers);
  if (worker_count == 1) return std::vector<FilterTable>{table};
  // Visits every non-empty slice in table order: a light key whole, a
  // heavy key as contiguous near-equal chunks, one per owner.
  std::vector<int> owners;
  auto for_each_slice = [&](auto&& visit) {
    for (size_t k = 0; k < table.num_keys(); ++k) {
      const std::span<const VectorId> postings = table.postings_at(k);
      owners.clear();
      plan.RouteKey(table.key_at(k), &owners);
      const size_t chunks = owners.size();
      for (size_t j = 0; j < chunks; ++j) {
        const size_t begin = j * postings.size() / chunks;
        const size_t end = (j + 1) * postings.size() / chunks;
        if (begin == end) continue;
        visit(static_cast<size_t>(owners[j]), table.key_at(k),
              postings.subspan(begin, end - begin));
      }
    }
  };
  // One pass sizes each owner's arrays exactly; a second appends its
  // slices. Both walk the table in key order, so no slice is re-sorted.
  std::vector<size_t> key_counts(worker_count, 0);
  std::vector<size_t> id_counts(worker_count, 0);
  for_each_slice([&](size_t owner, uint64_t, std::span<const VectorId> ids) {
    key_counts[owner]++;
    id_counts[owner] += ids.size();
  });
  struct SliceArrays {
    std::vector<uint64_t> keys;
    std::vector<uint32_t> offsets;
    std::vector<VectorId> ids;
  };
  std::vector<SliceArrays> arrays(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    arrays[w].keys.reserve(key_counts[w]);
    arrays[w].offsets.reserve(key_counts[w] + 1);
    arrays[w].offsets.push_back(0);
    arrays[w].ids.reserve(id_counts[w]);
  }
  for_each_slice(
      [&](size_t owner, uint64_t key, std::span<const VectorId> ids) {
        SliceArrays& slice = arrays[owner];
        slice.keys.push_back(key);
        slice.ids.insert(slice.ids.end(), ids.begin(), ids.end());
        slice.offsets.push_back(static_cast<uint32_t>(slice.ids.size()));
      });
  std::vector<FilterTable> slices(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    SKEWSEARCH_RETURN_NOT_OK(slices[w].AdoptArrays(
        std::move(arrays[w].keys), std::move(arrays[w].offsets),
        std::move(arrays[w].ids)));
  }
  return slices;
}

}  // namespace distributed_internal

DistributedJoin::~DistributedJoin() { DetachRemote(); }

std::pair<wire::Frame, wire::AssignmentAckFrame>
DistributedJoin::AssignmentFrame(size_t w, uint32_t epoch,
                                 Lists lists) const {
  const FilterTable& table = workers_[w].table();
  const bool pairing = lists == Lists::kPairing;
  wire::AssignmentAckFrame expected;
  wire::Frame frame = wire::EncodeAssignment(
      table, *data_, threshold_, options_.index.verify_measure, epoch,
      [&](size_t k) { return PairingList(table, k, plan_) == pairing; },
      &expected);
  return {std::move(frame), expected};
}

Status DistributedJoin::AttachRemote(
    std::vector<std::unique_ptr<FrameConnection>> connections) {
  if (!built()) {
    return Status::InvalidArgument(
        "AttachRemote requires a successful Build or BuildFromFrozen");
  }
  if (remote()) {
    return Status::InvalidArgument(
        "remote workers already attached; DetachRemote first");
  }
  if (connections.size() != workers_.size()) {
    return Status::InvalidArgument(
        "AttachRemote needs exactly one connection per worker (" +
        std::to_string(workers_.size()) + " workers, " +
        std::to_string(connections.size()) + " connections)");
  }
  const uint32_t num_workers = static_cast<uint32_t>(workers_.size());
  // A built coordinator ships each worker its pairing lists; the one-id
  // lists follow at the first R-S join. A frozen one sends a
  // ShardAssignment naming the shard instead — the worker pre-mapped
  // the byte-identical file — and expects the ack to carry what this
  // coordinator's own mapping records for that shard.
  auto assignment = [&](size_t w) {
    if (!frozen()) return AssignmentFrame(w, 0, Lists::kPairing);
    wire::ShardAssignmentFrame shard;
    shard.num_shards = num_workers;
    shard.shard_index = static_cast<uint32_t>(w);
    shard.fingerprint = frozen_->fingerprint();
    shard.threshold = threshold_;
    shard.measure = options_.index.verify_measure;
    const FrozenShardFile::ShardInfo& info =
        frozen_->shard_info(static_cast<int>(w));
    wire::AssignmentAckFrame expected;
    expected.num_keys = info.keys_count;
    expected.num_entries = info.ids_count;
    expected.distinct_vectors = data_->size();
    return std::pair{wire::EncodeShardAssignment(shard), expected};
  };
  // Every assignment goes out before any ack is awaited, so the workers
  // decode, check and adopt theirs side by side, while the next one is
  // encoded.
  std::vector<RemoteWorkerSession> sessions;
  sessions.reserve(connections.size());
  std::vector<wire::AssignmentAckFrame> acks(connections.size());
  auto fail = [&](const Status& status) {
    for (auto& started : sessions) (void)started.Shutdown();
    return status;
  };
  for (size_t w = 0; w < connections.size(); ++w) {
    if (connections[w] == nullptr) {
      return fail(
          Status::InvalidArgument("AttachRemote got a null connection"));
    }
    auto [frame, expected] = assignment(w);
    acks[w] = expected;
    Result<RemoteWorkerSession> session =
        RemoteWorkerSession::Open(std::move(connections[w]),
                                  static_cast<uint32_t>(w), num_workers, frame);
    if (!session.ok()) return fail(session.status());
    sessions.push_back(std::move(session).value());
  }
  for (size_t w = 0; w < sessions.size(); ++w) {
    const Status acked = sessions[w].Acknowledge(acks[w]);
    if (!acked.ok()) return fail(acked);
  }
  sessions_ = std::move(sessions);
  session_of_worker_.resize(workers_.size());
  for (size_t w = 0; w < workers_.size(); ++w) session_of_worker_[w] = w;
  session_alive_.assign(sessions_.size(), true);
  one_id_shipped_.assign(workers_.size(), frozen() ? 1 : 0);
  return Status::OK();
}

void DistributedJoin::DetachRemote() {
  for (auto& session : sessions_) (void)session.Shutdown();
  sessions_.clear();
  session_of_worker_.clear();
  session_alive_.clear();
  one_id_shipped_.clear();
}

WireStats DistributedJoin::RemoteWireTotals() const {
  std::lock_guard<std::mutex> lock(remote_mutex_);
  WireStats totals;
  for (const auto& session : sessions_) {
    const WireStats& stats = session.stats();
    totals.frames_sent += stats.frames_sent;
    totals.frames_received += stats.frames_received;
    totals.bytes_sent += stats.bytes_sent;
    totals.bytes_received += stats.bytes_received;
  }
  return totals;
}

Status DistributedJoin::Build(const Dataset* data,
                              const ProductDistribution* dist,
                              const DistributedJoinOptions& options) {
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
  if (options.index.build_threads != 0) {
    return Status::InvalidArgument(
        "the join does not read index.build_threads; threads sizes its "
        "build");
  }
  Result<FilterFamily> family =
      FilterFamily::Create(dist, options.index, data->size());
  if (!family.ok()) return family.status();

  // Everything fallible below works on locals; members are assigned
  // only once the whole build has succeeded, so a failed Build leaves
  // any previous state fully usable (and built() false on a fresh
  // coordinator).
  Timer build_timer;
  const double threshold = options.threshold >= 0.0
                               ? options.threshold
                               : family->verify_threshold();

  // The monolithic posting table, built by the machinery of the K = 1
  // ShardedIndex, so the slices cut from it cover exactly what that
  // index's QueryAll would scan. It runs on the pool every join of this
  // build will run on.
  auto pool = std::make_unique<ThreadPool>(options.threads);
  IndexBuildStats build_stats;
  build_stats.repetitions = family->repetitions();
  build_stats.delta_used = family->delta();
  std::vector<FilterTable> full;
  SKEWSEARCH_RETURN_NOT_OK(sharded_internal::BuildShardTables(
      *data, *family, /*num_shards=*/1, pool.get(), &build_stats, &full));
  const FilterTable& table = full[0];
  const double build_seconds = build_timer.ElapsedSeconds();

  Timer plan_timer;
  PartitionPlannerOptions planner;
  planner.workers = options.workers;
  planner.heavy_threshold = options.heavy_threshold;
  Result<PartitionPlan> plan = PartitionPlanner::PlanFromTable(table, planner);
  if (!plan.ok()) return plan.status();

  // One worker serves the table itself; more take disjoint slices.
  Result<std::vector<FilterTable>> slices =
      distributed_internal::CutSlices(table, *plan);
  if (!slices.ok()) return slices.status();
  std::vector<JoinWorker> workers;
  workers.reserve(slices->size());
  for (size_t w = 0; w < slices->size(); ++w) {
    workers.emplace_back(static_cast<int>(w), std::move((*slices)[w]), data,
                         threshold, options.index.verify_measure);
  }

  // A new build invalidates any shipped assignments; end those sessions
  // before the slices they mirror are replaced. (A *failed* build above
  // returned without touching them, keeping the previous state serving.)
  DetachRemote();
  data_ = data;
  dist_ = dist;
  options_ = options;
  family_ = std::move(family).value();
  threshold_ = threshold;
  plan_ = std::move(plan).value();
  workers_ = std::move(workers);
  pool_ = std::move(pool);
  self_route_.reset();
  frozen_.reset();
  build_seconds_ = build_seconds;
  plan_seconds_ = plan_timer.ElapsedSeconds();
  return Status::OK();
}

Status DistributedJoin::BuildFromFrozen(const Dataset* data,
                                        const ProductDistribution* dist,
                                        const std::string& frozen_path,
                                        const DistributedJoinOptions& options) {
  namespace io = index_io_internal;
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

  Timer build_timer;
  Result<std::shared_ptr<const FrozenShardFile>> mapped =
      FrozenShardFile::Map(frozen_path);
  if (!mapped.ok()) return mapped.status();
  std::shared_ptr<const FrozenShardFile> file = std::move(mapped).value();
  if (file->fingerprint() != io::Fingerprint(*data)) {
    return Status::InvalidArgument(
        "dataset does not match the one '" + frozen_path +
        "' was frozen from");
  }
  const int num_shards = file->num_shards();

  const io::ParamHeader& header = file->params();
  Result<FilterFamily> family = FilterFamily::Restore(
      dist, header.options, data->size(), header.stats.repetitions,
      header.stats.delta_used, header.verify_threshold);
  if (!family.ok()) {
    return Status::InvalidArgument("corrupt index parameters in '" +
                                   frozen_path + "': " +
                                   family.status().message());
  }
  const double threshold = options.threshold >= 0.0
                               ? options.threshold
                               : family->verify_threshold();

  // One JoinWorker per shard, each probing a zero-copy view into the
  // mapping. The workers index the full (shared, borrowed) dataset —
  // frozen shards reference original ids, so no dense remap is needed.
  // The default Map checks the payload's brackets, not its ids, and the
  // route and the workers read every id's vector, so each id is checked
  // against the dataset here (the workers scan every id anyway).
  std::vector<JoinWorker> workers;
  workers.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    Result<FilterTable> view = file->MakeShardView(s);
    if (!view.ok()) return view.status();
    const std::span<const VectorId> ids = view->ids_span();
    if (std::any_of(ids.begin(), ids.end(),
                    [&](VectorId id) { return id >= data->size(); })) {
      return Status::InvalidArgument(
          "'" + frozen_path + "' references vector ids beyond the dataset");
    }
    workers.emplace_back(s, std::move(view).value(), data, threshold,
                         header.options.verify_measure);
  }

  // Commit only after every fallible step, as in Build().
  DetachRemote();
  data_ = data;
  dist_ = dist;
  options_ = options;
  options_.workers = num_shards;
  options_.index = header.options;
  family_ = std::move(family).value();
  threshold_ = threshold;
  plan_ = PartitionPlan::Broadcast(num_shards);
  workers_ = std::move(workers);
  pool_ = std::make_unique<ThreadPool>(options.threads);
  self_route_.reset();
  frozen_ = std::move(file);
  build_seconds_ = build_timer.ElapsedSeconds();
  plan_seconds_ = 0.0;  // broadcast needs no planner pass
  return Status::OK();
}

double DistributedJoin::DuplicationFactor() const {
  if (!built() || data_->size() == 0) return 1.0;
  size_t shipped = 0;
  for (const JoinWorker& worker : workers_) {
    shipped += worker.distinct_vectors();
  }
  return static_cast<double>(shipped) / static_cast<double>(data_->size());
}

std::shared_ptr<const RoutedProbes> DistributedJoin::SelfJoinRoute() const {
  std::lock_guard<std::mutex> lock(self_route_mutex_);
  if (self_route_ == nullptr) {
    self_route_ = std::make_shared<const RoutedProbes>(
        RouteFromSlices(*data_, plan_, workers_));
  }
  return self_route_;
}

Result<std::vector<JoinPair>> DistributedJoin::JoinImpl(
    const Dataset& left, bool self_join, DistributedJoinStats* stats) const {
  if (!built()) {
    return Status::InvalidArgument("DistributedJoin::Build must succeed "
                                   "before joining");
  }
  // A remote join holds the sessions until its wire accounting is done:
  // a session is one ordered stream of frames, so concurrent joins take
  // turns. In-process joins share no mutable state and run side by side.
  std::unique_lock<std::mutex> remote_turn(remote_mutex_, std::defer_lock);
  if (remote()) remote_turn.lock();
  Timer probe_timer;
  const int num_workers = this->num_workers();
  const size_t worker_count = static_cast<size_t>(num_workers);

  // The probes go through route, serve and merge a chunk at a time. A
  // self-join takes one chunk, its route as computed once per build
  // (SelfJoinRoute); an R-S join takes kRouteChunk probes per chunk, so
  // the keys it holds stay bounded however many probes it is given. The
  // chunk being served:
  std::shared_ptr<const RoutedProbes> self_route;
  RoutedProbes routed;
  const RoutedProbes* chunk = &routed;

  // Phase 2 — serve: each worker drains its queue independently; the
  // fan-out over the coordinator's pool is the in-process stand-in for
  // W machines.
  // With remote sessions attached the same queues ship as ProbeBatch
  // frames instead (at most probe_batch requests per frame, up to
  // `pipeline` frames in flight per session), so batch boundaries, the
  // window and the transport never influence which responses come back
  // — only how many frames it took and how much latency was exposed.
  // The remote fan-out hands each pool slot a range of *sessions*, not
  // workers: after a recovery one session can hold several workers'
  // slices, and a FrameConnection is used by one thread at a time. A
  // slot keeps every session of its range busy at once (drain below),
  // so the remote workers compute side by side at any thread count.
  const bool serve_remote = !sessions_.empty();
  const size_t num_sessions = sessions_.size();
  std::vector<std::vector<ProbeResponse>> responses(worker_count);
  std::vector<double> worker_seconds(worker_count, 0.0);
  std::vector<Status> session_status(num_sessions);
  std::vector<size_t> exposed_trips(worker_count, 0);
  std::vector<size_t> batches_sent(worker_count, 0);
  std::vector<WireStats> wire_before(num_sessions);
  std::vector<std::vector<size_t>> session_workers(num_sessions);
  for (size_t s = 0; s < num_sessions; ++s) {
    wire_before[s] = sessions_[s].stats();
  }
  const size_t window = std::max<size_t>(1, options_.pipeline);
  std::vector<size_t> deferred_ships(worker_count, 0);
  // Where a session stands in a drain: the worker it serves (an index
  // into session_workers[s]), that worker's next unsent request, and
  // when the worker's first batch went out.
  struct Cursor {
    size_t held = 0;
    size_t next = 0;
    bool started = false;
    Timer timer;
  };
  // Tops session s up to `window` batches in flight; returns with a
  // batch in flight or every worker s holds served. It moves on to s's
  // next worker only once nothing is in flight, since Reassign needs an
  // idle session: an R-S probe pairs with a list's only id too, so
  // before an R-S join serves worker w it ships w's one-id lists as an
  // Assignment at the next epoch, unless s holds them already (the
  // attach and a recovery ship only pairing lists). A worker's queue
  // starts at its first unanswered request, which is where a recovery
  // replay on a survivor resumes.
  auto refill = [&](size_t s, Cursor& cursor) -> Status {
    RemoteWorkerSession& session = sessions_[s];
    const std::vector<size_t>& held = session_workers[s];
    while (cursor.held < held.size()) {
      const size_t w = held[cursor.held];
      const auto& queue = chunk->queues[w];
      if (!cursor.started) {
        if (!self_join && one_id_shipped_[w] == 0) {
          const auto [frame, expected] =
              AssignmentFrame(w, session.epoch() + 1, Lists::kOneId);
          if (expected.num_keys > 0) {
            SKEWSEARCH_RETURN_NOT_OK(session.Reassign(frame, expected));
            deferred_ships[w]++;
          }
          one_id_shipped_[w] = 1;
        }
        responses[w].reserve(queue.size());
        cursor.next = responses[w].size();
        cursor.started = true;
        cursor.timer.Restart();
      }
      const size_t batch =
          options_.probe_batch == 0 ? std::max<size_t>(queue.size(), 1)
                                    : options_.probe_batch;
      while (session.in_flight() < window && cursor.next < queue.size()) {
        const size_t count = std::min(batch, queue.size() - cursor.next);
        SKEWSEARCH_RETURN_NOT_OK(session.SendProbeBatch(
            std::span<const ProbeRequest>(queue.data() + cursor.next, count)));
        cursor.next += count;
        batches_sent[w]++;
      }
      if (session.in_flight() > 0) return Status::OK();
      worker_seconds[w] += cursor.timer.ElapsedSeconds();
      cursor.held++;
      cursor.started = false;
    }
    return Status::OK();
  };
  // Receives session s's oldest response batch and refills s.
  // ReceiveResponses validates arrival order, so responses[w] is always
  // the answered prefix of queues[w]. A response whose matches break
  // the join contract fails the session like a lost connection, so
  // recovery replays it on a survivor.
  auto receive = [&](size_t s, Cursor& cursor) -> Status {
    RemoteWorkerSession& session = sessions_[s];
    const size_t w = session_workers[s][cursor.held];
    // A receive with nothing queued up behind it exposes the full
    // round trip; every other receive hides behind the batch the
    // worker is already computing.
    if (session.in_flight() == 1) exposed_trips[w]++;
    Result<std::vector<ProbeResponse>> answered = session.ReceiveResponses();
    if (!answered.ok()) return answered.status();
    auto& out = responses[w];
    for (ProbeResponse& response : *answered) {
      SKEWSEARCH_RETURN_NOT_OK(CheckMatches(chunk->queues[w][out.size()],
                                            response, data_->size(), w));
      out.push_back(std::move(response));
    }
    return refill(s, cursor);
  };
  // Drains sessions [first, last) from one thread: tops each up, then
  // receives their batches in round-robin order until none has one in
  // flight, so every worker computes while the others' answers are
  // read. Each session sends and receives the frames it would if served
  // alone. A failed session is left where it stopped, with its status
  // set, and the others go on.
  auto drain = [&](size_t first, size_t last) {
    std::vector<Cursor> cursors(last - first);
    for (size_t s = first; s < last; ++s) {
      if (session_alive_[s]) {
        session_status[s] = refill(s, cursors[s - first]);
      } else if (!session_workers[s].empty()) {
        session_status[s] =
            Status::IOError("session died in an earlier join");
      }
    }
    for (bool waiting = true; waiting;) {
      waiting = false;
      for (size_t s = first; s < last; ++s) {
        if (!session_alive_[s] || !session_status[s].ok() ||
            sessions_[s].in_flight() == 0) {
          continue;
        }
        waiting = true;
        session_status[s] = receive(s, cursors[s - first]);
      }
    }
  };
  // One dedup scratch per in-process worker, reused across chunks; a
  // worker is served by one thread at a time.
  std::vector<ProbeScratch> scratches(worker_count);
  auto serve_local = [&](size_t w) {
    Timer timer;
    auto& out = responses[w];
    const auto& queue = chunk->queues[w];
    out.reserve(queue.size());
    const JoinWorker& worker = workers_[w];
    for (const ProbeRequest& request : queue) {
      out.push_back(worker.Probe(request, &scratches[w]));
    }
    worker_seconds[w] += timer.ElapsedSeconds();
  };

  DistributedJoinStats local;
  local.workers.resize(worker_count);
  for (size_t w = 0; w < worker_count; ++w) {
    WorkerLoad& load = local.workers[w];
    load.worker = static_cast<int>(w);
    load.keys = workers_[w].num_keys();
    load.entries = workers_[w].num_entries();
    load.vectors = workers_[w].distinct_vectors();
  }
  std::vector<JoinPair> out;
  PostingSet<uint64_t> emitted;
  size_t probes = 0;
  size_t requests = 0;
  size_t worker_recoveries = 0;
  size_t replayed_batches = 0;
  uint64_t route_ns = 0;
  uint64_t serve_ns = 0;
  uint64_t merge_ns = 0;
  size_t begin = 0;
  do {
    // Phase 1 — route: one ProbeRequest per (probe, worker) that can
    // pair there, each worker's queue in probe id order. A self-join's
    // route is a pure function of the slices, read from the cache; an
    // R-S join's probes are not in the table, so it runs the filter
    // kernel.
    const int64_t chunk_mark = probe_timer.ElapsedNanos();
    routed.queues.clear();  // the last chunk's requests and answers
    for (auto& answered : responses) answered.clear();
    const size_t end =
        self_join ? left.size()
                  : std::min(left.size(),
                             begin + distributed_internal::kRouteChunk);
    if (self_join) {
      self_route = SelfJoinRoute();
      chunk = self_route.get();
    } else {
      routed = RouteThroughKernel(left, begin, end, family_, plan_,
                                  worker_count, pool_.get());
    }
    const int64_t route_mark = probe_timer.ElapsedNanos();

    std::fill(session_status.begin(), session_status.end(), Status::OK());
    for (auto& held : session_workers) held.clear();
    for (size_t w = 0; serve_remote && w < worker_count; ++w) {
      session_workers[session_of_worker_[w]].push_back(w);
    }
    if (serve_remote) {
      // One range of sessions per pool slot: at threads 1 one slot
      // drives every session, and at threads >= sessions each drives one.
      const size_t slots = static_cast<size_t>(pool_->num_threads());
      pool_->ParallelFor(
          num_sessions, (num_sessions + slots - 1) / slots,
          [&](size_t from, size_t to, int /*slot*/) { drain(from, to); });
    } else {
      pool_->ParallelFor(worker_count, /*grain=*/1,
                         [&](size_t from, size_t to, int /*slot*/) {
                           for (size_t w = from; w < to; ++w) serve_local(w);
                         });
    }
    // Phase 2b — recovery (remote only). A failed session means its
    // worker died mid-join: close it out, re-derive the pairing lists of
    // every worker it held (AssignmentFrame is a pure function of the
    // deterministic plan and the build-side data — nothing about the
    // dead worker is needed), re-ship them to the lowest-id surviving
    // session, and drain each transferred queue's unanswered suffix
    // there through the same drain as the first pass, on that one
    // session, which in an R-S join ships the worker's one-id lists
    // first. The merge's dedup and the canonical sort make replayed and
    // merged-table responses invisible in the output, so a recovered
    // join stays byte-identical.
    // Runs strictly after the fan-out: a session is driven by one thread
    // at a time.
    if (serve_remote) {
      Status first_failure;
      std::vector<size_t> orphaned;  // workers whose session died
      for (size_t s = 0; s < num_sessions; ++s) {
        if (session_status[s].ok()) continue;
        if (first_failure.ok()) first_failure = session_status[s];
        session_alive_[s] = false;
        (void)sessions_[s].Shutdown();
        orphaned.insert(orphaned.end(), session_workers[s].begin(),
                        session_workers[s].end());
      }
      std::sort(orphaned.begin(), orphaned.end());
      if (frozen_ != nullptr && !orphaned.empty()) {
        // A frozen-shard session serves a pre-mapped file, not shipped
        // state — there is nothing the coordinator can re-ship to a
        // survivor (and the workers reject a later Assignment in this
        // mode). Fail the join cleanly instead of draining the survivor
        // pool with doomed recovery attempts.
        return Status::IOError(
            "distributed join: " + std::to_string(orphaned.size()) +
            " frozen-shard worker(s) lost and mapped shards cannot be "
            "re-shipped (first failure: " +
            first_failure.ToString() + ")");
      }
      // If a survivor dies too, its remaining orphans move on to the next
      // survivor, which resumes from the new answered prefix.
      size_t next_orphan = 0;
      for (size_t s = 0; s < num_sessions && next_orphan < orphaned.size();
           ++s) {
        if (!session_alive_[s]) continue;
        RemoteWorkerSession& session = sessions_[s];
        for (; next_orphan < orphaned.size(); ++next_orphan) {
          const size_t w = orphaned[next_orphan];
          const size_t sent_before = batches_sent[w];
          const auto [frame, expected] =
              AssignmentFrame(w, session.epoch() + 1, Lists::kPairing);
          Status recovered = session.Reassign(frame, expected);
          if (recovered.ok()) {
            session_of_worker_[w] = s;
            one_id_shipped_[w] = 0;  // s holds none of w's one-id lists
            // s served its own workers in the fan-out; now it serves w.
            session_workers[s] = {w};
            drain(s, s + 1);
            recovered = session_status[s];
          }
          replayed_batches += batches_sent[w] - sent_before;
          if (!recovered.ok()) {
            session_alive_[s] = false;
            (void)session.Shutdown();
            break;
          }
          worker_recoveries++;
        }
      }
      if (next_orphan < orphaned.size()) {
        return Status::IOError(
            "distributed join: " +
            std::to_string(orphaned.size() - next_orphan) +
            " worker(s) lost and no surviving session can take their "
            "slices (first failure: " +
            first_failure.ToString() + ")");
      }
    }

    const int64_t serve_mark = probe_timer.ElapsedNanos();

    // Phase 3 — merge: drop pairs that surfaced on more than one worker
    // (the same build vector can sit behind different keys on different
    // workers). Chunks hold disjoint probes, so the dedup is per chunk.
    emitted.clear();
    for (size_t w = 0; w < worker_count; ++w) {
      WorkerLoad& load = local.workers[w];
      load.probes += chunk->queues[w].size();
      requests += chunk->queues[w].size();
      for (const ProbeResponse& response : responses[w]) {
        load.candidates += response.candidates;
        load.verifications += response.verifications;
        load.pairs += response.matches.size();
        for (const Match& match : response.matches) {
          if (!emitted.insert(PairKey(response.left, match.id)).second) {
            local.cross_worker_duplicates++;
            continue;
          }
          out.push_back({response.left, match.id, match.similarity});
        }
      }
    }
    probes += chunk->probes;
    local.probe_keys += chunk->keys;
    local.route_draws += chunk->draws;
    route_ns += static_cast<uint64_t>(route_mark - chunk_mark);
    serve_ns += static_cast<uint64_t>(serve_mark - route_mark);
    merge_ns += static_cast<uint64_t>(probe_timer.ElapsedNanos() - serve_mark);
    begin = end;
  } while (begin < left.size());

  // Sort into the canonical (left, right) order.
  const int64_t sort_mark = probe_timer.ElapsedNanos();
  for (WorkerLoad& load : local.workers) {
    load.probe_seconds = worker_seconds[static_cast<size_t>(load.worker)];
    local.candidates += load.candidates;
    local.verifications += load.verifications;
  }
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  });

  if (serve_remote) {
    for (size_t s = 0; s < num_sessions; ++s) {
      const WireStats& after = sessions_[s].stats();
      local.wire_bytes_sent += after.bytes_sent - wire_before[s].bytes_sent;
      local.wire_bytes_received +=
          after.bytes_received - wire_before[s].bytes_received;
    }
    for (size_t w = 0; w < worker_count; ++w) {
      local.probe_round_trips += exposed_trips[w];
      local.probe_batches_sent += batches_sent[w];
    }
    local.worker_recoveries = worker_recoveries;
    local.replayed_batches = replayed_batches;
    for (size_t ships : deferred_ships) local.deferred_ships += ships;
  }
  local.pairs = out.size();
  local.heavy_keys = plan_.num_heavy_keys();
  local.replicated_slices = plan_.replicated_slices();
  local.duplication_factor = DuplicationFactor();
  local.probe_fanout = probes > 0 ? static_cast<double>(requests) /
                                         static_cast<double>(probes)
                                   : 0.0;
  local.build_seconds = build_seconds_;
  local.plan_seconds = plan_seconds_;
  local.probe_seconds = probe_timer.ElapsedSeconds();

  // `join.*` metrics (docs/OBSERVABILITY.md): per-join recording — a
  // join is a macro operation, so none of this touches the per-probe
  // hot path. The phase spans sum the marks taken above over the chunks
  // and feed any active ScopedTrace the same way SKEWSEARCH_SPAN would.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* const joins_metric = registry.GetCounter("join.count");
  static obs::Counter* const pairs_metric = registry.GetCounter("join.pairs");
  static obs::Counter* const candidates_metric =
      registry.GetCounter("join.candidates");
  static obs::Counter* const probe_keys_metric =
      registry.GetCounter("join.probe_keys");
  static obs::Counter* const route_draws_metric =
      registry.GetCounter("join.route_draws");
  static obs::Counter* const batches_metric =
      registry.GetCounter("join.probe_batches");
  static obs::Counter* const trips_metric =
      registry.GetCounter("join.round_trips");
  static obs::Counter* const recoveries_metric =
      registry.GetCounter("join.recoveries");
  static obs::Counter* const replayed_metric =
      registry.GetCounter("join.replayed_batches");
  static obs::Counter* const deferred_ships_metric =
      registry.GetCounter("join.deferred_ships");
  static obs::Counter* const bytes_sent_metric =
      registry.GetCounter("join.wire.bytes_sent");
  static obs::Counter* const bytes_received_metric =
      registry.GetCounter("join.wire.bytes_received");
  static obs::Histogram* const worker_probes_metric =
      registry.GetHistogram("join.worker_probes");
  static obs::Histogram* const worker_time_metric =
      registry.GetHistogram("join.worker_probe_ns");
  static obs::Gauge* const imbalance_metric =
      registry.GetGauge("join.worker_imbalance_x100");
  static obs::Histogram* const route_span_metric =
      registry.GetHistogram("span.join.route");
  static obs::Histogram* const serve_span_metric =
      registry.GetHistogram("span.join.serve");
  static obs::Histogram* const merge_span_metric =
      registry.GetHistogram("span.join.merge");
  joins_metric->Increment();
  pairs_metric->Increment(local.pairs);
  candidates_metric->Increment(local.candidates);
  probe_keys_metric->Increment(local.probe_keys);
  route_draws_metric->Increment(local.route_draws);
  batches_metric->Increment(local.probe_batches_sent);
  trips_metric->Increment(local.probe_round_trips);
  recoveries_metric->Increment(local.worker_recoveries);
  replayed_metric->Increment(local.replayed_batches);
  deferred_ships_metric->Increment(local.deferred_ships);
  bytes_sent_metric->Increment(local.wire_bytes_sent);
  bytes_received_metric->Increment(local.wire_bytes_received);
  uint64_t max_probes = 0;
  uint64_t sum_probes = 0;
  for (const WorkerLoad& load : local.workers) {
    worker_probes_metric->Record(load.probes);
    worker_time_metric->Record(
        static_cast<uint64_t>(load.probe_seconds * 1e9));
    max_probes = std::max<uint64_t>(max_probes, load.probes);
    sum_probes += load.probes;
  }
  if (sum_probes > 0 && !local.workers.empty()) {
    // 100 = perfectly balanced; 2 workers at 300 means the hottest
    // worker saw 3x its fair share of probes.
    const double mean = static_cast<double>(sum_probes) /
                        static_cast<double>(local.workers.size());
    imbalance_metric->Set(
        static_cast<int64_t>(100.0 * static_cast<double>(max_probes) / mean));
  }
  merge_ns += static_cast<uint64_t>(probe_timer.ElapsedNanos() - sort_mark);
  route_span_metric->Record(route_ns);
  serve_span_metric->Record(serve_ns);
  merge_span_metric->Record(merge_ns);
  if (obs::ScopedTrace* trace = obs::ScopedTrace::Current()) {
    trace->Add("span.join.route", route_ns);
    trace->Add("span.join.serve", serve_ns);
    trace->Add("span.join.merge", merge_ns);
  }

  if (stats != nullptr) *stats = std::move(local);
  return out;
}

Result<std::vector<JoinPair>> DistributedJoin::Join(
    const Dataset& left, DistributedJoinStats* stats) const {
  return JoinImpl(left, /*self_join=*/false, stats);
}

Result<std::vector<JoinPair>> DistributedJoin::SelfJoin(
    DistributedJoinStats* stats) const {
  if (!built()) {
    return Status::InvalidArgument("DistributedJoin::Build must succeed "
                                   "before joining");
  }
  return JoinImpl(*data_, /*self_join=*/true, stats);
}

}  // namespace skewsearch
