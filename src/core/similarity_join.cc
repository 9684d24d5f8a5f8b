#include "core/similarity_join.h"

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>

#include "core/sharded_index.h"
#include "distributed/distributed_join.h"
#include "distributed/transport/tcp_transport.h"
#include "util/timer.h"

namespace skewsearch {

namespace {

/// The distributed pair-emission backend: plan a skew-aware key
/// partition, fan the probes out over in-process workers, merge. Output
/// is identical to the single-process backend (asserted in tests), so
/// the choice is purely an execution-strategy knob.
Result<std::vector<JoinPair>> DistributedBackend(const Dataset& left,
                                                 const Dataset& right,
                                                 const ProductDistribution&
                                                     dist,
                                                 const JoinOptions& options,
                                                 bool self_join,
                                                 JoinStats* stats) {
  if (options.online) {
    return Status::InvalidArgument(
        "workers > 1 is incompatible with the online build side");
  }
  const bool frozen = !options.frozen_shards.empty();
  int workers = options.workers;
  if (!options.remote_workers.empty()) {
    const int endpoints = static_cast<int>(options.remote_workers.size());
    if (workers > 0 && workers != endpoints) {
      return Status::InvalidArgument(
          "workers (" + std::to_string(workers) + ") does not match the " +
          std::to_string(endpoints) + " remote worker endpoint(s)");
    }
    workers = endpoints;
  }
  DistributedJoinOptions distributed;
  distributed.index = options.index;
  distributed.threshold = options.threshold;
  distributed.workers = workers;
  distributed.heavy_threshold = options.heavy_threshold;
  distributed.threads = options.probe_threads;
  distributed.probe_batch = options.probe_batch;
  distributed.pipeline = options.pipeline;
  DistributedJoin join;
  if (frozen) {
    // The worker count is the file's shard count; endpoints (if any)
    // must match it, which AttachRemote checks.
    SKEWSEARCH_RETURN_NOT_OK(join.BuildFromFrozen(
        &right, &dist, options.frozen_shards, distributed));
  } else {
    SKEWSEARCH_RETURN_NOT_OK(join.Build(&right, &dist, distributed));
  }
  if (!options.remote_workers.empty()) {
    std::vector<std::unique_ptr<FrameConnection>> connections;
    connections.reserve(options.remote_workers.size());
    for (const std::string& endpoint : options.remote_workers) {
      Result<std::unique_ptr<FrameConnection>> connection =
          ConnectEndpoint(endpoint);
      SKEWSEARCH_RETURN_NOT_OK(connection.status());
      connections.push_back(std::move(connection).value());
    }
    SKEWSEARCH_RETURN_NOT_OK(join.AttachRemote(std::move(connections)));
  }
  DistributedJoinStats distributed_stats;
  Result<std::vector<JoinPair>> pairs =
      self_join ? join.SelfJoin(&distributed_stats)
                : join.Join(left, &distributed_stats);
  SKEWSEARCH_RETURN_NOT_OK(pairs.status());
  if (stats != nullptr) {
    JoinStats local;
    local.pairs = distributed_stats.pairs;
    local.candidates = distributed_stats.candidates;
    local.verifications = distributed_stats.verifications;
    local.build_seconds =
        distributed_stats.build_seconds + distributed_stats.plan_seconds;
    local.probe_seconds = distributed_stats.probe_seconds;
    local.workers = distributed_stats.workers.size();
    local.duplication_factor = distributed_stats.duplication_factor;
    local.probe_fanout = distributed_stats.probe_fanout;
    local.wire_bytes_sent = distributed_stats.wire_bytes_sent;
    local.wire_bytes_received = distributed_stats.wire_bytes_received;
    local.probe_round_trips = distributed_stats.probe_round_trips;
    local.probe_batches_sent = distributed_stats.probe_batches_sent;
    local.worker_recoveries = distributed_stats.worker_recoveries;
    local.replayed_batches = distributed_stats.replayed_batches;
    *stats = local;
  }
  return pairs;
}

Result<std::vector<JoinPair>> JoinImpl(const Dataset& left,
                                       const Dataset& right,
                                       const ProductDistribution& dist,
                                       const JoinOptions& options,
                                       bool self_join, JoinStats* stats) {
  if (options.workers > 1 || !options.remote_workers.empty() ||
      !options.frozen_shards.empty()) {
    return DistributedBackend(left, right, dist, options, self_join, stats);
  }
  JoinStats local;
  Timer build_timer;
  // Both build sides answer QueryAll identically for every shard count;
  // the online one additionally runs the maintenance subsystem while
  // probing.
  ShardedIndex sharded;
  DynamicIndex dynamic;
  MaintenanceService service;
  const bool use_online = options.online;
  if (use_online) {
    DynamicIndexOptions dynamic_options;
    dynamic_options.index = options.index;
    dynamic_options.num_shards = std::max(1, options.num_shards);
    SKEWSEARCH_RETURN_NOT_OK(dynamic.Build(&right, &dist, dynamic_options));
    SKEWSEARCH_RETURN_NOT_OK(service.Attach(&dynamic, options.maintenance));
    if (options.maintenance_thread) {
      SKEWSEARCH_RETURN_NOT_OK(service.Start());
    }
    // Net no-op churn: insert a copy of a build-side vector, tombstone
    // it right away. Every copy is dead before the first probe, so the
    // join output is unchanged, but the deltas + tombstones accumulate
    // into real compaction work for the maintenance service while the
    // probe phase runs. Without the background thread, drain inline at
    // intervals so the flagged shards are still serviced.
    if (options.churn > 0) {
      const size_t stride = std::max<size_t>(1, options.churn / 4);
      for (size_t i = 0, inserted = 0; inserted < options.churn; ++i) {
        if (i >= options.churn * 2) break;  // all build vectors empty
        auto source = right.Get(static_cast<VectorId>(i % right.size()));
        if (source.empty()) continue;
        Result<VectorId> id = dynamic.Insert(source);
        SKEWSEARCH_RETURN_NOT_OK(id.status());
        SKEWSEARCH_RETURN_NOT_OK(dynamic.Remove(id.value()));
        ++inserted;
        if (!options.maintenance_thread && inserted % stride == 0) {
          SKEWSEARCH_RETURN_NOT_OK(service.RunOnce());
        }
      }
    }
  } else {
    ShardedIndexOptions sharded_options;
    sharded_options.index = options.index;
    sharded_options.num_shards = std::max(1, options.num_shards);
    SKEWSEARCH_RETURN_NOT_OK(sharded.Build(&right, &dist, sharded_options));
  }
  local.build_seconds = build_timer.ElapsedSeconds();

  // The two indexes share their read-only parameter surface (IndexView);
  // only the QueryAll dispatch still needs to know the concrete type.
  const IndexView& view = use_online ? static_cast<const IndexView&>(dynamic)
                                     : static_cast<const IndexView&>(sharded);
  auto query_all = [&](std::span<const ItemId> query, double thresh,
                       QueryStats* query_stats) {
    return use_online ? dynamic.QueryAll(query, thresh, query_stats)
                      : sharded.QueryAll(query, thresh, query_stats);
  };
  double threshold = options.threshold >= 0.0 ? options.threshold
                                              : view.verify_threshold();

  Timer probe_timer;
  std::vector<JoinPair> out;
  auto probe_range = [&](VectorId begin, VectorId end,
                         std::vector<JoinPair>* sink, size_t* candidates,
                         size_t* verifications) {
    for (VectorId lid = begin; lid < end; ++lid) {
      QueryStats qs;
      auto matches = query_all(left.Get(lid), threshold, &qs);
      *candidates += qs.candidates;
      *verifications += qs.verifications;
      for (const Match& m : matches) {
        if (self_join && m.id <= lid) continue;  // each pair emitted once
        sink->push_back({lid, m.id, m.similarity});
      }
    }
  };
  if (options.probe_threads <= 1) {
    probe_range(0, static_cast<VectorId>(left.size()), &out,
                &local.candidates, &local.verifications);
  } else {
    const int threads = options.probe_threads;
    struct Shard {
      std::vector<JoinPair> pairs;
      size_t candidates = 0;
      size_t verifications = 0;
    };
    std::vector<Shard> shards(static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    const size_t chunk = (left.size() + static_cast<size_t>(threads) - 1) /
                         static_cast<size_t>(threads);
    for (int t = 0; t < threads; ++t) {
      size_t begin = static_cast<size_t>(t) * chunk;
      size_t end = std::min(left.size(), begin + chunk);
      if (begin >= end) break;
      Shard* shard = &shards[static_cast<size_t>(t)];
      workers.emplace_back([&, begin, end, shard] {
        probe_range(static_cast<VectorId>(begin),
                    static_cast<VectorId>(end), &shard->pairs,
                    &shard->candidates, &shard->verifications);
      });
    }
    for (auto& worker : workers) worker.join();
    for (Shard& shard : shards) {
      local.candidates += shard.candidates;
      local.verifications += shard.verifications;
      out.insert(out.end(), shard.pairs.begin(), shard.pairs.end());
    }
  }
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    if (a.left != b.left) return a.left < b.left;
    return a.right < b.right;
  });
  local.pairs = out.size();
  local.probe_seconds = probe_timer.ElapsedSeconds();
  if (use_online) {
    service.Detach();  // joins the thread before the index goes away
    local.compactions = dynamic.num_compactions();
    local.rebuilds = dynamic.num_rebuilds();
  }
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace

Result<std::vector<JoinPair>> SimilarityJoin(const Dataset& left,
                                             const Dataset& right,
                                             const ProductDistribution& dist,
                                             const JoinOptions& options,
                                             JoinStats* stats) {
  return JoinImpl(left, right, dist, options, /*self_join=*/false, stats);
}

Result<std::vector<JoinPair>> SelfSimilarityJoin(
    const Dataset& data, const ProductDistribution& dist,
    const JoinOptions& options, JoinStats* stats) {
  return JoinImpl(data, data, dist, options, /*self_join=*/true, stats);
}

}  // namespace skewsearch
