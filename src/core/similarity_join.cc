#include "core/similarity_join.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "distributed/transport/tcp_transport.h"

namespace skewsearch {

namespace {

/// Builds the engine over \p right, attaches any remote workers and
/// runs the join: an R-S join when \p left is set, else a self-join.
Result<std::vector<JoinPair>> RunJoin(const Dataset* left,
                                      const Dataset& right,
                                      const ProductDistribution& dist,
                                      const JoinOptions& options,
                                      DistributedJoinStats* stats) {
  DistributedJoinOptions engine =
      static_cast<const DistributedJoinOptions&>(options);
  engine.workers = std::max(1, options.workers);
  if (!options.remote_workers.empty()) {
    const int endpoints = static_cast<int>(options.remote_workers.size());
    if (options.workers > 0 && options.workers != endpoints) {
      return Status::InvalidArgument(
          "workers (" + std::to_string(options.workers) +
          ") does not match the " + std::to_string(endpoints) +
          " remote worker endpoint(s)");
    }
    engine.workers = endpoints;
  }
  DistributedJoin join;
  // A frozen file's shard count overrides W; endpoints must match it,
  // which AttachRemote checks.
  SKEWSEARCH_RETURN_NOT_OK(
      options.frozen_shards.empty()
          ? join.Build(&right, &dist, engine)
          : join.BuildFromFrozen(&right, &dist, options.frozen_shards,
                                 engine));
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
  return left != nullptr ? join.Join(*left, stats) : join.SelfJoin(stats);
}

}  // namespace

Result<std::vector<JoinPair>> SimilarityJoin(const Dataset& left,
                                             const Dataset& right,
                                             const ProductDistribution& dist,
                                             const JoinOptions& options,
                                             DistributedJoinStats* stats) {
  return RunJoin(&left, right, dist, options, stats);
}

Result<std::vector<JoinPair>> SelfSimilarityJoin(
    const Dataset& data, const ProductDistribution& dist,
    const JoinOptions& options, DistributedJoinStats* stats) {
  return RunJoin(nullptr, data, dist, options, stats);
}

}  // namespace skewsearch
