// Copyright 2026 The skewsearch Authors.
// DistributedJoin: a partition-aware all-pairs similarity-join driver
// that simulates a multi-worker LSF-Join deployment in-process.
//
// The coordinator builds the read-only filter family, asks the
// PartitionPlanner for a skew-aware key partition, hands each JoinWorker
// its posting slices, and then drives the join as pure message passing:
// it routes one ProbeRequest per (probe, worker) that can pair there,
// fans the per-worker queues out over its thread pool (remote sessions a
// range per pool slot, each slot keeping every session of its range busy
// at once), and merges the ProbeResponses — deduplicating pairs that
// surfaced on more than one worker. Filter keys are a pure function of
// seed x repetition x vector, so a self-join's candidates already sit
// together in the build's posting lists, and, as in LSF-Join, each
// worker pairs a probe inside the lists it holds that hold the probe: a
// self-join request names the probe and carries only the keys of lists
// on that worker that do not hold it (a heavy key's other slices, a
// frozen file's other shards) and the probe's items only when the worker
// stores no copy. That route is a pure function of the slices, computed
// once per build. An R-S join's probes are not in the table: the filter
// kernel computes their keys once each, and every key goes to each of
// its owners.
//
// Output contract: the emitted pair list is byte-identical for every
// worker count, heavy threshold, thread count and transport, and equals
// the test reference join (tests/reference_join.h): a serial QueryAll
// per probe against the K = 1 ShardedIndex, keeping only ids above the
// probe in a self-join, sorted by (left, right). The argument: the
// workers' posting slices are a disjoint cover of the monolithic table
// (light keys whole, heavy keys sliced), so the union over workers of a
// probe's candidates is exactly the monolithic candidate set;
// verification is a deterministic function of the two vectors; and the
// coordinator's dedup + (left, right) sort produces the canonical
// order. The one-shot SimilarityJoin/SelfSimilarityJoin
// (core/similarity_join.h) run this engine at W = max(1, workers). Both
// sides of the seam hold only the read-only family and datasets, so a
// real RPC transport can replace the in-process fan-out without
// changing results.

#ifndef SKEWSEARCH_DISTRIBUTED_DISTRIBUTED_JOIN_H_
#define SKEWSEARCH_DISTRIBUTED_DISTRIBUTED_JOIN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/skewed_index.h"
#include "data/dataset.h"
#include "data/distribution.h"
#include "distributed/partition_plan.h"
#include "distributed/transport/session.h"
#include "distributed/transport/transport.h"
#include "distributed/worker.h"
#include "sim/brute_force.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace skewsearch {

/// \brief Configuration of a distributed join.
struct DistributedJoinOptions {
  /// Index configuration of the build side (mode, b1/alpha, seed, ...).
  /// Its build_threads must stay 0 (Build rejects any other value):
  /// `threads` sizes the build.
  SkewedIndexOptions index;

  /// Similarity pairs must reach; negative derives the family's verify
  /// threshold.
  double threshold = -1.0;

  /// Number of simulated workers W (>= 1).
  int workers = 4;

  /// Heavy-key split point forwarded to the planner (0 = auto).
  size_t heavy_threshold = 0;

  /// Slots of the coordinator's thread pool, which Build creates and
  /// every join reuses (<= 1 = the calling thread alone). A slot serves
  /// one in-process worker at a time. Remote sessions are split into one
  /// contiguous range per slot, and a slot keeps every session of its
  /// range busy at once, so at any thread count the remote workers
  /// compute side by side. The thread count never changes results.
  int threads = 0;

  /// Remote serving only (AttachRemote): maximum ProbeRequests shipped
  /// per ProbeBatch frame; 0 ships each worker's whole queue (an R-S
  /// join's per chunk of probes) as one batch. Batching amortizes the
  /// per-frame overhead and round trips without affecting results (a
  /// worker answers probes independently, so the batch boundaries are
  /// invisible in the output).
  size_t probe_batch = 256;

  /// Remote serving only: maximum ProbeBatch frames in flight per
  /// session. At the default 2 the coordinator ships a session's next
  /// batch while its worker still computes the previous one, hiding the
  /// round trip behind service time; at 1 each session waits for a
  /// batch's answer before it sends the next, while the sessions still
  /// serve side by side. Responses always arrive in send order, so the
  /// window size is invisible in the output.
  size_t pipeline = 2;
};

/// \brief Per-worker load/work report.
struct WorkerLoad {
  int worker = 0;
  size_t keys = 0;            ///< distinct keys (slices) owned
  size_t entries = 0;         ///< posting entries owned
  /// Distinct build vectors the worker's slices reference. A remote
  /// worker gets only those its pairing lists reference at the attach
  /// (AttachRemote), and the rest with its one-id lists.
  size_t vectors = 0;
  size_t probes = 0;          ///< probe requests received
  /// The entries of the posting lists its requests reach; a self-join
  /// list's part at or below the probe counts, though it is not read.
  size_t candidates = 0;
  size_t verifications = 0;   ///< similarity computations
  size_t pairs = 0;           ///< pairs emitted (before cross-worker dedup)
  /// In-process: the time spent probing the worker's queue. Remote: the
  /// span from the worker's first batch to its last response, summed
  /// over chunks; the spans of workers on different sessions overlap.
  double probe_seconds = 0.0;
};

/// \brief Coordinator-side counters of a distributed join.
struct DistributedJoinStats {
  size_t pairs = 0;
  size_t candidates = 0;  ///< the workers' WorkerLoad::candidates, summed
  size_t verifications = 0;
  size_t heavy_keys = 0;              ///< keys the planner split
  size_t replicated_slices = 0;       ///< total heavy-slice assignments
  size_t cross_worker_duplicates = 0; ///< pairs dropped by the merge dedup
  /// Sum over workers of distinct build vectors their slices reference,
  /// over n: the data that holding every slice copies, relative to one
  /// copy of the dataset. An attach ships less: only the vectors of the
  /// lists that can pair (AttachRemote).
  double duplication_factor = 1.0;
  /// Average number of workers a probe contacts: requests over probes
  /// with at least one item. A self-join sends no request where no key
  /// can pair, so its fan-out can fall below 1.
  double probe_fanout = 0.0;
  /// Filter keys shipped over every ProbeRequest; a key routed to k
  /// owners counts k times. A self-join ships a key only to an owner
  /// whose slice of it does not hold the probe but holds an id above
  /// it, so under a plan without heavy keys it ships none.
  size_t probe_keys = 0;
  /// PathGenStats::draws of the route phase's filter-kernel calls: 0
  /// for SelfJoin, whose route reads the slices.
  size_t route_draws = 0;
  double build_seconds = 0.0;  ///< family + full posting table
  double plan_seconds = 0.0;   ///< planner + worker table partitioning
  double probe_seconds = 0.0;  ///< route + serve + merge
  /// Remote serving only (zero when the join ran in-process): frame
  /// bytes this join put on / read off the wire (including any
  /// recovery re-shipping and replays).
  uint64_t wire_bytes_sent = 0;
  uint64_t wire_bytes_received = 0;
  /// Remote serving only: *exposed* round trips — receives that had no
  /// other batch in flight behind them, i.e. waits whose latency the
  /// pipeline could not hide. With pipeline = 1 every batch is exposed
  /// (this equals probe_batches_sent); with a window of 2 only each
  /// worker's final drain is (one per chunk of an R-S join's probes) —
  /// a recovered worker's replay drain included, since replays go
  /// through the same pipelined drain.
  size_t probe_round_trips = 0;
  /// Remote serving only: ProbeBatch frames shipped, replays included.
  size_t probe_batches_sent = 0;
  /// Workers whose posting slices were re-shipped to a survivor after
  /// their session died mid-join (0 on a clean join).
  size_t worker_recoveries = 0;
  /// Remote serving only: workers whose one-id lists this join shipped,
  /// each as an Assignment at its session's epoch + 1. The first R-S
  /// join after an attach ships every worker's that has any, and one
  /// after a recovery those of each worker it moved; a self-join ships
  /// none. A worker applies each ship as a reassignment, so the
  /// workers' reassignments sum to the recoveries plus these.
  size_t deferred_ships = 0;
  /// ProbeBatch frames re-sent to a survivor because the original
  /// session died before acknowledging them.
  size_t replayed_batches = 0;
  std::vector<WorkerLoad> workers;
};

namespace distributed_internal {

/// The route phase's output (distributed_join.cc).
struct RoutedProbes;

}  // namespace distributed_internal

/// \brief The distributed all-pairs join coordinator.
///
/// Build() once over the indexed side, then Join()/SelfJoin() any number
/// of times. The build-side dataset and distribution are borrowed and
/// must outlive the coordinator. It owns one ThreadPool per build, so
/// no join starts a thread; concurrent joins take turns on the pool,
/// and remote joins take turns on the sessions: each holds them from
/// its first frame to its wire accounting, recovery and any deferred
/// ship included.
class DistributedJoin {
 public:
  DistributedJoin() = default;
  DistributedJoin(const DistributedJoin&) = delete;
  DistributedJoin& operator=(const DistributedJoin&) = delete;
  ~DistributedJoin();  // detaches remote workers (orderly Shutdown)

  /// Derives the family, builds the full posting table, plans the
  /// partition and constructs one JoinWorker per plan slot. On failure
  /// the coordinator is left exactly as before the call (a fresh one
  /// stays unbuilt; a built one keeps serving its previous state).
  Status Build(const Dataset* data, const ProductDistribution* dist,
               const DistributedJoinOptions& options);

  /// The zero-build alternative: maps an SKF2 frozen-shard file
  /// (core/frozen_shard.h) previously written by Freeze() over \p data,
  /// restores the filter family from its parameter block, and serves
  /// each shard through a zero-copy JoinWorker view — no posting table
  /// is ever rebuilt. Frozen shards partition the *id* space (ShardOf),
  /// not the key space, so the routing plan offers every key to every
  /// worker: Join() broadcasts each probe's keys, and SelfJoin() pairs a
  /// probe on the shard holding it and ships a key only to the other
  /// shards whose slice of it holds an id above the probe. The
  /// per-shard candidate sets are disjoint and their union is exactly
  /// the monolithic candidate set, which keeps Join()/SelfJoin()
  /// byte-identical to the Build() path. The worker count is the file's
  /// shard count (`options.workers` is ignored); `options.index` is
  /// replaced by the file's parameters.
  Status BuildFromFrozen(const Dataset* data,
                         const ProductDistribution* dist,
                         const std::string& frozen_path,
                         const DistributedJoinOptions& options);

  /// True when the coordinator serves a mapped frozen-shard file.
  bool frozen() const { return frozen_ != nullptr; }

  /// R-S join: probes with every vector of \p left; pairs are (left id,
  /// build id, similarity), sorted by (left, right). The probes are
  /// routed and served distributed_internal::kRouteChunk at a time, so
  /// the routed keys held at once do not grow with |left|.
  Result<std::vector<JoinPair>> Join(const Dataset& left,
                                     DistributedJoinStats* stats = nullptr)
      const;

  /// Self join over the build side: all pairs (i < j) with similarity >=
  /// the threshold. Runs no filter kernel. Worker o gets a request for
  /// probe i when one of its lists of i's keys holds an id above i: o
  /// pairs i itself in each such list that holds i, and the request
  /// ships key k only when o's slice of k does not hold i. Each list
  /// counts whole in the candidates, as a shipped key's does, though o
  /// reads a list that holds i only after i, so the candidates and
  /// verifications are those of shipping every key to every owner with
  /// an id above i, and a probe with no larger neighbour sends nothing.
  /// The route is computed at the first SelfJoin after a build and
  /// reused; a worker, in-process or remote, builds its occurrence index
  /// (JoinWorker) at its first self-join probe. A list of one id pairs
  /// nothing here, so a remote self-join never needs the one-id lists
  /// the attach leaves behind (AttachRemote).
  Result<std::vector<JoinPair>> SelfJoin(
      DistributedJoinStats* stats = nullptr) const;

  /// Switches Join()/SelfJoin() from in-process serving to remote
  /// workers: one connection per plan slot (per shard after
  /// BuildFromFrozen), in worker order. Runs the handshake and sends the
  /// assignment (transport/session.h) on every connection before it
  /// waits for any AssignmentAck, so the workers validate and adopt
  /// their slices side by side, then cross-checks the acks in worker
  /// order. After Build() it ships each worker, at epoch 0, the lists of
  /// its slices that can pair in a self-join, its *pairing lists* (a key
  /// whose whole list holds two or more ids, or a heavy key's slice),
  /// and the build vectors they reference. A list of one id pairs
  /// nothing in a self-join, so the worker's *one-id lists* wait: the
  /// first R-S join that reaches its session ships them, with the
  /// vectors they reference, as an Assignment at the session's next
  /// epoch, which the worker merges into its table
  /// (DistributedJoinStats::deferred_ships). After BuildFromFrozen() it
  /// sends a tiny ShardAssignment naming the shard instead — the workers
  /// must have pre-mapped the byte-identical SKF2 file (`join-worker
  /// --shard-file`) — and checks the acked counters against this
  /// coordinator's own mapping. Requires a successful build; on any
  /// failure every already-started session is shut down and the
  /// coordinator stays in-process. The probe phase then ships batches
  /// of at most `probe_batch` requests per frame, up to `pipeline` of
  /// them in flight per session, each pool slot filling the windows of
  /// all its sessions before it waits on any one, and merges exactly as
  /// in-process serving does — the output stays byte-identical across
  /// transports. If a slice session dies mid-join, the other sessions
  /// are still served to the end, and then the coordinator re-derives
  /// the lost worker's pairing lists (AssignmentFrame is a pure function
  /// of the deterministic plan), re-ships them to a surviving session,
  /// which an R-S join follows with the worker's one-id lists, drains
  /// the unacknowledged suffix of the lost queue there through the same
  /// pipelined drain, and still completes with byte-identical output.
  /// The survivor pairs each replayed self-join probe against every list
  /// it now holds, so its work counters exceed a clean join's, and the
  /// merge drops the pairs it finds twice. A response with a match
  /// outside the join contract (an id beyond the build side, or one not
  /// above the probe in a self-join) fails its session the same way. A
  /// mapped shard is not re-shippable state, so a frozen join whose
  /// session dies fails cleanly instead.
  Status AttachRemote(
      std::vector<std::unique_ptr<FrameConnection>> connections);

  /// Sends Shutdown to every attached worker and returns to in-process
  /// serving. Safe to call when not attached.
  void DetachRemote();

  /// True while Join()/SelfJoin() are served by remote workers.
  bool remote() const { return !sessions_.empty(); }

  /// Cumulative coordinator-side traffic over every attached session —
  /// unlike the per-join DistributedJoinStats counters this includes
  /// the handshake and assignment shipping (zero when not remote).
  WireStats RemoteWireTotals() const;

  /// True after a successful Build().
  bool built() const { return family_.valid(); }

  int num_workers() const { return static_cast<int>(workers_.size()); }
  const PartitionPlan& plan() const { return plan_; }
  const JoinWorker& worker(int w) const {
    return workers_[static_cast<size_t>(w)];
  }
  const FilterFamily& family() const { return family_; }
  double threshold() const { return threshold_; }

  /// Sum over workers of distinct vectors their slices reference, over
  /// n (DistributedJoinStats::duplication_factor).
  double DuplicationFactor() const;

 private:
  /// The self-join's route, computed from the slices at the first call
  /// after a build and shared by every later self-join. Thread-safe.
  std::shared_ptr<const distributed_internal::RoutedProbes> SelfJoinRoute()
      const;

  Result<std::vector<JoinPair>> JoinImpl(const Dataset& left, bool self_join,
                                         DistributedJoinStats* stats) const;

  /// Which lists of a worker's slices an Assignment ships.
  enum class Lists {
    kPairing,  ///< those that can pair in a self-join: at the attach
    kOneId,    ///< the others, of one id each: at the first R-S join
  };

  /// The Assignment frame shipping worker \p w's \p lists and the build
  /// vectors they reference, at session epoch \p epoch, with the
  /// AssignmentAck it must draw: the epoch and the key, entry and vector
  /// counts of what it ships. The lists are chosen while encoding, so no
  /// second copy of the slices is made.
  std::pair<wire::Frame, wire::AssignmentAckFrame> AssignmentFrame(
      size_t w, uint32_t epoch, Lists lists) const;

  const Dataset* data_ = nullptr;
  const ProductDistribution* dist_ = nullptr;
  DistributedJoinOptions options_;
  FilterFamily family_;
  PartitionPlan plan_;
  /// The mapped SKF2 file when built by BuildFromFrozen (null after a
  /// classic Build).
  std::shared_ptr<const FrozenShardFile> frozen_;
  std::vector<JoinWorker> workers_;
  /// The pool Build/BuildFromFrozen create and every join's route and
  /// fan-out run on; null until a build succeeds.
  std::unique_ptr<ThreadPool> pool_;
  /// Held by a remote join from its first frame to its wire accounting,
  /// and by RemoteWireTotals: it guards the sessions and the three
  /// vectors below while joins run.
  mutable std::mutex remote_mutex_;
  /// Remote sessions, one per worker when attached. Mutable because
  /// serving a (logically const) join drives the connection state; each
  /// session is driven by exactly one thread of the probe fan-out.
  mutable std::vector<RemoteWorkerSession> sessions_;
  /// sessions_ index currently holding worker w's slices. Starts as the
  /// identity; recovery remaps every worker of a dead session onto a
  /// survivor (which then serves several queues back to back), and the
  /// remap persists so later joins keep working on the reduced pool.
  mutable std::vector<size_t> session_of_worker_;
  /// False once a session died (its fd is closed, its slices
  /// re-shipped); dead sessions are skipped by every later join.
  mutable std::vector<bool> session_alive_;
  /// Per worker: 1 once the session holding its slices holds its one-id
  /// lists too (from the attach on for a frozen worker, which maps its
  /// whole shard). A byte each, not a bit: during a join's fan-out the
  /// thread serving worker w's session writes element w.
  mutable std::vector<uint8_t> one_id_shipped_;
  /// SelfJoinRoute's cache; null until the first self-join of a build.
  mutable std::mutex self_route_mutex_;
  mutable std::shared_ptr<const distributed_internal::RoutedProbes>
      self_route_;
  double threshold_ = 0.0;
  double build_seconds_ = 0.0;
  double plan_seconds_ = 0.0;
};

namespace distributed_internal {

/// Probes an R-S join routes and serves at a time: it holds one chunk's
/// routed keys (about 8 bytes per filter key a probe reaches), not the
/// whole probe side's.
inline constexpr size_t kRouteChunk = 4096;

/// Cuts \p table, the monolithic posting table, into one slice per
/// worker of \p plan: a light key whole to its home, a heavy key's list
/// in contiguous near-equal chunks to its owners (a chunk left empty by
/// a list shorter than its owner count is skipped). The slices are a
/// disjoint cover of \p table in its key order, each counted before it
/// is filled. At one worker the slice is \p table itself, sharing its
/// backing.
Result<std::vector<FilterTable>> CutSlices(const FilterTable& table,
                                           const PartitionPlan& plan);

}  // namespace distributed_internal

}  // namespace skewsearch

#endif  // SKEWSEARCH_DISTRIBUTED_DISTRIBUTED_JOIN_H_
