#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/dynamic_index.h"
#include "core/frozen_shard.h"
#include "core/index_io.h"
#include "core/sharded_index.h"
#include "core/similarity_join.h"
#include "core/skewed_index.h"
#include "distributed/server.h"
#include "distributed/transport/session.h"
#include "distributed/transport/tcp_transport.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "maintenance/service.h"
#include "data/correlated.h"
#include "data/estimate.h"
#include "data/generators.h"
#include "data/io.h"
#include "data/mann_profiles.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "stats/independence.h"
#include "stats/skew_profile.h"
#include "util/logging.h"
#include "util/random.h"

namespace skewsearch {

namespace {

constexpr char kUsage[] = R"(skewsearch_cli — set similarity search for skewed data

Usage: skewsearch_cli <command> [--flag value]...

Commands:
  generate --kind uniform|twoblock|zipf|harmonic --n N --d N --out FILE
           [--p X] [--p2 X] [--d2 N] [--exp X] [--avg X] [--seed S] [--binary]
  mann     --name NAME --out FILE [--n N] [--seed S] [--binary]
  profile  --in FILE [--binary]
  independence --in FILE [--binary]
  query-bench --in FILE --alpha A [--queries N] [--seed S] [--shards K]
           [--mmap] [--freeze FILE] [--online] [--maintenance 0|1]
           [--drift-factor F] [--dead-ratio R] [--churn N] [--trace]
           [--wal DIR] [--sync-policy none|interval|group|always]
           [--checkpoint-bytes N] [--dump-matches FILE] [--probes N]
           [--binary]
  freeze   --in FILE --out FILE [--b1 X | --alpha A] [--seed S]
           [--shards K] [--binary]
  selfjoin --in FILE --b1 X [--seed S] [--workers W] [--heavy-threshold T]
           [--frozen FILE] [--connect HOST:PORT,...] [--probe-batch N]
           [--pipeline N] [--dump-pairs FILE] [--binary]
  join     --left FILE --right FILE --b1 X [--seed S] [--workers W]
           [--heavy-threshold T] [--frozen FILE]
           [--connect HOST:PORT,...] [--probe-batch N] [--pipeline N]
           [--dump-pairs FILE] [--binary]
  join-worker [--listen PORT] [--max-sessions N] [--idle-timeout MS]
           [--shard-file FILE --data FILE] [--die-after-batches N]
           [--metrics-dump FILE] [--summary-interval SEC] [--binary]
  join-stats --connect HOST:PORT [--json]
  help

A command takes only the flags listed for it; any other flag fails.

--shards K > 1 builds the hash-sharded index instead of the monolithic
one; results are identical, memory and parallelism differ.

selfjoin and join run one join engine over W = max(1, --workers)
in-process workers (default 1): the filter-key space is partitioned
across the workers with skew-aware heavy-key splitting
(--heavy-threshold T overrides the split point, default auto), and the
coordinator merges the per-worker pair streams. The pair output is
identical for every W.

join runs the R-S join: --right is indexed, every --left vector
probes it, and pairs are (left id, right id, similarity). It takes
every engine flag selfjoin takes; the estimated item universe is
widened to cover both files.

--connect HOST:PORT,... (selfjoin, join) serves the join from remote
join-worker processes instead of in-process workers: one endpoint per
worker (--workers, if given, must match the endpoint count). The
coordinator ships each worker its posting-slice assignment over the
TCP transport, streams probe batches of --probe-batch N requests per
frame (default 256, 0 = one frame per worker; join sends its probes
4096 at a time) with up to --pipeline N frames in flight per worker
(default 2, 1 = send-then-wait), and merges — the pair output is
still identical. If a worker dies
mid-join the coordinator re-ships its slices to a survivor, replays
the unacknowledged batches, and reports the recovery. See
docs/WIRE_PROTOCOL.md for the wire format and the README for a
walkthrough.

join-worker hosts workers of distributed joins: it listens on
--listen PORT (default 0 = any free port, printed on stdout) and
serves every coordinator session that connects, each on its own
thread, until SIGTERM/SIGINT asks it to drain (live sessions finish,
then it exits 0). --max-sessions N caps the concurrent sessions
(default unlimited); --idle-timeout MS exits once no coordinator has
connected for that long and nothing is being served (default: wait
forever); --die-after-batches N makes the process vanish mid-stream
after answering N probe batches in a session — the fault-injection
hook the kill-recovery smoke test uses. Session completions are logged
one line each; --summary-interval SEC additionally logs a one-line
served-work summary every SEC seconds, and --metrics-dump FILE writes
the full metrics registry as JSON to FILE on exit and again whenever
the process receives SIGUSR1.

join-stats scrapes a live join-worker's metrics registry over the wire
(a scrape-only session: Hello, StatsRequest, Shutdown) and
prints every counter, gauge, and latency histogram as text — or as
JSON with --json. It works mid-join: batch and byte counters advance
while probe streams are being served. docs/OBSERVABILITY.md has the
metric catalog.

freeze builds the index over --in and persists it as an SKF2
frozen-shard file (docs/FILE_FORMATS.md): page-aligned, checksummed,
and served zero-copy by mmap. --b1 X builds the adversarial-mode
index the joins use (selfjoin's defaults); --alpha A (default) the
correlated-mode one; --shards K > 1 partitions the id space into K
shards inside the one file.

--frozen FILE (selfjoin, join) serves the build side from a frozen
file instead of rebuilding it: the coordinator maps FILE zero-copy
and serves one worker per stored shard
(the file's parameters override --b1/--seed; FILE must have been
frozen from the --in/--right dataset). With --connect, the remote
join-worker processes must have pre-mapped the byte-identical file
via --shard-file — the coordinator then ships only a tiny shard
assignment per worker instead of O(index) posting slices. The pair
output is byte-identical to the in-process join.

join-worker --shard-file FILE --data FILE pre-maps a frozen file (and
loads the dataset it was frozen from) so --frozen coordinators can
open frozen-shard sessions against it; classic ship-everything
sessions still work on the same worker.

query-bench --mmap freezes the built index to --freeze FILE (default:
the input path + ".skf"), re-opens it zero-copy through mmap, and
serves the bench from the mapped index — same recall and candidate
counts, O(1) start time. bench_mmap_load measures the gap.

query-bench --trace runs one extra query after the bench inside a
trace and prints the per-phase span timings (filters, verify, total)
the observability layer recorded for that query.

--dump-pairs FILE (selfjoin, join) writes every emitted pair as one
"left right similarity" line — what the multi-process smoke test
diffs across worker setups.

query-bench --online (implied by any --maintenance/--drift-factor/
--dead-ratio/--churn/--wal flag) serves from the online DynamicIndex
with the maintenance subsystem attached: --maintenance 1 (default)
runs the background thread, --dead-ratio sets the compaction trigger,
--drift-factor the live-rebuild trigger, and --churn N applies N
remove+insert pairs before querying so compaction and drift actually
fire.

query-bench --wal DIR makes the online index durable:
DIR/snapshot.skd + DIR/wal.skw are recovered on open (a "recovery:"
line reports what replayed) and every acknowledged Insert/Remove is
journaled per --sync-policy (default group: shared fsync before ack;
always: dedicated fsync per ack; interval: lazy; none: never) before
the call returns. --checkpoint-bytes N (default 8M) lets the
maintenance thread fold the log into a fresh snapshot once it
outgrows N. query-bench --dump-matches FILE writes the
QueryAll answers of --probes N (default 64) seeded probe vectors in
round-tripping precision — the crash smoke test diffs these dumps
across killed and clean runs. See docs/FILE_FORMATS.md (SKW1) and
docs/ARCHITECTURE.md for the recovery contract.
)";

/// Parsed "--key value" flags.
class Flags {
 public:
  /// Parses the flags after args[0], the command, which takes only the
  /// space-separated flags of \p allowed.
  static std::optional<Flags> Parse(const std::vector<std::string>& args,
                                    const std::string& allowed) {
    Flags flags;
    for (size_t i = 1; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
        return std::nullopt;
      }
      std::string key = arg.substr(2);
      if ((" " + allowed + " ").find(" " + key + " ") == std::string::npos) {
        std::fprintf(stderr, "unknown flag --%s for %s\n", key.c_str(),
                     args[0].c_str());
        return std::nullopt;
      }
      if (key == "binary" || key == "online" || key == "json" ||
          key == "trace" || key == "mmap") {  // boolean flags
        static const std::string kTrue = "1";
        flags.values_.insert_or_assign(key, kTrue);
        continue;
      }
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "flag --%s needs a value\n", key.c_str());
        return std::nullopt;
      }
      flags.values_[key] = args[++i];
    }
    return flags;
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  // Numeric getters fall back (with a warning) on malformed values rather
  // than throwing out of main.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr, "warning: --%s '%s' is not a number; using %g\n",
                   key.c_str(), it->second.c_str(), fallback);
      return fallback;
    }
    return value;
  }
  uint64_t GetUint(const std::string& key, uint64_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    char* end = nullptr;
    unsigned long long value = std::strtoull(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') {
      std::fprintf(stderr,
                   "warning: --%s '%s' is not an integer; using %llu\n",
                   key.c_str(), it->second.c_str(),
                   static_cast<unsigned long long>(fallback));
      return fallback;
    }
    return static_cast<uint64_t>(value);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

Result<Dataset> LoadDataset(const Flags& flags) {
  std::string path = flags.Get("in", "");
  if (path.empty()) {
    return Status::InvalidArgument("--in FILE is required");
  }
  return flags.Has("binary") ? ReadBinary(path) : ReadTransactions(path);
}

Status SaveDataset(const Dataset& data, const Flags& flags) {
  std::string path = flags.Get("out", "");
  if (path.empty()) {
    return Status::InvalidArgument("--out FILE is required");
  }
  return flags.Has("binary") ? WriteBinary(data, path)
                             : WriteTransactions(data, path);
}

int CmdGenerate(const Flags& flags) {
  std::string kind = flags.Get("kind", "zipf");
  size_t n = flags.GetUint("n", 10000);
  size_t d = flags.GetUint("d", 10000);
  Result<ProductDistribution> dist = Status::InvalidArgument("unset");
  if (kind == "uniform") {
    dist = UniformProbabilities(d, flags.GetDouble("p", 0.1));
  } else if (kind == "twoblock") {
    size_t d2 = flags.GetUint("d2", d);
    dist = TwoBlockProbabilities(d, flags.GetDouble("p", 0.25), d2,
                                 flags.GetDouble("p2", 0.01));
  } else if (kind == "zipf") {
    dist = ZipfProbabilities(d, flags.GetDouble("exp", 1.0),
                             flags.GetDouble("p", 0.5));
  } else if (kind == "harmonic") {
    dist = HarmonicProbabilities(d);
  } else {
    std::fprintf(stderr, "unknown --kind '%s'\n", kind.c_str());
    return 1;
  }
  if (!dist.ok()) return Fail(dist.status());
  if (flags.Has("avg")) {
    dist = ScaleToAverageSize(*dist, flags.GetDouble("avg", 10.0));
    if (!dist.ok()) return Fail(dist.status());
  }
  Rng rng(flags.GetUint("seed", 1));
  Dataset data = GenerateDataset(*dist, n, &rng);
  Status s = SaveDataset(data, flags);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %zu vectors (d=%zu, avg |x| = %.2f) to %s\n",
              data.size(), data.dimension(), data.AverageSize(),
              flags.Get("out", "").c_str());
  return 0;
}

int CmdMann(const Flags& flags) {
  auto spec = FindMannProfile(flags.Get("name", ""));
  if (!spec.ok()) return Fail(spec.status());
  MannProfileSpec profile = *spec;
  if (flags.Has("n")) profile.n = flags.GetUint("n", profile.n);
  Rng rng(flags.GetUint("seed", 1));
  auto inst = BuildMannInstance(profile, &rng);
  if (!inst.ok()) return Fail(inst.status());
  Status s = SaveDataset(inst->data, flags);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %s stand-in: %zu vectors, d=%zu, avg |x| = %.2f\n",
              profile.name.c_str(), inst->data.size(),
              inst->data.dimension(), inst->data.AverageSize());
  return 0;
}

int CmdProfile(const Flags& flags) {
  auto data = LoadDataset(flags);
  if (!data.ok()) return Fail(data.status());
  SkewProfile profile = ComputeSkewProfile(*data);
  std::printf("n = %zu, d = %zu, avg |x| = %.2f, distinct items = %zu\n",
              data->size(), data->dimension(), data->AverageSize(),
              profile.frequencies.size());
  std::printf("fitted Zipf exponent = %.3f\n", FitZipfExponent(profile));
  std::printf("log-rank skew profile (x = log_d j, y = 1 + log_n p_j):\n");
  for (const ProfilePoint& pt : LogAxisSeries(profile, 12)) {
    std::printf("  %.3f  %.3f\n", pt.x, pt.y);
  }
  return 0;
}

int CmdIndependence(const Flags& flags) {
  auto data = LoadDataset(flags);
  if (!data.ok()) return Fail(data.status());
  for (size_t k : {1u, 2u, 3u}) {
    auto est = ExactIndependenceRatio(*data, k);
    if (!est.ok()) return Fail(est.status());
    std::printf("|I| = %zu: ratio = %.3f (observed %.3e, independent "
                "prediction %.3e)\n",
                k, est->ratio, est->expected_observed,
                est->expected_product);
  }
  return 0;
}

bool WantsOnline(const Flags& flags) {
  return flags.Has("online") || flags.Has("maintenance") ||
         flags.Has("drift-factor") || flags.Has("dead-ratio") ||
         flags.Has("churn") || flags.Has("wal");
}

/// Creates \p path, hands it to `write(out)` and closes it. Returns
/// false, after printing the error, when the file cannot be opened or
/// any write (including the final flush on close) failed.
template <typename WriteFn>
bool WriteFileChecked(const std::string& path, WriteFn&& write) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                 path.c_str());
    return false;
  }
  write(out);
  const bool written = std::ferror(out) == 0;
  const bool closed = std::fclose(out) == 0;
  if (!written || !closed) {
    std::fprintf(stderr, "error: write to '%s' failed\n", path.c_str());
    return false;
  }
  return true;
}

/// --dump-matches FILE: QueryAll answers for a probe set derived only
/// from the dataset's distribution and --seed (never from index
/// layout), written with round-tripping precision — two dumps are
/// equal iff the answer sets are identical. The crash-recovery smoke
/// test diffs these across killed vs clean runs.
int DumpMatches(const Flags& flags, const DynamicIndex& index,
                const ProductDistribution& dist) {
  const std::string path = flags.Get("dump-matches", "");
  constexpr double kDumpThreshold = 0.25;
  Rng rng(flags.GetUint("seed", 1) ^ 0x9e3779b97f4a7c15ull);
  const size_t probes = flags.GetUint("probes", 64);
  size_t matches = 0;
  const bool written = WriteFileChecked(path, [&](std::FILE* out) {
    for (size_t p = 0; p < probes; ++p) {
      SparseVector q = dist.Sample(&rng);
      if (q.span().empty()) continue;
      for (const Match& m : index.QueryAll(q.span(), kDumpThreshold)) {
        std::fprintf(out, "q%zu %u %.17g\n", p, m.id, m.similarity);
        ++matches;
      }
    }
  });
  if (!written) return 1;
  std::printf("wrote %zu match(es) over %zu probe(s) to %s\n", matches,
              probes, path.c_str());
  return 0;
}

MaintenanceOptions MaintenanceFromFlags(const Flags& flags) {
  MaintenanceOptions options;
  options.dead_ratio = flags.GetDouble("dead-ratio", -1.0);
  options.drift_factor = flags.GetDouble("drift-factor", 2.0);
  options.poll_interval_ms = 5;
  options.min_rebuild_n = 2;
  return options;
}

/// The query-bench loop both index types share: --queries queries
/// alpha-correlated with targets drawn from \p targets, the recall /
/// candidates / latency line, then with --trace one extra query inside
/// a ScopedTrace and the spans the observability layer recorded for
/// it, innermost first.
template <typename Index>
void RunQueryBench(const Flags& flags, const Index& index,
                   const Dataset& data, const ProductDistribution& dist,
                   double alpha, std::span<const VectorId> targets) {
  CorrelatedQuerySampler sampler(&dist, alpha);
  Rng rng(flags.GetUint("seed", 1) ^ 0xabcdef);
  auto sample = [&] {
    const VectorId target =
        targets[static_cast<size_t>(rng.NextBounded(targets.size()))];
    return std::pair{target, sampler.SampleCorrelated(data.Get(target), &rng)};
  };
  const size_t queries = flags.GetUint("queries", 100);
  size_t found = 0, candidates = 0;
  double seconds = 0;
  for (size_t t = 0; t < queries; ++t) {
    const auto [target, q] = sample();
    QueryStats stats;
    auto hit = index.Query(q.span(), &stats);
    found += (hit && hit->id == target);
    candidates += stats.candidates;
    seconds += stats.seconds;
  }
  // With no queries there is nothing to average.
  std::printf("queries: %zu", queries);
  if (queries > 0) {
    std::printf(", recall %.2f, %.1f candidates/query, %.1f us/query",
                static_cast<double>(found) / queries,
                static_cast<double>(candidates) / queries,
                1e6 * seconds / queries);
  }
  std::printf("\n");
  if (!flags.Has("trace")) return;
  obs::ScopedTrace trace;
  index.Query(sample().second.span());
  std::printf("trace of one query (%zu span(s)):\n", trace.entries().size());
  for (const obs::TraceEntry& entry : trace.entries()) {
    std::printf("  %-24.*s %12.1f us\n",
                static_cast<int>(entry.name.size()), entry.name.data(),
                static_cast<double>(entry.nanos) / 1e3);
  }
}

/// The online serving path: DynamicIndex + MaintenanceService, churned
/// so compaction (and, with a low --drift-factor, a live rebuild)
/// actually runs, then benched like the static path.
int CmdQueryBenchOnline(const Flags& flags, const Dataset& data,
                        const ProductDistribution& dist, double alpha) {
  DynamicIndexOptions options;
  options.index.mode = IndexMode::kCorrelated;
  options.index.alpha = alpha;
  options.index.seed = flags.GetUint("seed", 1);
  options.num_shards =
      std::max(1, static_cast<int>(flags.GetUint("shards", 1)));
  // --wal DIR: recover (or initialize) a durable directory and serve
  // the journaled index from it; otherwise a plain in-memory build.
  const bool durable_mode = flags.Has("wal");
  DurableIndex durable;
  DynamicIndex local;
  if (durable_mode) {
    Result<SyncPolicy> policy =
        ParseSyncPolicy(flags.Get("sync-policy", "group"));
    if (!policy.ok()) return Fail(policy.status());
    DurableOptions dopts;
    dopts.dir = flags.Get("wal", "");
    dopts.sync_policy = *policy;
    dopts.checkpoint_bytes = flags.GetUint("checkpoint-bytes", 8ull << 20);
    RecoveryStats rstats;
    Status opened = durable.Open(&data, &dist, options, dopts, &rstats);
    if (!opened.ok()) return Fail(opened);
    const std::string torn =
        rstats.truncated ? ", torn tail truncated (" +
                               std::to_string(rstats.truncated_bytes) +
                               " bytes)"
                         : "";
    std::printf("recovery: snapshot %s, %zu replayed, %zu skipped%s, next "
                "seq %llu\n",
                rstats.snapshot_loaded ? "loaded" : "absent",
                rstats.replayed, rstats.skipped, torn.c_str(),
                static_cast<unsigned long long>(rstats.next_seq));
  } else {
    Status built = local.Build(&data, &dist, options);
    if (!built.ok()) return Fail(built);
  }
  DynamicIndex& index = durable_mode ? durable.index() : local;
  MaintenanceService service;
  Status attached = service.Attach(&index, MaintenanceFromFlags(flags));
  if (!attached.ok()) return Fail(attached);
  if (durable_mode) service.SetCheckpointDriver(&durable);
  // Final dump + durable teardown shared by every exit path.
  auto finish = [&]() -> int {
    int rc = 0;
    if (flags.Has("dump-matches")) rc = DumpMatches(flags, index, dist);
    if (durable_mode) {
      const WalWriter& wal = *durable.wal();
      const std::string_view policy = SyncPolicyName(wal.options().sync_policy);
      std::printf("wal: %llu append(s), %llu fsync(s), %llu bytes, %zu "
                  "checkpoint(s), policy %.*s\n",
                  static_cast<unsigned long long>(wal.num_appends()),
                  static_cast<unsigned long long>(wal.num_fsyncs()),
                  static_cast<unsigned long long>(wal.bytes()),
                  durable.num_checkpoints(), static_cast<int>(policy.size()),
                  policy.data());
      Status closed = durable.Close();
      if (!closed.ok()) return Fail(closed);
    }
    return rc;
  };
  const bool thread = flags.GetUint("maintenance", 1) != 0;
  if (thread) {
    Status started = service.Start();
    if (!started.ok()) return Fail(started);
  }
  std::printf("online index: %d shard(s), %d repetitions, maintenance "
              "thread %s\n",
              index.num_shards(), index.repetitions(),
              thread ? "on" : "off");

  // Churn: tombstone random base vectors and insert fresh samples so the
  // delta/tombstone machinery (and the service) has real work. With the
  // thread off, drive the service inline every so often — unmaintained
  // churn grows the per-shard delta without bound, and the COW write
  // path pays for its accumulated size on every mutation.
  Rng churn_rng(flags.GetUint("seed", 1) ^ 0x5eed);
  const size_t churn = flags.GetUint("churn", data.size() / 5);
  const size_t maintenance_stride = std::max<size_t>(1, data.size() / 4);
  size_t removed = 0, inserted = 0;
  for (size_t i = 0; i < churn; ++i) {
    VectorId victim =
        static_cast<VectorId>(churn_rng.NextBounded(data.size()));
    if (index.Remove(victim).ok()) ++removed;
    SparseVector fresh = dist.Sample(&churn_rng);
    if (!fresh.span().empty() && index.Insert(fresh.span()).ok()) {
      ++inserted;
    }
    if (!thread && (i + 1) % maintenance_stride == 0) {
      Status pass = service.RunOnce();
      if (!pass.ok()) return Fail(pass);
    }
  }
  Status pass = service.RunOnce();  // deterministic flush of queued work
  if (!pass.ok()) return Fail(pass);
  std::printf("churn: %zu removed, %zu inserted -> live %zu, tombstones "
              "%zu, compactions %zu, rebuilds %zu\n",
              removed, inserted, index.size(), index.num_tombstones(),
              index.num_compactions(), index.num_rebuilds());
  // Every churned mutation is acknowledged (journaled, with --wal) by
  // now; the durability smoke test kills the process after this line.
  std::fflush(stdout);

  // Delta-aware cost model against the current layout.
  auto prediction = PredictOnlineQueryCost(dist, options.index,
                                           index.size(), index.Profile());
  if (prediction.ok()) {
    std::printf("cost model: dead fraction %.3f, delta fraction %.3f, "
                "predicted candidate factor %.3f\n",
                prediction->dead_fraction, prediction->delta_fraction,
                prediction->candidate_factor);
  }

  // Query targets: the base vectors that survived the churn (a heavy
  // --churn can tombstone every one of them).
  std::vector<VectorId> live_targets;
  live_targets.reserve(data.size());
  for (VectorId id = 0; id < data.size(); ++id) {
    if (index.IsLive(id)) live_targets.push_back(id);
  }
  if (live_targets.empty()) {
    service.Detach();
    std::printf("queries: skipped (churn removed every base vector)\n");
    return finish();
  }
  RunQueryBench(flags, index, data, dist, alpha, live_targets);
  service.Detach();
  return finish();
}

int CmdQueryBench(const Flags& flags) {
  auto data = LoadDataset(flags);
  if (!data.ok()) return Fail(data.status());
  double alpha = flags.GetDouble("alpha", 0.7);
  auto dist = EstimateFrequencies(*data);
  if (!dist.ok()) return Fail(dist.status());
  if (WantsOnline(flags)) {
    if (flags.Has("mmap")) {
      std::fprintf(stderr,
                   "--mmap serves the static frozen index; drop --online\n");
      return 1;
    }
    return CmdQueryBenchOnline(flags, *data, *dist, alpha);
  }

  ShardedIndexOptions options;
  options.index.mode = IndexMode::kCorrelated;
  options.index.alpha = alpha;
  options.index.seed = flags.GetUint("seed", 1);
  options.num_shards =
      std::max(1, static_cast<int>(flags.GetUint("shards", 1)));
  ShardedIndex index;
  Status built = index.Build(&*data, &*dist, options);
  if (!built.ok()) return Fail(built);
  const IndexBuildStats& build_stats = index.build_stats();
  std::printf("index: %d shard(s), %d repetitions, %.1f filters/element, "
              "%.1f MB, built in %.2fs\n",
              index.num_shards(), build_stats.repetitions,
              build_stats.avg_filters_per_element,
              static_cast<double>(index.MemoryBytes()) / 1e6,
              build_stats.build_seconds);

  // --mmap: freeze the just-built index and serve the bench from a
  // zero-copy mapping of the file instead. Queries are byte-identical
  // (same recall/candidates); only the load path differs.
  ShardedIndex mapped_index;
  const bool use_mmap = flags.Has("mmap");
  if (use_mmap) {
    const std::string frozen_path =
        flags.Get("freeze", flags.Get("in", "index") + ".skf");
    Status frozen = index.Freeze(frozen_path);
    if (!frozen.ok()) return Fail(frozen);
    const auto map_start = std::chrono::steady_clock::now();
    Status mapped = mapped_index.MapFrozen(frozen_path, &*data, &*dist);
    if (!mapped.ok()) return Fail(mapped);
    const double map_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - map_start)
            .count();
    std::printf("mmap: froze to %s, mapped zero-copy in %.3f ms "
                "(heap build took %.2fs)\n",
                frozen_path.c_str(), map_ms, build_stats.build_seconds);
  }
  const ShardedIndex& query_index = use_mmap ? mapped_index : index;

  std::vector<VectorId> targets(data->size());
  std::iota(targets.begin(), targets.end(), VectorId{0});
  RunQueryBench(flags, query_index, *data, *dist, alpha, targets);
  return 0;
}

int CmdFreeze(const Flags& flags) {
  auto data = LoadDataset(flags);
  if (!data.ok()) return Fail(data.status());
  const std::string out = flags.Get("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "freeze needs --out FILE\n");
    return 1;
  }
  auto dist = EstimateFrequencies(*data);
  if (!dist.ok()) return Fail(dist.status());
  ShardedIndexOptions options;
  if (flags.Has("b1")) {
    options.index.mode = IndexMode::kAdversarial;
    options.index.b1 = flags.GetDouble("b1", 0.7);
  } else {
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = flags.GetDouble("alpha", 0.7);
  }
  options.index.seed = flags.GetUint("seed", 1);
  options.num_shards =
      std::max(1, static_cast<int>(flags.GetUint("shards", 1)));
  ShardedIndex index;
  Status built = index.Build(&*data, &*dist, options);
  if (!built.ok()) return Fail(built);
  Status frozen = index.Freeze(out);
  if (!frozen.ok()) return Fail(frozen);
  std::printf("froze %zu vectors into %d shard(s) at %s\n", data->size(),
              index.num_shards(), out.c_str());
  return 0;
}

/// The report lines of a join command after its timing line:
/// engine/wire/recovery counters, the first pairs, and the --dump-pairs
/// file.
int ReportJoinOutput(const Flags& flags, const JoinOptions& options,
                     const DistributedJoinStats& stats,
                     const std::vector<JoinPair>& pairs) {
  if (!options.frozen_shards.empty()) {
    std::printf("frozen shards: build side served zero-copy from %s%s\n",
                options.frozen_shards.c_str(),
                options.remote_workers.empty() ? ""
                                               : " (workers pre-mapped)");
  }
  std::printf("join engine: %zu worker(s)%s, duplication factor %.2f, "
              "probe fan-out %.2f\n",
              stats.workers.size(),
              options.remote_workers.empty() ? "" : " (remote)",
              stats.duplication_factor, stats.probe_fanout);
  if (!options.remote_workers.empty()) {
    std::printf("wire: %.1f KB sent, %.1f KB received, %zu batches in "
                "%zu exposed round trips (pipeline %zu)\n",
                static_cast<double>(stats.wire_bytes_sent) / 1e3,
                static_cast<double>(stats.wire_bytes_received) / 1e3,
                stats.probe_batches_sent, stats.probe_round_trips,
                options.pipeline);
    // The smoke test reads both lines after killing a worker: each ship
    // and re-ship is a reassignment on the worker that applied it.
    if (stats.deferred_ships > 0) {
      std::printf("shipped one-id lists %zu time(s) after the attach\n",
                  stats.deferred_ships);
    }
    if (stats.worker_recoveries > 0) {
      std::printf("recovered %zu worker(s), replayed %zu batch(es)\n",
                  stats.worker_recoveries, stats.replayed_batches);
    }
  }
  for (size_t k = 0; k < std::min<size_t>(10, pairs.size()); ++k) {
    const JoinPair& pr = pairs[k];
    std::printf("  %u ~ %u  (%.3f)\n", pr.left, pr.right, pr.similarity);
  }
  if (flags.Has("dump-pairs")) {
    const std::string path = flags.Get("dump-pairs", "");
    // %.17g round-trips every double exactly, so two dumps are equal
    // iff the pair lists are byte-identical.
    const bool written = WriteFileChecked(path, [&](std::FILE* out) {
      for (const JoinPair& pr : pairs) {
        std::fprintf(out, "%u %u %.17g\n", pr.left, pr.right,
                     pr.similarity);
      }
    });
    if (!written) return 1;
    std::printf("wrote %zu pairs to %s\n", pairs.size(), path.c_str());
  }
  return 0;
}

/// selfjoin and join: selfjoin self-joins --in, and join probes the
/// build side --right with every vector of --left.
int CmdJoin(const Flags& flags, bool self_join) {
  Result<Dataset> left = Dataset();
  Result<Dataset> right = Dataset();  // the build side
  if (self_join) {
    right = LoadDataset(flags);
  } else {
    const std::string left_path = flags.Get("left", "");
    const std::string right_path = flags.Get("right", "");
    if (left_path.empty() || right_path.empty()) {
      std::fprintf(stderr, "join needs --left FILE and --right FILE\n");
      return 1;
    }
    auto load = [&](const std::string& path) {
      return flags.Has("binary") ? ReadBinary(path) : ReadTransactions(path);
    };
    left = load(left_path);
    if (!left.ok()) return Fail(left.status());
    right = load(right_path);
  }
  if (!right.ok()) return Fail(right.status());
  double b1 = flags.GetDouble("b1", 0.7);
  // The index (and the skew plan) is derived from the build side, but
  // its estimated universe must also cover every probe-side item:
  // widen it before estimating, so left-only items get the smoothed
  // unseen-item probability instead of being out of range.
  if (left->dimension() > right->dimension()) {
    Status widened = right->SetDimension(left->dimension());
    if (!widened.ok()) return Fail(widened);
  }
  auto dist = EstimateFrequencies(*right);
  if (!dist.ok()) return Fail(dist.status());

  JoinOptions options;
  options.index.mode = IndexMode::kAdversarial;
  options.index.b1 = b1;
  options.index.seed = flags.GetUint("seed", 1);
  options.threshold = b1;
  options.workers = static_cast<int>(flags.GetUint("workers", 0));
  options.heavy_threshold = flags.GetUint("heavy-threshold", 0);
  options.probe_batch =
      static_cast<size_t>(flags.GetUint("probe-batch", 256));
  options.pipeline = static_cast<size_t>(flags.GetUint("pipeline", 2));
  options.frozen_shards = flags.Get("frozen", "");
  if (flags.Has("connect")) {
    const std::string endpoints = flags.Get("connect", "");
    std::string token;
    for (size_t i = 0; i <= endpoints.size(); ++i) {
      if (i == endpoints.size() || endpoints[i] == ',') {
        if (!token.empty()) options.remote_workers.push_back(token);
        token.clear();
      } else {
        token.push_back(endpoints[i]);
      }
    }
    if (options.remote_workers.empty()) {
      std::fprintf(stderr, "--connect needs at least one host:port\n");
      return 1;
    }
  }

  DistributedJoinStats stats;
  auto pairs = self_join
                   ? SelfSimilarityJoin(*right, *dist, options, &stats)
                   : SimilarityJoin(*left, *right, *dist, options, &stats);
  if (!pairs.ok()) return Fail(pairs.status());
  if (self_join) {
    std::printf("self-join at B >= %.2f: ", b1);
  } else {
    std::printf("R-S join at B >= %.2f: %zu probes x %zu indexed -> ", b1,
                left->size(), right->size());
  }
  std::printf("%zu pairs (build %.2fs, probe %.2fs, %zu candidates)\n",
              pairs->size(), stats.build_seconds + stats.plan_seconds,
              stats.probe_seconds, stats.candidates);
  return ReportJoinOutput(flags, options, stats, *pairs);
}

/// The server the drain signals land on. Set for the lifetime of
/// CmdJoinWorker's Serve(); RequestDrain is async-signal-safe.
std::atomic<WorkerServer*> g_drain_target{nullptr};

extern "C" void HandleDrainSignal(int /*signum*/) {
  WorkerServer* server = g_drain_target.load(std::memory_order_acquire);
  if (server != nullptr) server->RequestDrain();
}

/// Set by SIGUSR1; the watcher thread turns it into a --metrics-dump
/// write (registry serialization is not async-signal-safe, so the
/// handler only raises the flag).
std::atomic<bool> g_dump_requested{false};

extern "C" void HandleDumpSignal(int /*signum*/) {
  g_dump_requested.store(true, std::memory_order_release);
}

/// Writes the global registry's JSON exposition to \p path (the
/// --metrics-dump format, same as the benches' "obs" block).
bool WriteMetricsDump(const std::string& path) {
  const std::string json = obs::MetricsRegistry::Global().JsonExposition();
  return WriteFileChecked(path, [&](std::FILE* out) {
    std::fwrite(json.data(), 1, json.size(), out);
  });
}

/// The --summary-interval one-liner: cumulative served work from the
/// global registry, cheap enough to log every few seconds.
void LogWorkerSummary() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  SKEWSEARCH_LOG(kInfo)
      << "served " << registry.GetCounter("worker.batches")->Value()
      << " batches / " << registry.GetCounter("worker.probes")->Value()
      << " probes, " << registry.GetCounter("worker.matches")->Value()
      << " matches, "
      << registry.GetGauge("worker.sessions.active")->Value()
      << " active session(s), "
      << registry.GetCounter("worker.wire.bytes_received")->Value()
      << " B in / "
      << registry.GetCounter("worker.wire.bytes_sent")->Value() << " B out";
}

int CmdJoinWorker(const Flags& flags) {
  const uint64_t requested = flags.GetUint("listen", 0);
  if (requested > 65535) {
    std::fprintf(stderr, "error: --listen %llu is not a valid port\n",
                 static_cast<unsigned long long>(requested));
    return 1;
  }
  const uint16_t port = static_cast<uint16_t>(requested);
  auto listener = TcpListener::Listen(port);
  if (!listener.ok()) return Fail(listener.status());

  WorkerServerOptions options;
  options.max_sessions =
      static_cast<uint32_t>(flags.GetUint("max-sessions", 0));
  options.idle_timeout_ms =
      static_cast<uint32_t>(flags.GetUint("idle-timeout", 0));
  options.serve.fail_after_batches = flags.GetUint("die-after-batches", 0);
  const bool die_on_trip = options.serve.fail_after_batches > 0;
  // Session completions go through the logger, pre-formatted so each
  // line is a single write — concurrent session threads never
  // interleave mid-line.
  options.on_session_done = [die_on_trip](uint64_t session_id,
                                          const WorkerServeStats& stats,
                                          const Status& status) {
    char line[512];
    if (status.ok()) {
      std::snprintf(line, sizeof(line),
                    "session %llu: worker %u served %llu probes in %llu "
                    "batches, %llu matches, %llu reassignment(s) "
                    "(%.1f KB in, %.1f KB out)",
                    static_cast<unsigned long long>(session_id),
                    stats.worker_id,
                    static_cast<unsigned long long>(stats.probes),
                    static_cast<unsigned long long>(stats.batches),
                    static_cast<unsigned long long>(stats.matches),
                    static_cast<unsigned long long>(stats.reassignments),
                    static_cast<double>(stats.wire.bytes_received) / 1e3,
                    static_cast<double>(stats.wire.bytes_sent) / 1e3);
    } else {
      std::snprintf(line, sizeof(line),
                    "session %llu: worker %u ended after %llu batches: %s",
                    static_cast<unsigned long long>(session_id),
                    stats.worker_id,
                    static_cast<unsigned long long>(stats.batches),
                    status.ToString().c_str());
    }
    SKEWSEARCH_LOG(kInfo) << line;
    if (die_on_trip && status.IsAborted()) {
      // --die-after-batches: the whole point is a process that
      // vanishes mid-stream, so no drain, no cleanup, no exit hooks.
      std::_Exit(3);
    }
  };

  // --shard-file: pre-map a frozen SKF2 file (and load the dataset it
  // was frozen from) so --frozen coordinators can open frozen-shard
  // sessions with a tiny ShardAssignment instead of shipping slices.
  // Both live here, above the server, for the whole Serve() lifetime.
  std::shared_ptr<const FrozenShardFile> frozen_file;
  Dataset frozen_data;
  const std::string shard_file = flags.Get("shard-file", "");
  if (!shard_file.empty()) {
    const std::string data_path = flags.Get("data", "");
    if (data_path.empty()) {
      std::fprintf(stderr, "--shard-file needs --data FILE (the dataset "
                           "the file was frozen from)\n");
      return 1;
    }
    auto loaded = flags.Has("binary") ? ReadBinary(data_path)
                                      : ReadTransactions(data_path);
    if (!loaded.ok()) return Fail(loaded.status());
    frozen_data = std::move(loaded).value();
    auto mapped = FrozenShardFile::Map(shard_file);
    if (!mapped.ok()) return Fail(mapped.status());
    frozen_file = std::move(mapped).value();
    if (frozen_file->fingerprint() !=
        index_io_internal::Fingerprint(frozen_data)) {
      return Fail(Status::InvalidArgument(
          "--data does not match the dataset '" + shard_file +
          "' was frozen from"));
    }
    options.serve.frozen_file = frozen_file.get();
    options.serve.frozen_data = &frozen_data;
    std::printf("mapped %d frozen shard(s) from %s (%zu vectors)\n",
                frozen_file->num_shards(), shard_file.c_str(),
                frozen_data.size());
  }

  // Session lines and summaries are kInfo; a worker process exists to
  // be observed, so raise the default kWarning filter.
  SetLogLevel(LogLevel::kInfo);
  const std::string dump_path = flags.Get("metrics-dump", "");
  const uint64_t summary_interval = flags.GetUint("summary-interval", 0);

  WorkerServer server(std::move(listener).value(), std::move(options));
  g_drain_target.store(&server, std::memory_order_release);
  std::signal(SIGTERM, HandleDrainSignal);
  std::signal(SIGINT, HandleDrainSignal);
  if (!dump_path.empty()) std::signal(SIGUSR1, HandleDumpSignal);

  // The watcher turns SIGUSR1 flags into dump files and emits the
  // periodic summaries; polling (not signaling) keeps every
  // registry access off the signal handler.
  std::atomic<bool> stop_watcher{false};
  std::thread watcher;
  if (!dump_path.empty() || summary_interval > 0) {
    watcher = std::thread([&stop_watcher, &dump_path, summary_interval] {
      auto last_summary = std::chrono::steady_clock::now();
      while (!stop_watcher.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (g_dump_requested.exchange(false, std::memory_order_acq_rel) &&
            !dump_path.empty() && WriteMetricsDump(dump_path)) {
          SKEWSEARCH_LOG(kInfo) << "metrics dumped to " << dump_path;
        }
        const auto now = std::chrono::steady_clock::now();
        if (summary_interval > 0 &&
            now - last_summary >= std::chrono::seconds(summary_interval)) {
          last_summary = now;
          LogWorkerSummary();
        }
      }
    });
  }

  // The smoke script and any process manager parse this line (and port
  // 0 resolves to the kernel's pick), so flush it before blocking.
  std::printf("join-worker listening on port %u\n",
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  Status served = server.Serve();
  g_drain_target.store(nullptr, std::memory_order_release);
  stop_watcher.store(true, std::memory_order_release);
  if (watcher.joinable()) watcher.join();
  const bool dumped = dump_path.empty() || WriteMetricsDump(dump_path);
  if (!served.ok()) return Fail(served);
  const WorkerServerStats totals = server.stats();
  std::printf("join-worker drained%s: %llu session(s) accepted, %llu ok, "
              "%llu failed\n",
              totals.idle_timeout_hit ? " (idle timeout)" : "",
              static_cast<unsigned long long>(totals.sessions_accepted),
              static_cast<unsigned long long>(totals.sessions_ok),
              static_cast<unsigned long long>(totals.sessions_failed));
  return dumped ? 0 : 1;
}

int CmdJoinStats(const Flags& flags) {
  const std::string endpoint = flags.Get("connect", "");
  if (endpoint.empty()) {
    std::fprintf(stderr, "join-stats needs --connect HOST:PORT\n");
    return 1;
  }
  auto connection = ConnectEndpoint(endpoint);
  if (!connection.ok()) return Fail(connection.status());
  auto stats = ScrapeWorkerStats(connection->get());
  if (!stats.ok()) return Fail(stats.status());
  const std::string rendered = flags.Has("json")
                                   ? obs::RenderJson(stats->metrics)
                                   : obs::RenderText(stats->metrics);
  std::fputs(rendered.c_str(), stdout);
  return 0;
}

/// A command, its entry point, and the flags it takes, separated by
/// spaces.
struct Command {
  std::string_view name;
  int (*run)(const Flags&);
  std::string flags;
};

std::vector<Command> Commands() {
  // Flag groups that more than one command takes.
  const std::string remote = " connect probe-batch pipeline";
  const std::string frozen = " frozen";
  const std::string join = " b1 seed workers heavy-threshold dump-pairs binary";
  return {
      {"generate", CmdGenerate, "kind n d p p2 d2 exp avg seed out binary"},
      {"mann", CmdMann, "name n seed out binary"},
      {"profile", CmdProfile, "in binary"},
      {"independence", CmdIndependence, "in binary"},
      {"query-bench", CmdQueryBench,
       "in alpha queries seed shards mmap freeze online maintenance "
       "drift-factor dead-ratio churn trace dump-matches probes wal "
       "sync-policy checkpoint-bytes binary"},
      {"freeze", CmdFreeze, "in out b1 alpha seed shards binary"},
      {"selfjoin", [](const Flags& flags) { return CmdJoin(flags, true); },
       "in" + join + remote + frozen},
      {"join", [](const Flags& flags) { return CmdJoin(flags, false); },
       "left right" + join + remote + frozen},
      {"join-worker", CmdJoinWorker,
       "listen max-sessions idle-timeout shard-file data die-after-batches "
       "metrics-dump summary-interval binary"},
      {"join-stats", CmdJoinStats, "connect json"},
  };
}

}  // namespace

int RunCli(const std::vector<std::string>& args) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    std::printf("%s", kUsage);
    return args.empty() ? 1 : 0;
  }
  for (const Command& command : Commands()) {
    if (args[0] != command.name) continue;
    auto flags = Flags::Parse(args, command.flags);
    return flags ? command.run(*flags) : 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n%s", args[0].c_str(), kUsage);
  return 1;
}

}  // namespace skewsearch
