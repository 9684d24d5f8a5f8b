// Copyright 2026 The skewsearch Authors.
// Distributed all-pairs join scaling: pairs/sec vs worker count, and
// duplication factor vs skew.
//
// Part 1 runs the one-shot SelfSimilarityJoin (W = 1) as the baseline,
// then DistributedJoin at increasing worker counts W, verifying at each
// W that the pair output is identical (the driver's core contract) and
// reporting probe throughput, duplication factor, probe fan-out, and
// worker balance (max/mean posting entries).
//
// Part 2 fixes W and sweeps dataset skew — Zipf exponents plus an
// adversarial all-duplicates ("mega-key") profile — to show how the
// planner's heavy-key splitting absorbs skew: duplication factor and
// fan-out grow with skew while the per-worker entry balance stays flat.
//
// With --transport loopback|tcp, part 1 serves the workers over the
// real transport seam (thread-hosted ServeConnection sessions; tcp uses
// actual localhost sockets) and reports bytes-on-wire plus the round
// trips taken three ways: pipelined batches (--pipeline frames in
// flight per worker, the default), strict batches (pipeline 1, wait for
// each response before the next send), and unbatched (one probe per
// frame) — identity against the one-shot baseline is verified in every
// variant. The exposed-round-trip column is the pipelining win:
// same frames, fewer synchronous waits. A remote variant's pairs/sec is
// its best join of max(--rounds, 10): one loopback join at CI's size
// lasts milliseconds, so a single one swings with the scheduler.
//
// With --json FILE the headline counts (the one-shot join's pairs,
// candidates and verifications; and over a transport the pairs,
// exposed trips per variant, bytes shipped/on-wire, probe keys,
// route-phase kernel draws, and the serve work: candidates,
// verifications and probe fan-out) are written as a bench JSON document
// for tools/bench_compare.py; they are deterministic for a fixed seed,
// so CI gates them against BENCH_baseline.json.
//
// Flags: --n <dataset> --b1 <threshold> --workers <list> --threads <T>
//        --seed <S> --rounds <timed repetitions>
//        --transport inprocess|loopback|tcp --probe-batch <N>
//        --pipeline <W> --json <file>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "core/similarity_join.h"
#include "data/generators.h"
#include "distributed/distributed_join.h"
#include "distributed/transport/session.h"
#include "distributed/transport/tcp_transport.h"
#include "distributed/transport/transport.h"
#include "util/random.h"
#include "util/timer.h"

namespace skewsearch {
namespace {

struct Config {
  size_t n = 4000;
  double b1 = 0.8;
  int threads = 4;
  int rounds = 3;
  uint64_t seed = 1;
  std::vector<int> workers = {1, 2, 4, 8};
  std::string transport = "inprocess";  // inprocess | loopback | tcp
  size_t probe_batch = 256;
  size_t pipeline = 2;
};

std::vector<int> ParseIntList(const char* text) {
  std::vector<int> out;
  std::string token;
  for (const char* p = text;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!token.empty()) out.push_back(std::max(1, std::atoi(token.c_str())));
      token.clear();
      if (*p == '\0') break;
    } else {
      token.push_back(*p);
    }
  }
  return out.empty() ? std::vector<int>{1} : out;
}

Config ParseArgs(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strcmp(argv[i], "--n") == 0) {
      config.n = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--b1") == 0) {
      config.b1 = std::atof(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      config.threads = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--rounds") == 0) {
      config.rounds = std::max(1, std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      config.seed = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      config.workers = ParseIntList(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--transport") == 0) {
      config.transport = argv[i + 1];
    } else if (std::strcmp(argv[i], "--probe-batch") == 0) {
      config.probe_batch = static_cast<size_t>(std::atoll(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--pipeline") == 0) {
      config.pipeline =
          std::max<size_t>(1, static_cast<size_t>(std::atoll(argv[i + 1])));
    }
  }
  return config;
}

/// One thread-hosted remote worker (loopback queues or a real localhost
/// socket) running the same ServeConnection loop the join-worker
/// process runs. The destructor wakes a thread still blocked in
/// Accept (listener shared for exactly that) and joins, so bailing out
/// of the bench on any error path can never hit std::terminate on a
/// joinable thread.
struct HostedWorker {
  std::thread thread;
  Status status;
  std::shared_ptr<TcpListener> listener;

  ~HostedWorker() {
    if (listener) listener->Shutdown();
    if (thread.joinable()) thread.join();
  }

  void ServeLoopback(std::unique_ptr<FrameConnection> end) {
    thread = std::thread([this, conn = std::move(end)]() mutable {
      status = ServeConnection(conn.get());
    });
  }
  void ServeTcp(std::shared_ptr<TcpListener> shared_listener) {
    listener = shared_listener;
    thread = std::thread([this, l = std::move(shared_listener)] {
      auto conn = l->Accept();
      if (!conn.ok()) {
        status = conn.status();
        return;
      }
      status = ServeConnection(conn->get());
    });
  }
};

/// Attaches `join` to thread-hosted workers over the chosen transport.
bool AttachHosted(DistributedJoin* join, const std::string& transport,
                  std::vector<std::unique_ptr<HostedWorker>>* hosts) {
  std::vector<std::unique_ptr<FrameConnection>> connections;
  for (int w = 0; w < join->num_workers(); ++w) {
    auto host = std::make_unique<HostedWorker>();
    if (transport == "loopback") {
      auto [coordinator_end, worker_end] = LoopbackPair();
      host->ServeLoopback(std::move(worker_end));
      connections.push_back(std::move(coordinator_end));
    } else {
      auto listener = TcpListener::Listen(0);
      if (!listener.ok()) {
        std::fprintf(stderr, "listen failed: %s\n",
                     listener.status().ToString().c_str());
        return false;
      }
      const uint16_t port = listener->port();
      host->ServeTcp(
          std::make_shared<TcpListener>(std::move(listener).value()));
      auto connection = TcpConnect("127.0.0.1", port);
      if (!connection.ok()) {
        std::fprintf(stderr, "connect failed: %s\n",
                     connection.status().ToString().c_str());
        return false;
      }
      connections.push_back(std::move(connection).value());
    }
    hosts->push_back(std::move(host));
  }
  Status attached = join->AttachRemote(std::move(connections));
  if (!attached.ok()) {
    std::fprintf(stderr, "attach failed: %s\n",
                 attached.ToString().c_str());
    return false;
  }
  return true;
}

bool DetachHosted(DistributedJoin* join,
                  std::vector<std::unique_ptr<HostedWorker>>* hosts) {
  join->DetachRemote();
  bool ok = true;
  for (auto& host : *hosts) {
    if (host->thread.joinable()) host->thread.join();
    if (!host->status.ok()) {
      std::fprintf(stderr, "worker failed: %s\n",
                   host->status.ToString().c_str());
      ok = false;
    }
  }
  hosts->clear();
  return ok;
}

Dataset MakeData(const ProductDistribution& dist, size_t n, uint64_t seed,
                 size_t dimension) {
  Rng rng(seed);
  Dataset data;
  for (size_t i = 0; i < n; ++i) data.Add(dist.Sample(&rng));
  // Plant duplicates so the join has non-trivial output.
  for (size_t i = 0; i < n / 20; ++i) {
    data.Add(data.GetVector(static_cast<VectorId>(i * 7 % n)));
  }
  if (!data.SetDimension(dimension).ok()) std::abort();
  return data;
}

bool SamePairs(const std::vector<JoinPair>& a,
               const std::vector<JoinPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].left != b[i].left || a[i].right != b[i].right ||
        a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

struct BalanceReport {
  size_t max_entries = 0;
  double mean_entries = 0.0;
};

BalanceReport Balance(const DistributedJoinStats& stats) {
  BalanceReport report;
  size_t total = 0;
  for (const WorkerLoad& load : stats.workers) {
    report.max_entries = std::max(report.max_entries, load.entries);
    total += load.entries;
  }
  if (!stats.workers.empty()) {
    report.mean_entries =
        static_cast<double>(total) / static_cast<double>(stats.workers.size());
  }
  return report;
}

int Run(int argc, char** argv) {
  Config config = ParseArgs(argc, argv);
  using bench::Banner;
  using bench::Fmt;
  using bench::Note;
  using bench::Table;

  bench::JsonReporter reporter("distributed_scaling");
  const bool remote_transport = config.transport != "inprocess";
  if (remote_transport && config.transport != "loopback" &&
      config.transport != "tcp") {
    std::fprintf(stderr,
                 "unknown --transport '%s' (inprocess, loopback, tcp)\n",
                 config.transport.c_str());
    return 1;
  }

  JoinOptions join_options;
  join_options.index.mode = IndexMode::kAdversarial;
  join_options.index.b1 = config.b1;
  join_options.index.seed = config.seed;
  join_options.threshold = config.b1;
  join_options.threads = config.threads;

  // Part 1: pairs/sec vs W on Zipf data ---------------------------------
  Banner("distributed join scaling (zipf, n = " + std::to_string(config.n) +
         ", b1 = " + bench::Fmt(config.b1, 2) + ")");
  auto dist = ZipfProbabilities(20000, 1.0, 0.4).value();
  Dataset data = MakeData(dist, config.n, config.seed, 20000);

  DistributedJoinStats baseline_stats;
  auto baseline = SelfSimilarityJoin(data, dist, join_options,
                                     &baseline_stats);
  if (!baseline.ok()) {
    std::fprintf(stderr, "baseline join failed: %s\n",
                 baseline.status().ToString().c_str());
    return 1;
  }
  double baseline_seconds = baseline_stats.probe_seconds;
  for (int round = 1; round < config.rounds; ++round) {
    DistributedJoinStats round_stats;
    auto again = SelfSimilarityJoin(data, dist, join_options, &round_stats);
    if (!again.ok()) return 1;
    baseline_seconds = std::min(baseline_seconds, round_stats.probe_seconds);
  }
  Note("one-shot join (W = 1) baseline: " + Fmt(baseline->size()) +
       " pairs, " +
       Fmt(baseline->size() / std::max(1e-9, baseline_seconds), 0) +
       " pairs/sec (probe phase, best of " + Fmt(config.rounds) +
       " rounds)");
  // The default join's work. A one-shot join that falls back to a path
  // scanning or verifying more than the engine does fails CI here.
  reporter.Metric("oneshot_pairs", static_cast<double>(baseline_stats.pairs),
                  /*stable=*/true, "pairs");
  reporter.Metric("oneshot_candidates",
                  static_cast<double>(baseline_stats.candidates),
                  /*stable=*/true, "entries");
  reporter.Metric("oneshot_verifications",
                  static_cast<double>(baseline_stats.verifications),
                  /*stable=*/true, "verifications");

  bool all_identical = true;
  if (!remote_transport) {
    Table scaling({"workers", "pairs", "pairs/sec", "dup factor", "fan-out",
                   "max/mean entries", "identical"});
    for (int workers : config.workers) {
      DistributedJoinOptions options;
      options.index = join_options.index;
      options.threshold = config.b1;
      options.workers = workers;
      options.threads = config.threads;
      DistributedJoin join;
      Status built = join.Build(&data, &dist, options);
      if (!built.ok()) {
        std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
        return 1;
      }
      DistributedJoinStats stats;
      auto pairs = join.SelfJoin(&stats);
      if (!pairs.ok()) return 1;
      double best = stats.probe_seconds;
      for (int round = 1; round < config.rounds; ++round) {
        DistributedJoinStats round_stats;
        auto again = join.SelfJoin(&round_stats);
        if (!again.ok()) return 1;
        best = std::min(best, round_stats.probe_seconds);
      }
      const bool identical = SamePairs(*baseline, *pairs);
      all_identical = all_identical && identical;
      BalanceReport balance = Balance(stats);
      scaling.AddRow({Fmt(workers), Fmt(pairs->size()),
                      Fmt(pairs->size() / std::max(1e-9, best), 0),
                      Fmt(stats.duplication_factor, 2),
                      Fmt(stats.probe_fanout, 2),
                      Fmt(balance.max_entries) + "/" +
                          Fmt(balance.mean_entries, 0),
                      identical ? "yes" : "NO"});
    }
    scaling.Print();
    Note("container may be single-core; wall-clock scaling vs W needs "
         "multicore hardware, but duplication/balance/identity hold "
         "anywhere");
  } else {
    // Remote serving over the chosen transport: each worker count runs
    // three variants — pipelined batches (--pipeline ProbeBatch frames
    // in flight per worker), strict batches (pipeline 1: wait for every
    // response before the next send), and unbatched (1 probe per frame,
    // strict) — so the round-trip columns separate what batching buys
    // (fewer frames) from what pipelining buys (fewer synchronous waits
    // over the same frames). "wire KB" counts probe-phase frame bytes
    // both directions; "ship KB" is the one-time handshake + assignment
    // traffic: the lists that can pair in a self-join and the vectors
    // they reference (a self-join never ships the one-id lists).
    Banner("transport = " + config.transport + " (batch " +
           Fmt(config.probe_batch) + " pipelined x" + Fmt(config.pipeline) +
           " vs strict vs unbatched)");
    Table scaling({"workers", "pairs", "pairs/sec", "ship KB", "wire KB",
                   "batches", "trips (pipe)", "trips (strict)",
                   "trips (b=1)", "identical"});
    struct RemoteRun {
      uint64_t wire_kb = 0;
      size_t round_trips = 0;
      size_t batches_sent = 0;
      size_t probe_keys = 0;
      size_t route_draws = 0;
      size_t candidates = 0;
      size_t verifications = 0;
      double probe_fanout = 0.0;
      uint64_t ship_kb = 0;
      double best_seconds = 1e9;
      size_t pairs = 0;
      bool identical = false;
    };
    RemoteRun last[3];  // the final worker count's runs, for the JSON
    const int timed_joins = std::max(config.rounds, 10);
    for (int workers : config.workers) {
      RemoteRun runs[3];
      const size_t batches[3] = {config.probe_batch, config.probe_batch, 1};
      const size_t windows[3] = {config.pipeline, 1, 1};
      for (int variant = 0; variant < 3; ++variant) {
        DistributedJoinOptions options;
        options.index = join_options.index;
        options.threshold = config.b1;
        options.workers = workers;
        options.threads = config.threads;
        options.probe_batch = batches[variant];
        options.pipeline = windows[variant];
        // hosts must outlive join: join's destructor shuts the remote
        // sessions down, which is what lets the hosts' destructors
        // join their serving threads on early-error returns.
        std::vector<std::unique_ptr<HostedWorker>> hosts;
        DistributedJoin join;
        Status built = join.Build(&data, &dist, options);
        if (!built.ok()) {
          std::fprintf(stderr, "build failed: %s\n",
                       built.ToString().c_str());
          return 1;
        }
        if (!AttachHosted(&join, config.transport, &hosts)) return 1;
        const WireStats shipped = join.RemoteWireTotals();
        RemoteRun& run = runs[variant];
        run.ship_kb = shipped.bytes_sent / 1000;
        for (int round = 0; round < timed_joins; ++round) {
          DistributedJoinStats stats;
          auto pairs = join.SelfJoin(&stats);
          if (!pairs.ok()) {
            std::fprintf(stderr, "remote join failed: %s\n",
                         pairs.status().ToString().c_str());
            return 1;
          }
          run.best_seconds = std::min(run.best_seconds, stats.probe_seconds);
          run.wire_kb =
              (stats.wire_bytes_sent + stats.wire_bytes_received) / 1000;
          run.round_trips = stats.probe_round_trips;
          run.batches_sent = stats.probe_batches_sent;
          run.probe_keys = stats.probe_keys;
          run.route_draws = stats.route_draws;
          run.candidates = stats.candidates;
          run.verifications = stats.verifications;
          run.probe_fanout = stats.probe_fanout;
          run.pairs = pairs->size();
          run.identical =
              (round == 0 || run.identical) && SamePairs(*baseline, *pairs);
        }
        if (!DetachHosted(&join, &hosts)) return 1;
        all_identical = all_identical && run.identical;
      }
      scaling.AddRow(
          {Fmt(workers), Fmt(runs[0].pairs),
           Fmt(runs[0].pairs / std::max(1e-9, runs[0].best_seconds), 0),
           Fmt(runs[0].ship_kb), Fmt(runs[0].wire_kb),
           Fmt(runs[0].batches_sent), Fmt(runs[0].round_trips),
           Fmt(runs[1].round_trips), Fmt(runs[2].round_trips),
           runs[0].identical && runs[1].identical && runs[2].identical
               ? "yes"
               : "NO"});
      for (int variant = 0; variant < 3; ++variant) {
        last[variant] = runs[variant];
      }
    }
    scaling.Print();
    Note("batching amortizes per-frame overhead; pipelining overlaps the "
         "next batch with the worker's current one — same frames, fewer "
         "exposed round trips");
    // All counts here are deterministic for a fixed seed (the send/
    // receive order is driven purely by the coordinator loop), so CI
    // gates them as stable metrics.
    reporter.Metric("pairs", static_cast<double>(last[0].pairs),
                    /*stable=*/true, "pairs");
    reporter.Metric("probe_batches_sent",
                    static_cast<double>(last[0].batches_sent),
                    /*stable=*/true, "frames");
    reporter.Metric("trips_pipelined",
                    static_cast<double>(last[0].round_trips),
                    /*stable=*/true, "round trips");
    reporter.Metric("trips_strict", static_cast<double>(last[1].round_trips),
                    /*stable=*/true, "round trips");
    reporter.Metric("trips_unbatched",
                    static_cast<double>(last[2].round_trips),
                    /*stable=*/true, "round trips");
    reporter.Metric("pipelining_reduces_trips",
                    last[0].round_trips < last[1].round_trips ? 1 : 0,
                    /*stable=*/true, "bool");
    reporter.Metric("ship_kb", static_cast<double>(last[0].ship_kb),
                    /*stable=*/true, "KB");
    reporter.Metric("wire_kb", static_cast<double>(last[0].wire_kb),
                    /*stable=*/true, "KB");
    // A self-join's workers pair each probe inside their own lists, so
    // it ships only keys of lists on an owner that do not hold the probe
    // (none without heavy keys), and its route, which reads the slices,
    // makes no filter-kernel draws; a route that ships keys a worker
    // holds, or regrows F(x) per probe, shows up here.
    reporter.Metric("probe_keys", static_cast<double>(last[0].probe_keys),
                    /*stable=*/true, "keys");
    reporter.Metric("route_draws", static_cast<double>(last[0].route_draws),
                    /*stable=*/true, "draws");
    // The serve work the route hands the workers: posting entries
    // scanned, similarity computations, and the average workers a probe
    // contacts. A self-join scans a list only on owners whose slice holds
    // an id above the probe, and every such id whose size can reach the
    // threshold is still verified, so verifications must not move when
    // the route ships fewer keys.
    reporter.Metric("candidates", static_cast<double>(last[0].candidates),
                    /*stable=*/true, "entries");
    reporter.Metric("verifications",
                    static_cast<double>(last[0].verifications),
                    /*stable=*/true, "verifications");
    reporter.Metric("probe_fanout", last[0].probe_fanout, /*stable=*/true,
                    "workers");
    reporter.Metric("pairs_per_sec_pipelined",
                    static_cast<double>(last[0].pairs) /
                        std::max(1e-9, last[0].best_seconds),
                    /*stable=*/false, "pairs/s");
  }

  // Part 2: duplication factor vs skew ----------------------------------
  Banner("duplication factor vs skew (W = 8)");
  struct SkewCase {
    std::string name;
    ProductDistribution dist;
    Dataset data;
  };
  std::vector<SkewCase> cases;
  for (double exponent : {0.5, 1.0, 1.5}) {
    auto d = ZipfProbabilities(20000, exponent, 0.4).value();
    Dataset sample = MakeData(d, config.n / 2, config.seed + 1, 20000);
    cases.push_back({"zipf exp " + Fmt(exponent, 1), std::move(d),
                     std::move(sample)});
  }
  {
    // Adversarial mega-key profile: every vector identical, so each
    // filter key's posting list spans the entire dataset.
    auto d = UniformProbabilities(100, 0.25).value();
    Rng rng(config.seed + 2);
    SparseVector proto = d.Sample(&rng);
    while (proto.span().size() < 5) proto = d.Sample(&rng);
    Dataset clones;
    for (size_t i = 0; i < std::min<size_t>(config.n / 2, 1000); ++i) {
      clones.Add(proto);
    }
    if (!clones.SetDimension(100).ok()) std::abort();
    cases.push_back({"all-duplicates", std::move(d), std::move(clones)});
  }

  Table skew({"profile", "heavy keys", "slices", "dup factor", "fan-out",
              "max/mean entries"});
  for (SkewCase& skew_case : cases) {
    DistributedJoinOptions options;
    options.index = join_options.index;
    options.threshold = config.b1;
    options.workers = 8;
    options.threads = config.threads;
    DistributedJoin join;
    Status built = join.Build(&skew_case.data, &skew_case.dist, options);
    if (!built.ok()) {
      std::fprintf(stderr, "build failed (%s): %s\n",
                   skew_case.name.c_str(), built.ToString().c_str());
      return 1;
    }
    DistributedJoinStats stats;
    auto pairs = join.SelfJoin(&stats);
    if (!pairs.ok()) return 1;
    BalanceReport balance = Balance(stats);
    skew.AddRow({skew_case.name, Fmt(stats.heavy_keys),
                 Fmt(stats.replicated_slices),
                 Fmt(stats.duplication_factor, 2),
                 Fmt(stats.probe_fanout, 2),
                 Fmt(balance.max_entries) + "/" +
                     Fmt(balance.mean_entries, 0)});
  }
  skew.Print();

  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: distributed output diverged from the baseline\n");
    return 1;
  }
  Note("every worker count produced output identical to the "
       "one-shot join (W = 1)");
  reporter.Metric("results_identical", 1, /*stable=*/true, "bool");
  if (!reporter.WriteIfRequested(argc, argv)) return 1;
  return 0;
}

}  // namespace
}  // namespace skewsearch

int main(int argc, char** argv) { return skewsearch::Run(argc, argv); }
