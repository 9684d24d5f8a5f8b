// Copyright 2026 The skewsearch Authors.
// The differential oracle for the join engine. A JoinOracle holds one
// configuration: the build data, the family's options, and an R-S probe
// side with copies of build vectors, probes carrying items outside the
// universe, and more than kRouteChunk probes. Check(cells) runs each
// requested cell and expects the reference join's pairs
// (reference_join.h), similarity bits included. A cell is one value of
// each of five axes:
//
//   plan     W = 1, 2 or 7; heavy keys split by the planner, every key
//            heavy (heavy_threshold 1), every key of two or more ids
//            heavy (heavy_threshold 2, so a worker holds one-id lists
//            beside heavy slices), or none;
//   build    Build, or BuildFromFrozen over an SKF2 file of K = 1 or 3
//            shards, which fixes the plan: W = K, every key broadcast;
//   serving  in-process on 1 or 4 threads; remote workers over loopback
//            or TCP at probe_batch 1, 16 or 0 (the whole queue), their
//            sessions driven from 4 threads, or at probe_batch 16 from
//            1 thread, which serves every session at once (over TCP
//            for the clean and kill faults only); the one-shot
//            SelfSimilarityJoin/SimilarityJoin, in-process on 1 thread
//            or against TCP endpoints driven from 4;
//   fault    remote only: none; worker 1 drops its connection after its
//            first batch (ServeOptions::fail_after_batches); worker 1
//            dropped when the coordinator sends it an Assignment after
//            the attach (ShipDroppingConnection: a Build, an R-S join
//            and loopback); every worker's first ProbeBatch delivered
//            twice, the repeat's response checked byte for byte and
//            swallowed;
//   join     the self-join, the R-S join, or, over loopback, the
//            sequence self, R-S, self, R-S on one attachment, so each
//            join runs both before and after the first R-S join ships
//            the workers' one-id lists.
//
// A cell without a kill also does the work the reference pairing
// (reference_pairing.h) predicts for its plan and join: each owner's
// requests, candidates and verifications, the shipped keys, the route's
// kernel draws and the fan-out. Its first R-S join ships each remote
// worker's one-id lists, if it has any, and no other join ships any. A
// kill surfaces in the join that loses worker 1 or, when that worker's
// first batch was its last, in the next one (a single join runs twice):
// over the joins a Build recovers once onto a survivor, the joins after
// the recovery have nothing left to recover, and all return the
// reference pairs; a frozen build, with nothing to re-ship, fails
// cleanly. Whatever the fault, the workers apply, after their attach,
// one Assignment per recovery and one per deferred ship, and a worker's
// table holds the entries of its pairing lists until an R-S join has
// run on it and all its entries after.
//
// DistributedJoinOracleTest (join_oracle_test.cc) checks every cell of
// every configuration; a row of another suite checks the cells of its
// own claim. A new deployment costs one cell here.

#ifndef SKEWSEARCH_TESTS_JOIN_ORACLE_H_
#define SKEWSEARCH_TESTS_JOIN_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "core/similarity_join.h"
#include "distributed/distributed_join.h"
#include "hosted_worker.h"
#include "reference_join.h"
#include "reference_pairing.h"
#include "sim/measures.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace test {

struct JoinOracleConfig {
  const char* name;
  bool zipf;      ///< ZipfDataWithDuplicates, else TwoBlockDataWithDuplicates
  size_t n;       ///< vectors drawn before the n / 10 copies
  uint64_t seed;  ///< seeds the build data; seed + 1 the R-S probes
  DistributedJoinOptions family;  ///< the index options and threshold
};

inline JoinOracleConfig MakeJoinOracleConfig(const char* name, bool zipf,
                                             size_t n, uint64_t seed,
                                             double b1, uint64_t family_seed) {
  return {name, zipf, n, seed, AdversarialJoinOptions(b1, family_seed)};
}

/// \p n Zipf vectors from \p seed, and the family at \p b1 from
/// \p family_seed, or from \p seed too.
inline JoinOracleConfig ZipfJoinConfig(
    uint64_t seed, size_t n = 100, double b1 = 0.8,
    std::optional<uint64_t> family_seed = std::nullopt) {
  return MakeJoinOracleConfig("Zipf", true, n, seed, b1,
                              family_seed.value_or(seed));
}

/// ZipfAt08 is the transport rows' data; the other two are sized so a
/// row runs every cell in under a second.
inline const JoinOracleConfig kJoinOracleConfigs[] = {
    MakeJoinOracleConfig("ZipfAt08", true, 120, 91, 0.8, 91),
    MakeJoinOracleConfig("TwoBlockAt08", false, 80, 21, 0.8, 21),
    MakeJoinOracleConfig("ZipfAt06", true, 160, 41, 0.6, 5)};

/// The cells of JoinOracle::Check, one bit per value of each axis. A
/// mask runs every combination of its bits that exists: faults need a
/// remote serving, a kill a second worker, and a frozen build ignores
/// the plan bits.
enum JoinCell : uint32_t {
  kW1 = 1u << 0,
  kW2 = 1u << 1,
  kW7 = 1u << 2,
  kAutoHeavy = 1u << 3,    ///< heavy_threshold 0: the planner splits
  kForcedHeavy = 1u << 4,  ///< heavy_threshold 1: every key heavy
  kAllLight = 1u << 5,     ///< no key heavy
  kBuild = 1u << 6,
  kFrozen1 = 1u << 7,  ///< BuildFromFrozen, K = 1
  kFrozen3 = 1u << 8,  ///< BuildFromFrozen, K = 3
  kInProcess = 1u << 9,
  kThreaded = 1u << 10,  ///< in-process on 4 threads
  kLoopback1 = 1u << 11,
  kLoopback16 = 1u << 12,
  kLoopbackWhole = 1u << 13,
  kTcp1 = 1u << 14,
  kTcp16 = 1u << 15,
  kTcpWhole = 1u << 16,
  kOneShot = 1u << 17,
  kOneShotTcp = 1u << 18,  ///< JoinOptions::remote_workers, 4 threads
  kClean = 1u << 19,
  kKill = 1u << 20,
  kDuplicate = 1u << 21,
  kSelfJoin = 1u << 22,
  kRSJoin = 1u << 23,
  kSequence = 1u << 24,  ///< self, R-S, self, R-S on one attachment
  kShipKill = 1u << 25,  ///< worker 1 dropped at a deferred ship
  kPairHeavy = 1u << 26,  ///< heavy_threshold 2: one-id lists stay light
  kLoopbackOneThread = 1u << 27,
  kTcpOneThread = 1u << 28,

  kEveryW = kW1 | kW2 | kW7,
  kEveryHeavy = kAutoHeavy | kForcedHeavy | kPairHeavy | kAllLight,
  kEveryBuild = kBuild | kFrozen1 | kFrozen3,
  kLoopback = kLoopback1 | kLoopback16 | kLoopbackWhole | kLoopbackOneThread,
  kTcp = kTcp1 | kTcp16 | kTcpWhole | kTcpOneThread,
  kRemote = kLoopback | kTcp,
  kEveryServing = kInProcess | kThreaded | kRemote | kOneShot | kOneShotTcp,
  kEveryFault = kClean | kKill | kDuplicate | kShipKill,
  kEveryJoin = kSelfJoin | kRSJoin | kSequence,
  kEveryJoinCell = (1u << 29) - 1,
};

inline const char* JoinCellName(uint32_t bit) {
  switch (bit) {
    case kAutoHeavy: return "heavy keys split by the planner";
    case kForcedHeavy: return "every key heavy";
    case kPairHeavy: return "every key of two or more ids heavy";
    case kAllLight: return "no key heavy";
    case kInProcess: return "in-process on 1 thread";
    case kThreaded: return "in-process on 4 threads";
    case kLoopback1: return "loopback, probe_batch 1";
    case kLoopback16: return "loopback, probe_batch 16";
    case kLoopbackWhole: return "loopback, probe_batch 0";
    case kTcp1: return "TCP, probe_batch 1";
    case kTcp16: return "TCP, probe_batch 16";
    case kTcpWhole: return "TCP, probe_batch 0";
    case kLoopbackOneThread: return "loopback, probe_batch 16, 1 thread";
    case kTcpOneThread: return "TCP, probe_batch 16, 1 thread";
    case kOneShot: return "one-shot on 1 thread";
    case kOneShotTcp: return "one-shot against TCP endpoints, 4 threads";
    case kClean: return "no fault";
    case kKill: return "worker 1 killed after its first batch";
    case kDuplicate: return "first batches delivered twice";
    case kShipKill: return "worker 1 dropped at its first deferred ship";
    case kSelfJoin: return "self-join";
    case kRSJoin: return "R-S join";
    case kSequence: return "self, R-S, self, R-S";
    default: return "?";
  }
}

/// A coordinator-side connection that delivers its first ProbeBatch
/// twice and swallows the repeat's response once it compared it, byte
/// for byte, with the first: a worker answers from read-only state.
class RepeatingConnection : public FrameConnection {
 public:
  struct Record {
    bool repeated = false;
    bool differed = false;
  };
  RepeatingConnection(std::unique_ptr<FrameConnection> inner, Record* record)
      : inner_(std::move(inner)), record_(record) {}

  Status Send(const wire::Frame& frame) override {
    Status sent = inner_->Send(frame);
    if (sent.ok() && !record_->repeated &&
        frame.type == wire::FrameType::kProbeBatch) {
      record_->repeated = swallow_ = true;
      sent = inner_->Send(frame);
    }
    stats_ = inner_->stats();
    return sent;
  }
  Status Receive(wire::Frame* frame) override {
    Status received = inner_->Receive(frame);
    if (received.ok() && swallow_ &&
        frame->type == wire::FrameType::kResponseBatch) {
      swallow_ = false;
      wire::Frame repeat;
      received = inner_->Receive(&repeat);
      record_->differed = received.ok() && (repeat.type != frame->type ||
                                            repeat.payload != frame->payload);
    }
    stats_ = inner_->stats();
    return received;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<FrameConnection> inner_;
  Record* record_;
  bool swallow_ = false;
};

/// A coordinator-side connection that drops its worker, as a crash
/// would, when the coordinator sends it an Assignment at epoch 1 or
/// later: that frame never arrives, the send fails, and so does every
/// later use. The attach ships at epoch 0, so the frame it drops is the
/// first R-S join's deferred ship of the worker's one-id lists.
class ShipDroppingConnection : public FrameConnection {
 public:
  explicit ShipDroppingConnection(std::unique_ptr<FrameConnection> inner)
      : inner_(std::move(inner)) {}

  Status Send(const wire::Frame& frame) override {
    wire::Assignment assignment;
    uint32_t epoch = 0;
    if (frame.type == wire::FrameType::kAssignment &&
        wire::DecodeAssignment(frame, &assignment, &epoch).ok() &&
        epoch >= 1) {
      inner_->Close();
      return Status::IOError("worker dropped at an Assignment at epoch " +
                             std::to_string(epoch));
    }
    const Status sent = inner_->Send(frame);
    stats_ = inner_->stats();
    return sent;
  }
  Status Receive(wire::Frame* frame) override {
    const Status received = inner_->Receive(frame);
    stats_ = inner_->stats();
    return received;
  }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<FrameConnection> inner_;
};

/// \brief One configuration's data and reference joins, and the cells
/// that must reproduce them.
class JoinOracle {
 public:
  explicit JoinOracle(const JoinOracleConfig& config) : config_(config) {
    data_ = config.zipf ? ZipfDataWithDuplicates(config.seed, config.n, &dist_)
                        : TwoBlockDataWithDuplicates(config.seed, config.n,
                                                     &dist_);
    // Twenty probes: copies of build vectors 0 to 4, copies of the five
    // largest widened by one item outside the universe (the first id
    // past it, or 1,000,000), and ten fresh draws. Empty probes fill the
    // first chunk; the twenty again open the second, so both chunks pair.
    std::vector<VectorId> largest(data_.size());
    std::iota(largest.begin(), largest.end(), VectorId{0});
    std::ranges::stable_sort(largest, [this](VectorId a, VectorId b) {
      return data_.Get(a).size() > data_.Get(b).size();
    });
    Rng rng(config.seed + 1);
    std::vector<std::vector<ItemId>> block;
    for (VectorId i = 0; i < 10; ++i) {
      const std::span<const ItemId> x = data_.Get(i < 5 ? i : largest[i - 5]);
      block.emplace_back(x.begin(), x.end());
      if (i >= 5) {
        block.back().push_back(
            i % 2 == 0 ? static_cast<ItemId>(dist_.dimension()) : 1000000);
      }
    }
    for (int i = 0; i < 10; ++i) {
      const SparseVector x = dist_.Sample(&rng);
      block.emplace_back(x.span().begin(), x.span().end());
    }
    for (const auto& items : block) left_.Add(std::span<const ItemId>(items));
    while (left_.size() < distributed_internal::kRouteChunk) {
      left_.Add(std::span<const ItemId>());
    }
    for (const auto& items : block) left_.Add(std::span<const ItemId>(items));
    self_reference_ = Reference(nullptr);
    rs_reference_ = Reference(&left_);
    EXPECT_TRUE(std::ranges::any_of(rs_reference_, [](const JoinPair& p) {
      return p.left >= 5 && p.left < 10;
    })) << config_.name << ": no widened probe pairs";
    const size_t chunk = distributed_internal::kRouteChunk;
    EXPECT_TRUE(!rs_reference_.empty() && rs_reference_.front().left < chunk &&
                rs_reference_.back().left >= chunk)
        << config_.name << ": a chunk of probes pairs nothing";
  }
  ~JoinOracle() {
    for (const auto& [shards, frozen] : frozen_) {
      std::remove(frozen.first.c_str());
    }
  }
  JoinOracle(const JoinOracle&) = delete;
  JoinOracle& operator=(const JoinOracle&) = delete;

  const Dataset& data() const { return data_; }
  const ProductDistribution& dist() const { return dist_; }
  const Dataset& left() const { return left_; }  ///< the R-S probes
  const DistributedJoinOptions& family() const { return config_.family; }
  const std::vector<JoinPair>& reference(bool self_join) const {
    return self_join ? self_reference_ : rs_reference_;
  }

  /// Runs every cell of \p cells, a mask of JoinCell.
  void Check(uint32_t cells) {
    if (cells & kBuild) {
      EXPECT_TRUE((cells & kEveryW) && (cells & kEveryHeavy))
          << config_.name << ": a Build cell needs a W and a heavy bit";
    }
    size_t ran = 0;
    for (uint32_t build : Bits(cells & kEveryBuild)) {
      const int shards = build == kFrozen1 ? 1 : build == kFrozen3 ? 3 : 0;
      for (uint32_t w : shards > 0 ? std::vector<uint32_t>{0}
                                   : Bits(cells & kEveryW)) {
        const int workers =
            shards > 0 ? shards : w == kW1 ? 1 : w == kW2 ? 2 : 7;
        for (uint32_t heavy : shards > 0 ? std::vector<uint32_t>{0}
                                         : Bits(cells & kEveryHeavy)) {
          // A plan's cells share a coordinator per thread count and
          // probe_batch: the options it was built with.
          std::map<std::pair<int, size_t>, std::unique_ptr<DistributedJoin>>
              coordinators;
          for (uint32_t serving : Bits(cells & kEveryServing)) {
            for (uint32_t fault : Bits(cells & kEveryFault)) {
              for (uint32_t join : Bits(cells & kEveryJoin)) {
                // Faults need a remote serving and a kill a second
                // worker. The deferred-ship cells (a sequence, a ship
                // kill) run over loopback, and TCP from one thread takes
                // the clean and kill faults only: every TCP R-S cell
                // ships the one-id lists too, and each TCP cell leaves
                // its sockets in TIME_WAIT, which CI's repeated runs
                // pile up. A frozen build ships nothing after its attach
                // and a self-join no one-id list, so nothing drops
                // worker 1 there.
                if ((fault != kClean && !(serving & kRemote)) ||
                    (Kills(fault) && workers < 2) ||
                    ((join == kSequence || fault == kShipKill) &&
                     !(serving & kLoopback)) ||
                    (fault == kShipKill &&
                     (shards > 0 || join == kSelfJoin)) ||
                    (serving == kTcpOneThread && fault == kDuplicate)) {
                  continue;
                }
                const Cell cell{shards, workers, heavy, serving, fault, join};
                // A plan without one-id lists on worker 1 (every key
                // heavy) ships it nothing after the attach.
                if (fault == kShipKill && !Plan(cell).has_one_id_lists[1]) {
                  continue;
                }
                const DistributedJoinOptions options = Options(cell);
                Run(cell, &coordinators[{options.threads,
                                         options.probe_batch}]);
                ran++;
              }
            }
          }
        }
      }
    }
    EXPECT_GT(ran, 0u) << config_.name << ": the mask selects no cell";
  }

 private:
  struct Cell {
    int shards;  ///< K, or 0 for Build
    int workers;
    uint32_t heavy, serving, fault, join;
  };

  static bool Kills(uint32_t fault) {
    return fault == kKill || fault == kShipKill;
  }

  static std::vector<uint32_t> Bits(uint32_t mask) {
    std::vector<uint32_t> bits;
    for (uint32_t bit = 1; bit != 0 && bit <= mask; bit <<= 1) {
      if (mask & bit) bits.push_back(bit);
    }
    return bits;
  }

  std::string Where(const Cell& c) const {
    return std::string(config_.name) + " (seed " +
           std::to_string(config_.seed) + ", family seed " +
           std::to_string(config_.family.index.seed) +
           "): W = " + std::to_string(c.workers) +
           ", K = " + std::to_string(c.shards) + ", " +
           (c.shards > 0 ? "frozen" : JoinCellName(c.heavy)) + ", " +
           JoinCellName(c.serving) + ", " + JoinCellName(c.fault) + ", " +
           JoinCellName(c.join);
  }

  std::vector<JoinPair> Reference(const Dataset* left) {
    auto pairs = ReferenceJoin(left, data_, dist_, config_.family);
    if (!pairs.ok()) {
      ADD_FAILURE() << config_.name << ": " << pairs.status().ToString();
      return {};
    }
    EXPECT_FALSE(pairs->empty()) << config_.name << ": no reference pairs";
    const Dataset& probes = left != nullptr ? *left : data_;
    for (const JoinPair& pair : *pairs) {
      const double sim = Similarity(config_.family.index.verify_measure,
                                    probes.Get(pair.left),
                                    data_.Get(pair.right));
      EXPECT_GE(sim, config_.family.threshold) << config_.name;
      EXPECT_EQ(pair.similarity, sim) << config_.name;
    }
    return std::move(pairs).value();
  }

  /// The frozen file of \p shards shards over the build side, written
  /// and mapped at first use.
  const std::pair<std::string, std::shared_ptr<const FrozenShardFile>>&
  Frozen(int shards) {
    auto& frozen = frozen_[shards];
    if (frozen.first.empty()) {
      frozen.first = TempPath("join_oracle_k" + std::to_string(shards), this,
                              ".skf");
      ShardedIndex index;
      EXPECT_TRUE(index.Build(&data_, &dist_, {config_.family.index, shards})
                      .ok());
      EXPECT_TRUE(index.Freeze(frozen.first).ok());
      auto mapped = FrozenShardFile::Map(frozen.first);
      EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
      if (mapped.ok()) frozen.second = *mapped;
    }
    return frozen;
  }

  DistributedJoinOptions Options(const Cell& c) const {
    DistributedJoinOptions options = config_.family;
    options.workers = c.workers;
    options.heavy_threshold = c.heavy == kForcedHeavy ? 1
                              : c.heavy == kPairHeavy ? 2
                              : c.heavy == kAllLight  ? data_.size() * 1000
                                                      : 0;
    constexpr uint32_t kOneThread = kLoopbackOneThread | kTcpOneThread;
    options.threads =
        c.serving & (kThreaded | kRemote | kOneShotTcp) & ~kOneThread ? 4 : 1;
    if (c.serving & (kLoopback1 | kTcp1)) options.probe_batch = 1;
    if (c.serving & (kLoopback16 | kTcp16 | kOneThread)) {
      options.probe_batch = 16;
    }
    if (c.serving & (kLoopbackWhole | kTcpWhole)) options.probe_batch = 0;
    return options;
  }

  Status Build(DistributedJoin* join, const Cell& c) {
    return c.shards > 0 ? join->BuildFromFrozen(&data_, &dist_,
                                                Frozen(c.shards).first,
                                                Options(c))
                        : join->Build(&data_, &dist_, Options(c));
  }

  /// What every cell of \p c's plan must report, computed at first use
  /// from a coordinator built for it.
  struct PlanFacts {
    ReferencePairing self_join;
    ReferencePairing rs_join;
    double duplication_factor = 0.0;
    /// Per worker, the entries an attach ships: a frozen shard's all, a
    /// Build's lists that can pair in a self-join (the key's whole list
    /// holds two or more ids, or the key is heavy).
    std::vector<size_t> pairing_entries;
    /// Per worker, whether it also holds one-id lists, which the first
    /// R-S join after an attach ships.
    std::vector<bool> has_one_id_lists;
  };
  const PlanFacts& Plan(const Cell& c) {
    auto [it, fresh] =
        plans_.try_emplace(std::make_tuple(c.shards, c.workers, c.heavy));
    DistributedJoin join;
    if (fresh && Build(&join, c).ok()) {
      PlanFacts& facts = it->second;
      facts.self_join = PairByReference(join, data_);
      facts.rs_join = PairByReference(join, data_, &left_);
      facts.duplication_factor = join.DuplicationFactor();
      for (int w = 0; w < join.num_workers(); ++w) {
        const FilterTable& table = join.worker(w).table();
        size_t pairing = 0;
        bool one_id = false;
        for (size_t k = 0; k < table.num_keys(); ++k) {
          const size_t size = table.postings_at(k).size();
          if (join.frozen() || size >= 2 ||
              join.plan().heavy.contains(table.key_at(k))) {
            pairing += size;
          } else {
            one_id = true;
          }
        }
        facts.pairing_entries.push_back(pairing);
        facts.has_one_id_lists.push_back(one_id);
      }
    }
    return it->second;
  }

  /// The counters every join of a cell without a kill reports.
  void ExpectStats(const Cell& c, bool self,
                   const DistributedJoinStats& stats, size_t pairs) {
    EXPECT_EQ(stats.pairs, pairs);
    EXPECT_EQ(stats.workers.size(), static_cast<size_t>(c.workers));
    if (c.shards > 0 || c.heavy == kAllLight) {
      EXPECT_EQ(stats.heavy_keys, 0u);
    }
    if (c.shards > 0) {  // id shards are disjoint: no pair surfaces twice
      EXPECT_EQ(stats.cross_worker_duplicates, 0u);
      EXPECT_LE(stats.duplication_factor, 1.0);
    } else if (c.workers > 1) {  // key slices share vectors
      EXPECT_GE(stats.duplication_factor, 1.0);
    }
    if ((c.heavy & (kForcedHeavy | kPairHeavy)) && c.workers > 1) {
      EXPECT_GT(stats.heavy_keys, 0u);
      EXPECT_GT(stats.replicated_slices, stats.heavy_keys);
    }
    const PlanFacts& plan = Plan(c);
    EXPECT_EQ(stats.duplication_factor, plan.duplication_factor);
    ExpectPairing(self ? plan.self_join : plan.rs_join, stats);
    if (!(c.serving & (kRemote | kOneShotTcp))) return;
    EXPECT_EQ(stats.worker_recoveries, 0u);
    EXPECT_EQ(stats.replayed_batches, 0u);
    EXPECT_GT(stats.wire_bytes_sent, 0u);
    EXPECT_GT(stats.wire_bytes_received, 0u);
    // At most one exposed round trip per worker per chunk: the drain.
    EXPECT_GE(stats.probe_round_trips, 1u);
    EXPECT_LE(stats.probe_round_trips, Chunks(self) * c.workers);
    size_t requests = 0;
    size_t reached = 0;  // workers some probe reaches
    for (const WorkerLoad& load : stats.workers) {
      requests += load.probes;
      reached += load.probes > 0;
    }
    if (Options(c).probe_batch == 1) {
      EXPECT_EQ(stats.probe_batches_sent, requests);
    } else if (Options(c).probe_batch == 0) {
      // One frame per chunk to each worker reached: the R-S chunks hold
      // the same probes.
      EXPECT_EQ(stats.probe_batches_sent, Chunks(self) * reached);
      EXPECT_EQ(stats.probe_round_trips, stats.probe_batches_sent);
    }
  }

  /// The deferred ships of the first R-S join after an attach: one per
  /// worker with one-id lists.
  size_t FirstShips(const Cell& c) {
    return static_cast<size_t>(
        std::ranges::count(Plan(c).has_one_id_lists, true));
  }

  size_t Chunks(bool self) const {
    const size_t chunk = distributed_internal::kRouteChunk;
    return self ? 1 : (left_.size() + chunk - 1) / chunk;
  }

  /// Runs \p c on \p coordinator, built for its plan and serving at
  /// first use (a one-shot cell builds its own).
  void Run(const Cell& c, std::unique_ptr<DistributedJoin>* coordinator) {
    SCOPED_TRACE(Where(c));
    const bool remote = (c.serving & kRemote) != 0;
    const bool kill = Kills(c.fault);
    // The cell's joins in turn, true for a self-join. A kill may surface
    // only in the join after the one that loses the worker, so a single
    // join runs twice.
    std::vector<bool> joins = {c.join == kSelfJoin};
    if (c.join == kSequence) joins = {true, false, true, false};
    if (kill && joins.size() == 1) joins.push_back(joins[0]);
    ServeOptions serve;
    if (c.shards > 0) {
      serve.frozen_file = Frozen(c.shards).second.get();
      serve.frozen_data = &data_;
    }
    std::deque<HostedWorker> hosts;  // outlives the coordinators below
    for (int w = 0; (remote || c.serving == kOneShotTcp) && w < c.workers;
         ++w) {
      ServeOptions options = serve;
      if (c.fault == kKill && w == 1) options.fail_after_batches = 1;
      hosts.emplace_back(options);
    }
    DistributedJoinStats stats;
    if (c.serving & (kOneShot | kOneShotTcp)) {
      const bool self = joins[0];
      JoinOptions one_shot;
      static_cast<DistributedJoinOptions&>(one_shot) = Options(c);
      one_shot.workers = c.shards > 0 || c.workers == 1 ? 0 : c.workers;
      if (c.shards > 0) one_shot.frozen_shards = Frozen(c.shards).first;
      for (HostedWorker& host : hosts) {
        one_shot.remote_workers.push_back(host.Listen());
      }
      auto got = self ? SelfSimilarityJoin(data_, dist_, one_shot, &stats)
                      : SimilarityJoin(left_, data_, dist_, one_shot, &stats);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSamePairs(reference(self), *got);
      ExpectStats(c, self, stats, got->size());
      EXPECT_EQ(stats.deferred_ships,
                c.serving == kOneShotTcp && !self ? FirstShips(c) : 0u);
      for (HostedWorker& host : hosts) {
        host.Join();
        EXPECT_TRUE(host.status().ok()) << host.status().ToString();
      }
      return;
    }
    if (*coordinator == nullptr) {
      *coordinator = std::make_unique<DistributedJoin>();
      const Status built = Build(coordinator->get(), c);
      ASSERT_TRUE(built.ok()) << built.ToString();
    }
    DistributedJoin& join = **coordinator;
    EXPECT_EQ(join.frozen(), c.shards > 0);
    EXPECT_EQ(join.plan().broadcast, c.shards > 0);
    std::vector<RepeatingConnection::Record> repeats(hosts.size());
    // Ends the sessions before the hosts join, however Run returns.
    struct Detach {
      DistributedJoin& join;
      ~Detach() { join.DetachRemote(); }
    } detach{join};
    if (remote) {
      std::vector<std::unique_ptr<FrameConnection>> connections;
      for (size_t w = 0; w < hosts.size(); ++w) {
        connections.push_back(hosts[w].Connect(
            c.serving & kTcp ? Transport::kTcp : Transport::kLoopback));
        if (c.fault == kDuplicate) {
          connections.back() = std::make_unique<RepeatingConnection>(
              std::move(connections.back()), &repeats[w]);
        }
        if (c.fault == kShipKill && w == 1) {
          connections.back() = std::make_unique<ShipDroppingConnection>(
              std::move(connections.back()));
        }
      }
      ASSERT_TRUE(join.AttachRemote(std::move(connections)).ok());
    }
    auto run = [&](bool self, DistributedJoinStats* s) {
      return self ? join.SelfJoin(s) : join.Join(left_, s);
    };
    size_t recoveries = 0;
    size_t deferred_ships = 0;
    bool rs_ran = false;  // an R-S join has shipped the one-id lists
    std::vector<size_t> probes(static_cast<size_t>(c.workers), 0);
    bool failed = false;
    for (size_t round = 0; round < joins.size() && !failed; ++round) {
      SCOPED_TRACE("join " + std::to_string(round));
      const bool self = joins[round];
      auto got = run(self, &stats);
      if (kill && c.shards > 0 && !got.ok()) {
        failed = true;
        EXPECT_TRUE(got.status().IsIOError()) << got.status().ToString();
        EXPECT_NE(got.status().ToString().find("cannot be re-shipped"),
                  std::string::npos)
            << got.status().ToString();
        continue;
      }
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectSamePairs(reference(self), *got);
      if (kill) {
        if (recoveries > 0) {  // the remap persists: nothing to recover
          EXPECT_EQ(stats.worker_recoveries, 0u);
          EXPECT_EQ(stats.replayed_batches, 0u);
        }
        EXPECT_GE(stats.replayed_batches, stats.worker_recoveries);
        EXPECT_GE(stats.probe_batches_sent, stats.replayed_batches);
        EXPECT_LE(stats.probe_round_trips,
                  Chunks(self) * c.workers + stats.worker_recoveries);
      } else {
        ExpectStats(c, self, stats, got->size());
        // The attach ships the pairing lists, and the first R-S join
        // after it each worker's one-id lists.
        EXPECT_EQ(stats.deferred_ships,
                  remote && !self && !rs_ran ? FirstShips(c) : 0u);
        for (size_t w = 0; w < probes.size(); ++w) {
          probes[w] += stats.workers[w].probes;
        }
      }
      recoveries += stats.worker_recoveries;
      deferred_ships += stats.deferred_ships;
      rs_ran = rs_ran || !self;
    }
    if (kill) {
      EXPECT_EQ(failed, c.shards > 0);
      EXPECT_EQ(recoveries, c.shards > 0 ? 0u : 1u);
    }
    if (!remote) return;
    EXPECT_GE(join.RemoteWireTotals().bytes_sent, stats.wire_bytes_sent);
    join.DetachRemote();
    size_t reassignments = 0;
    size_t repeated = 0;
    size_t survivor_entries = 0;
    for (size_t w = 0; w < hosts.size(); ++w) {
      hosts[w].Join();
      const Status& status = hosts[w].status();
      // A killed worker counts the ship it applied before it died, if
      // any; one dropped at a ship never applied it.
      reassignments += hosts[w].stats().reassignments;
      if (kill && w == 1) {
        EXPECT_TRUE(c.fault == kKill ? status.IsAborted() : !status.ok())
            << status.ToString();
        continue;
      }
      EXPECT_TRUE(status.ok()) << "worker " << w << ": " << status.ToString();
      repeated += repeats[w].repeated;
      EXPECT_FALSE(repeats[w].differed) << "worker " << w;
      survivor_entries += hosts[w].stats().posting_entries;
      if (kill || w >= stats.workers.size()) continue;
      // The session's table is what it was sent: its pairing lists, and
      // its one-id lists too once an R-S join ran. Unless a batch came
      // twice, it answered what was routed to it.
      EXPECT_EQ(hosts[w].stats().posting_entries,
                rs_ran ? join.worker(static_cast<int>(w)).num_entries()
                       : Plan(c).pairing_entries[w])
          << "worker " << w;
      if (c.fault == kClean) {
        EXPECT_EQ(hosts[w].stats().probes, probes[w]) << "worker " << w;
      }
    }
    EXPECT_EQ(reassignments, recoveries + deferred_ships);
    EXPECT_EQ(repeated > 0, c.fault == kDuplicate);
    if (kill) {
      // The survivors hold every worker's pairing lists, and once an R-S
      // join ran every worker's one-id lists too, the lost worker's
      // included: each list on one survivor.
      if (c.shards > 0) return;
      size_t entries = 0;
      for (int w = 0; w < c.workers; ++w) {
        entries += rs_ran ? join.worker(w).num_entries()
                          : Plan(c).pairing_entries[static_cast<size_t>(w)];
      }
      EXPECT_EQ(survivor_entries, entries);
      return;
    }
    auto local = run(joins.back(), nullptr);  // detached, in-process
    ASSERT_TRUE(local.ok()) << local.status().ToString();
    ExpectSamePairs(reference(joins.back()), *local);
  }

  JoinOracleConfig config_;
  ProductDistribution dist_;
  Dataset data_;
  Dataset left_;
  std::vector<JoinPair> self_reference_;
  std::vector<JoinPair> rs_reference_;
  std::map<int, std::pair<std::string, std::shared_ptr<const FrozenShardFile>>>
      frozen_;
  std::map<std::tuple<int, int, uint32_t>, PlanFacts> plans_;
};

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_JOIN_ORACLE_H_
