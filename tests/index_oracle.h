// Copyright 2026 The skewsearch Authors.
// The differential oracle for every index flavor. An IndexOracle holds
// one configuration's data, mutation script and query set; Check(K,
// cells) puts each requested cell, one flavor in one persistence, to the
// query set, and expects what the ReferenceIndex (reference_index.h)
// answers over the same live set, similarity bit for bit. Each state's
// reference is itself checked against a brute-force scan. In every cell
// the index's filter family computes the reference family's keys,
// BatchQuery on 1 and 3 threads equals Query, work counters included,
// and the cells one oracle checks in one state count the same work per
// query: QueryAll at any K, Query at one K.
//
// IndexOracleTest (index_oracle_test.cc) checks every cell; a row of
// another suite checks the cells of its own claim. A new representation
// costs one cell here.
//
// The mutation script inserts exact copies of base vectors that stay
// live, so a key holds a passing base id and a passing delta id in one
// shard: a scan that visits a shard's delta before its base returns the
// copy.

#ifndef SKEWSEARCH_TESTS_INDEX_ORACLE_H_
#define SKEWSEARCH_TESTS_INDEX_ORACLE_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/dynamic_index.h"
#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "durability/recovery.h"
#include "reference_index.h"
#include "sim/brute_force.h"
#include "test_paths.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace skewsearch {
namespace test {

struct OracleConfig {
  const char* name;
  bool zipf;  ///< Zipf data, else TwoBlock
  /// The family's options; its seed + 1 seeds the data, script and
  /// queries.
  SkewedIndexOptions index;
};

inline OracleConfig MakeOracleConfig(const char* name, bool zipf,
                                     IndexMode mode,
                                     Measure measure = Measure::kBraunBlanquet,
                                     double verify_threshold = -1.0) {
  OracleConfig config{name, zipf, {}};
  config.index.mode = mode;
  config.index.alpha = 0.7;
  config.index.b1 = 0.6;
  config.index.verify_measure = measure;
  config.index.verify_threshold = verify_threshold;
  config.index.seed = 2929;
  // ceil(ln n) repetitions: 6 as built, 7 once rebuilt for 3x the size.
  config.index.repetition_boost = 1.0;
  return config;
}

inline const OracleConfig kOracleConfigs[] = {
    MakeOracleConfig("TwoBlockCorrelated", false, IndexMode::kCorrelated),
    MakeOracleConfig("TwoBlockAdversarial", false, IndexMode::kAdversarial),
    MakeOracleConfig("ZipfCorrelated", true, IndexMode::kCorrelated),
    // Jaccard with an explicit verify threshold.
    MakeOracleConfig("ZipfAdversarialJaccard", true, IndexMode::kAdversarial,
                     Measure::kJaccard, 0.5)};

/// The cells of IndexOracle::Check, one bit each.
enum OracleCell : unsigned {
  kSerialBuild = 1u << 0,      ///< static, built on the calling thread
  kThreadedBuild = 1u << 1,    ///< static, built on 4 threads
  kMapped = 1u << 2,           ///< static, MapFrozen
  kVerifiedMap = 1u << 3,      ///< static, MapFrozen with verify_payload
  kHeapRead = 1u << 4,         ///< static, force_heap + verify_payload read
  kOnlineFresh = 1u << 5,      ///< online, as built
  kOnlineMutated = 1u << 6,    ///< online, after the mutation script
  kWalReopen = 1u << 7,        ///< mutated, reopened from a WAL
  kOnlineCompacted = 1u << 8,  ///< mutated, then every shard compacted
  kOnlineRebuilt = 1u << 9,    ///< mutated, then RebuildForSize(3x)
  kSaveLoad = 1u << 10,        ///< each online cell also after Save+Load
  kEveryCell = (1u << 11) - 1,
};

/// Every shard's arrays and every build counter but the clock.
inline void ExpectSameBuild(const ShardedIndex& want, const ShardedIndex& got,
                            const std::string& ctx) {
  ASSERT_EQ(want.num_shards(), got.num_shards()) << ctx;
  for (int s = 0; s < want.num_shards(); ++s) {
    const FilterTable& x = want.shard_table(s);
    const FilterTable& y = got.shard_table(s);
    EXPECT_TRUE(std::ranges::equal(x.keys_span(), y.keys_span()) &&
                std::ranges::equal(x.offsets_span(), y.offsets_span()) &&
                std::ranges::equal(x.ids_span(), y.ids_span()))
        << ctx << ", shard " << s;
  }
  auto counters = [](const IndexBuildStats& b) {
    return std::tie(b.total_filters, b.distinct_keys,
                    b.avg_filters_per_element, b.cap_hits, b.nodes_expanded,
                    b.repetitions, b.delta_used);
  };
  EXPECT_TRUE(counters(want.build_stats()) == counters(got.build_stats()))
      << ctx << ", build counters";
}

/// \brief One configuration's data, script and queries, and the cells
/// that must answer them as the reference does.
class IndexOracle {
 public:
  static constexpr VectorId kBaseSize = 240;
  static constexpr VectorId kInserts = 30;

  explicit IndexOracle(const OracleConfig& config)
      : config_(config), path_(TempPath("index_oracle", this, ".idx")) {
    dist_ = config_.zipf
                ? ZipfProbabilities(4000, 0.8, 0.4).value()
                : TwoBlockProbabilities(40, 0.2, 3000, 0.005).value();
    Rng rng(config_.index.seed + 1);
    data_ = GenerateDataset(dist_, kBaseSize, &rng);
    for (VectorId id = 0; id < kBaseSize; ++id) {
      base_[id].assign(data_.Get(id).begin(), data_.Get(id).end());
    }
    // 15 random inserts alternate with copies of base vectors 200-214,
    // which stay live. Base ids 0, 3, ..., 147 go, and so does every
    // fourth inserted id (all of them random inserts).
    for (VectorId i = 0; i < 50; ++i) {
      if (i < kInserts) {
        std::vector<ItemId> items;
        if (i % 2 == 1) {
          items = base_[200 + i / 2];
        } else {
          SparseVector v = dist_.Sample(&rng);
          while (v.span().empty()) v = dist_.Sample(&rng);
          items.assign(v.span().begin(), v.span().end());
        }
        script_.push_back({kBaseSize + i, std::move(items)});
      }
      script_.push_back({3 * i, {}});
      if (i < kInserts && i % 4 == 0) script_.push_back({kBaseSize + i, {}});
    }
    mutated_ = base_;
    for (const Op& op : script_) {
      if (op.items.empty()) {
        mutated_.erase(op.id);
      } else {
        mutated_[op.id] = op.items;
      }
    }
    MakeQueries(&rng);
  }
  ~IndexOracle() { std::remove(path_.c_str()); }
  IndexOracle(const IndexOracle&) = delete;
  IndexOracle& operator=(const IndexOracle&) = delete;

  /// Checks \p cells, a mask of OracleCell, at \p num_shards shards.
  void Check(int num_shards, unsigned cells) {
    shards_ = num_shards;
    if (cells & (kSerialBuild | kThreadedBuild | kMapped | kVerifiedMap |
                 kHeapRead)) {
      CheckStatic(cells);
    }
    if (cells & (kOnlineFresh | kOnlineMutated | kWalReopen |
                 kOnlineCompacted | kOnlineRebuilt)) {
      CheckOnline(cells);
    }
  }

 private:
  /// One script step: remove `id` when `items` is empty, else insert
  /// `items`, which must get `id`.
  struct Op {
    VectorId id;
    std::vector<ItemId> items;
  };

  /// A live set and the reference's answers over it, for every query.
  struct Answers {
    const LiveSet* live;
    double threshold;  ///< the family's verify threshold
    std::vector<std::vector<uint64_t>> keys;  ///< F(q), every repetition
    std::vector<std::optional<Match>> first;
    std::vector<std::vector<Match>> all;    ///< QueryAll(q, 0)
    std::vector<std::vector<Match>> above;  ///< QueryAll(q, threshold)
  };

  static bool Contains(const std::vector<Match>& matches,
                       const Match& match) {
    return std::find(matches.begin(), matches.end(), match) !=
           matches.end();
  }

  /// 60 correlated queries, 40 base vectors, 20 base vectors with two
  /// items outside the universe appended, and the 30 inserted vectors.
  void MakeQueries(Rng* rng) {
    auto add = [&](std::span<const ItemId> q, std::string name) {
      queries_.Add(q);
      query_names_.push_back(std::move(name));
    };
    CorrelatedQuerySampler sampler(&dist_, 0.75);
    for (int t = 0; t < 60; ++t) {
      const VectorId near = static_cast<VectorId>(rng->NextBounded(kBaseSize));
      add(sampler.SampleCorrelated(data_.Get(near), rng).span(),
          "correlated query " + std::to_string(t) + " near base vector " +
              std::to_string(near));
    }
    for (VectorId id = 0; id < kBaseSize; id += 6) {
      add(data_.Get(id), "base vector " + std::to_string(id));
    }
    const ItemId d = static_cast<ItemId>(dist_.dimension());
    for (VectorId id = 1; id < kBaseSize; id += 12) {
      std::vector<ItemId> q = base_[id];
      q.push_back(d);
      q.push_back(d + 7);
      add(q, "base vector " + std::to_string(id) + " plus items d, d + 7");
    }
    for (const Op& op : script_) {
      if (!op.items.empty()) {
        add(op.items, "inserted vector " + std::to_string(op.id));
      }
    }
  }

  /// Names the configuration and its seed.
  std::string Name() const {
    return std::string(config_.name) + " (seed " +
           std::to_string(config_.index.seed) + ")";
  }

  /// Names the shard count and the cell too.
  std::string Cell(const std::string& cell) const {
    return Name() + ", K=" + std::to_string(shards_) + " " + cell;
  }

  /// Names the query too.
  std::string Where(const std::string& cell, size_t query) const {
    return Cell(cell) + ", " + query_names_[query];
  }

  /// The reference's answers over \p live, from a family created for
  /// \p n vectors, each match checked against a brute-force scan of
  /// \p live.
  Answers Answer(size_t n, const LiveSet& live,
                 const std::string& state) const {
    const FilterFamily family =
        FilterFamily::Create(&dist_, config_.index, n).value();
    const ReferenceIndex reference(&family, live);
    Dataset live_data;
    std::vector<VectorId> ids;
    for (const auto& [id, items] : live) {
      live_data.Add(items);
      ids.push_back(id);
    }
    const BruteForceSearcher brute(&live_data, reference.measure());
    Answers answers{&live, reference.verify_threshold(), {}, {}, {}, {}};
    size_t hits = 0;
    std::vector<size_t> offsets;
    for (VectorId i = 0; i < queries_.size(); ++i) {
      const std::span<const ItemId> q = queries_.Get(i);
      const std::string ctx =
          Name() + ", " + state + " reference, " + query_names_[i];
      family.ComputeAllFilters(q, &answers.keys.emplace_back(), &offsets);
      answers.first.push_back(reference.Query(q));
      answers.all.push_back(reference.QueryAll(q, 0.0));
      answers.above.push_back(reference.QueryAll(q, answers.threshold));
      const std::pair<double, const std::vector<Match>*> lists[] = {
          {0.0, &answers.all.back()},
          {answers.threshold, &answers.above.back()}};
      for (const auto& [threshold, got] : lists) {
        std::vector<Match> truth = brute.AboveThreshold(q, threshold);
        for (Match& m : truth) m.id = ids[m.id];
        EXPECT_TRUE(std::includes(truth.begin(), truth.end(), got->begin(),
                                  got->end(), ByRank))
            << ctx << ": a match the brute-force scan lacks, at threshold "
            << threshold;
      }
      // The first match is a match of QueryAll at the verify threshold,
      // and there is one whenever that list is not empty.
      const std::optional<Match>& first = answers.first.back();
      EXPECT_EQ(first.has_value(), !answers.above.back().empty()) << ctx;
      if (first) {
        EXPECT_TRUE(Contains(answers.above.back(), *first)) << ctx;
        ++hits;
      }
    }
    EXPECT_GT(hits, queries_.size() / 2) << Name() << ", " << state;
    return answers;
  }

  /// The answers of each state, computed on first use.
  const Answers& Fresh() {
    if (!fresh_) fresh_ = Answer(kBaseSize, base_, "fresh");
    return *fresh_;
  }
  const Answers& Mutated() {
    if (!mutated_answers_) {
      mutated_answers_ = Answer(kBaseSize, mutated_, "mutated");
    }
    return *mutated_answers_;
  }
  const Answers& Rebuilt() {
    if (!rebuilt_) rebuilt_ = Answer(RebuiltSize(), mutated_, "rebuilt");
    return *rebuilt_;
  }
  size_t RebuiltSize() const { return 3 * mutated_.size(); }

  /// The first cell of a counter class sets its work; every later cell
  /// of the class repeats it, query by query.
  void ExpectClassWork(const std::string& key, const std::string& cell,
                       std::vector<QueryStats> work) {
    const auto [it, first] = class_work_.try_emplace(key, Cell(cell), work);
    if (first) return;
    for (size_t i = 0; i < work.size(); ++i) {
      ExpectSameCounters(it->second.second[i], work[i],
                         Where(cell, i) + ": " + key + " differs from " +
                             it->second.first);
    }
  }

  /// Checks one cell in \p state against \p want: the family's keys,
  /// Query and QueryAll, BatchQuery against Query, and the work of the
  /// state's other cells. A cell whose first match may legitimately move
  /// passes the reason as \p first_match_may_move; its Query then only
  /// has to return a match of QueryAll at the verify threshold whenever
  /// there is one.
  template <typename Index>
  void CheckCell(const std::string& cell, const std::string& state,
                 const Answers& want, const Index& index,
                 const char* first_match_may_move = nullptr) {
    std::vector<std::optional<Match>> firsts;
    std::vector<QueryStats> first_work, all_work, above_work;
    std::vector<uint64_t> keys;
    std::vector<size_t> offsets;
    for (VectorId i = 0; i < queries_.size(); ++i) {
      const std::span<const ItemId> q = queries_.Get(i);
      const std::string ctx = Where(cell, i);
      index.family().ComputeAllFilters(q, &keys, &offsets);
      EXPECT_EQ(want.keys[i], keys) << ctx << ", filter keys";
      QueryStats stats;
      firsts.push_back(index.Query(q, &stats));
      first_work.push_back(stats);
      if (first_match_may_move == nullptr) {
        ExpectSameMatches(want.first[i], firsts.back(), ctx + ", Query");
      } else {
        EXPECT_EQ(firsts.back().has_value(), !want.above[i].empty())
            << ctx << ", Query (" << first_match_may_move << ")";
        if (firsts.back()) {
          EXPECT_TRUE(Contains(want.above[i], *firsts.back()))
              << ctx << ", Query (" << first_match_may_move << ")";
        }
      }
      ExpectSameMatches(want.all[i], index.QueryAll(q, 0.0, &stats),
                        ctx + ", QueryAll(q, 0)");
      all_work.push_back(stats);
      ExpectSameMatches(want.above[i],
                        index.QueryAll(q, want.threshold, &stats),
                        ctx + ", QueryAll(q, t)");
      above_work.push_back(stats);
    }
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &pool_}) {
      std::vector<QueryStats> stats;
      const std::vector<std::optional<Match>> batch =
          index.BatchQuery(queries_, pool, &stats);
      ASSERT_EQ(batch.size(), queries_.size()) << Cell(cell);
      ASSERT_EQ(stats.size(), queries_.size()) << Cell(cell);
      for (VectorId i = 0; i < queries_.size(); ++i) {
        const std::string ctx =
            Where(cell, i) + ", BatchQuery on " +
            std::to_string(pool == nullptr ? 1 : pool->num_threads()) +
            " threads";
        ExpectSameMatches(firsts[i], batch[i], ctx);
        ExpectSameCounters(first_work[i], stats[i], ctx);
      }
    }
    ExpectClassWork("Query work in state " + state + " at K=" +
                        std::to_string(shards_),
                    cell, std::move(first_work));
    ExpectClassWork("QueryAll(q, 0) work in state " + state, cell,
                    std::move(all_work));
    ExpectClassWork("QueryAll(q, t) work in state " + state, cell,
                    std::move(above_work));
  }

  /// The static cells: the serial build, whose arrays and counters every
  /// other static cell holds, then the cells of \p cells.
  void CheckStatic(unsigned cells) {
    ShardedIndexOptions sharded{config_.index, shards_};
    ShardedIndex serial;
    ASSERT_TRUE(serial.Build(&data_, &dist_, sharded).ok())
        << Cell("static, serial build");
    if (cells & kSerialBuild) {
      CheckCell("static, serial build", "fresh", Fresh(), serial);
    }
    if (cells & kThreadedBuild) {
      sharded.index.build_threads = 4;
      ShardedIndex threaded;
      ASSERT_TRUE(threaded.Build(&data_, &dist_, sharded).ok());
      ExpectSameBuild(serial, threaded, Cell("static, 4 build threads"));
      CheckCell("static, 4 build threads", "fresh", Fresh(), threaded);
    }
    const struct {
      OracleCell bit;
      const char* cell;
      FrozenMapOptions options;
    } maps[] = {
        {kMapped, "static, MapFrozen", {}},
        {kVerifiedMap, "static, MapFrozen with verify_payload", {false, true}},
        {kHeapRead, "static, force_heap + verify_payload read", {true, true}}};
    if (cells & (kMapped | kVerifiedMap | kHeapRead)) {
      ASSERT_TRUE(serial.Freeze(path_).ok()) << Cell("static, Freeze");
    }
    for (const auto& [bit, cell, map_options] : maps) {
      if (!(cells & bit)) continue;
      ShardedIndex frozen;
      ASSERT_TRUE(frozen.MapFrozen(path_, &data_, &dist_, map_options).ok())
          << Cell(cell);
      ASSERT_NE(frozen.frozen_file(), nullptr) << Cell(cell);
      EXPECT_EQ(frozen.frozen_file()->mapped(), !map_options.force_heap)
          << Cell(cell);
      if (!map_options.force_heap) {
        // A mapped view holds no posting heap of its own.
        for (int s = 0; s < shards_; ++s) {
          EXPECT_EQ(frozen.shard_table(s).MemoryBytes(), 0u) << Cell(cell);
        }
        EXPECT_LT(frozen.MemoryBytes(), serial.MemoryBytes() / 4 + 1024)
            << Cell(cell);
      }
      ExpectSameBuild(serial, frozen, Cell(cell));
      CheckCell(cell, "fresh", Fresh(), frozen);
    }
  }

  /// An online cell: every shard rule holds and size() and IsLive agree
  /// with the live set, then CheckCell.
  void CheckOnlineCell(const std::string& cell, const std::string& state,
                       const Answers& want, const DynamicIndex& index,
                       const char* first_match_may_move = nullptr) {
    const std::string where = Cell(cell);
    const Status checked = index.CheckInvariants();
    EXPECT_TRUE(checked.ok()) << where << ": " << checked.ToString();
    EXPECT_EQ(index.num_shards(), shards_) << where;
    EXPECT_EQ(index.size(), want.live->size()) << where;
    for (VectorId id = 0; id < kBaseSize + kInserts + 2; ++id) {
      EXPECT_EQ(index.IsLive(id), want.live->contains(id))
          << where << ", id " << id;
    }
    CheckCell(cell, state, want, index, first_match_may_move);
  }

  /// \p index after Save + Load.
  std::unique_ptr<DynamicIndex> SaveAndLoad(const DynamicIndex& index) {
    auto loaded = std::make_unique<DynamicIndex>();
    EXPECT_TRUE(index.Save(path_).ok());
    EXPECT_TRUE(loaded->Load(path_, &data_, &dist_).ok());
    EXPECT_EQ(loaded->num_tombstones(), index.num_tombstones());
    return loaded;
  }

  /// Checks \p cell live and, with kSaveLoad in \p cells, after Save +
  /// Load.
  void CheckLiveAndLoaded(unsigned cells, const std::string& cell,
                          const std::string& state, const Answers& want,
                          const DynamicIndex& index) {
    CheckOnlineCell(cell, state, want, index);
    if (cells & kSaveLoad) {
      CheckOnlineCell(cell + ", Save+Load", state, want, *SaveAndLoad(index));
    }
  }

  /// Runs script ops [begin, end) on \p index.
  void RunScript(DynamicIndex* index, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const Op& op = script_[i];
      if (op.items.empty()) {
        ASSERT_TRUE(index->Remove(op.id).ok()) << "op " << i;
      } else {
        const Result<VectorId> id = index->Insert(op.items);
        ASSERT_TRUE(id.ok()) << "op " << i << ": " << id.status().ToString();
        ASSERT_EQ(*id, op.id) << "op " << i;
      }
    }
  }

  /// The mutated state recovered from a WAL: the whole script replayed,
  /// or a snapshot of its first half and the rest replayed.
  void CheckWal(const DynamicIndexOptions& options, bool checkpoint) {
    const std::string cell = checkpoint
                                 ? "online mutated, WAL reopen after a "
                                   "mid-script checkpoint"
                                 : "online mutated, WAL reopen";
    ScopedTempDir dir("index_oracle_wal");
    DurableOptions durable;
    durable.dir = dir.path();
    durable.sync_policy = SyncPolicy::kNone;
    durable.checkpoint_bytes = 0;
    const size_t in_snapshot = checkpoint ? script_.size() / 2 : 0;
    {
      DurableIndex writer;
      ASSERT_TRUE(writer.Open(&data_, &dist_, options, durable).ok())
          << Cell(cell);
      ASSERT_NO_FATAL_FAILURE(RunScript(&writer.index(), 0, in_snapshot));
      if (checkpoint) {
        ASSERT_TRUE(writer.Checkpoint().ok()) << Cell(cell);
      }
      ASSERT_NO_FATAL_FAILURE(
          RunScript(&writer.index(), in_snapshot, script_.size()));
      ASSERT_TRUE(writer.Close().ok()) << Cell(cell);
    }
    DurableIndex reopened;
    RecoveryStats stats;
    ASSERT_TRUE(reopened.Open(&data_, &dist_, options, durable, &stats).ok())
        << Cell(cell);
    EXPECT_EQ(stats.snapshot_loaded, checkpoint) << Cell(cell);
    EXPECT_EQ(stats.replayed, script_.size() - in_snapshot) << Cell(cell);
    EXPECT_EQ(stats.next_seq, script_.size() + 1) << Cell(cell);
    CheckOnlineCell(cell, "mutated", Mutated(), reopened.index());
  }

  /// The online cells: built, then the script, then compaction and the
  /// rebuild, each state checked when \p cells asks for it.
  void CheckOnline(unsigned cells) {
    DynamicIndexOptions online;
    online.index = config_.index;
    online.num_shards = shards_;
    DynamicIndex index;
    ASSERT_TRUE(index.Build(&data_, &dist_, online).ok())
        << Cell("online build");
    if (cells & kOnlineFresh) {
      CheckLiveAndLoaded(cells, "online fresh", "fresh", Fresh(), index);
    }
    if (cells & kWalReopen) {
      for (bool checkpoint : {false, true}) CheckWal(online, checkpoint);
    }
    if (!(cells & (kOnlineMutated | kOnlineCompacted | kOnlineRebuilt))) {
      return;
    }
    ASSERT_NO_FATAL_FAILURE(RunScript(&index, 0, script_.size()));
    if (cells & kOnlineMutated) {
      CheckOnlineCell("online mutated", "mutated", Mutated(), index);
    }
    if ((cells & kOnlineMutated) && (cells & kSaveLoad)) {
      const std::unique_ptr<DynamicIndex> loaded = SaveAndLoad(index);
      CheckOnlineCell("online mutated, Save+Load", "mutated", Mutated(),
                      *loaded);
      // The id space continues where the script left off.
      const Result<VectorId> id = loaded->Insert(base_[200]);
      ASSERT_TRUE(id.ok()) << Cell("online mutated, Save+Load");
      EXPECT_EQ(*id, kBaseSize + kInserts);
      EXPECT_TRUE(Contains(loaded->QueryAll(base_[200], 1.0), {*id, 1.0}));
    }
    if (cells & kOnlineCompacted) {
      if (shards_ > 1) {
        ASSERT_TRUE(index.CompactShard(0).ok());
        CheckOnlineCell("online mutated, shard 0 compacted",
                        "shard 0 compacted", Mutated(), index,
                        "shard 0's base holds inserted ids above the delta "
                        "ids of the other shards");
      }
      for (int s = 0; s < shards_; ++s) ASSERT_TRUE(index.CompactShard(s).ok());
      EXPECT_EQ(index.num_tombstones(), 0u) << Cell("online compacted");
      CheckLiveAndLoaded(cells, "online compacted", "compacted", Mutated(),
                         index);
    }
    if (cells & kOnlineRebuilt) {
      ASSERT_TRUE(index.RebuildForSize(RebuiltSize()).ok());
      CheckLiveAndLoaded(cells, "online rebuilt", "rebuilt", Rebuilt(),
                         index);
    }
  }

  const OracleConfig config_;
  const std::string path_;
  ProductDistribution dist_;
  Dataset data_;
  LiveSet base_, mutated_;
  std::vector<Op> script_;
  Dataset queries_;
  std::vector<std::string> query_names_;
  std::optional<Answers> fresh_, mutated_answers_, rebuilt_;
  /// The pool every cell's parallel BatchQuery runs on.
  ThreadPool pool_{3};
  int shards_ = 0;
  /// Counter class -> (first cell, its work per query).
  std::map<std::string, std::pair<std::string, std::vector<QueryStats>>>
      class_work_;
};

/// Checks \p cells at each of \p shard_counts, in every configuration
/// of \p mode (of every mode when none is given).
inline void CheckOracleCells(std::initializer_list<int> shard_counts,
                             unsigned cells,
                             std::optional<IndexMode> mode = std::nullopt) {
  for (const OracleConfig& config : kOracleConfigs) {
    if (mode && config.index.mode != *mode) continue;
    IndexOracle oracle(config);
    for (int k : shard_counts) oracle.Check(k, cells);
  }
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_INDEX_ORACLE_H_
