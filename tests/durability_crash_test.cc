// Copyright 2026 The skewsearch Authors.
// Crash injection for the durable index. Two layers:
//
// CrashRecoveryMatrixTest forks a child per trial — the child opens a
// DurableIndex, applies a deterministic mutation stream, records every
// acknowledgement, and dies hard (`_exit`, no destructors, no flushes)
// mid-stream. The parent then recovers the directory and requires the
// result to be *equivalent* to an index rebuilt from exactly the acked
// prefix: same live set, same QueryAll answers on a fixed probe set.
// `_exit` on one machine loses no page-cache writes, so the matrix
// holds under every sync policy — it is the acknowledgement protocol
// (apply, log, ack — in that order) across real process death that is
// under test here; the lost-unsynced-suffix cases are covered
// deterministically by the FaultFile images in durability_wal_test.cc.
//
// DurabilityRecoveryTest / DurabilityCheckpointRaceTest run in-process
// (they match the TSan suite selection): close/reopen round trips (the
// differential oracle's WAL cells, index_oracle.h), snapshot+tail
// recovery composition, replay idempotence across checkpoints, and
// checkpoints racing live writers under the maintenance thread.

#include <gtest/gtest.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_index.h"
#include "core/skewed_index.h"
#include "data/correlated.h"
#include "data/generators.h"
#include "durability/recovery.h"
#include "durability/wal.h"
#include "index_oracle.h"
#include "maintenance/service.h"
#include "obs/metrics.h"
#include "reference_index.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

constexpr double kProbeThreshold = 0.25;

// One scripted mutation. Remove targets are indices into the *acked
// insert history* so parent and child derive identical streams without
// sharing state.
struct ScriptedOp {
  bool is_insert = true;
  std::vector<ItemId> items;   // insert payload
  size_t remove_ordinal = 0;   // removes: which prior insert to kill
};

class DurableHarness : public ::testing::Test {
 protected:
  void SetUp() override {
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(91);
    data_ = GenerateDataset(dist_, 120, &rng);
    probes_ = MakeProbes(40, 915);
  }

  DynamicIndexOptions Options() const {
    DynamicIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 10;
    options.index.seed = 515;
    options.num_shards = 4;
    return options;
  }

  // A fixed probe set, independent of any index state.
  std::vector<SparseVector> MakeProbes(size_t count, uint64_t seed) {
    std::vector<SparseVector> out;
    Rng rng(seed);
    while (out.size() < count) {
      SparseVector v = dist_.Sample(&rng);
      if (!v.span().empty()) out.push_back(std::move(v));
    }
    return out;
  }

  // The deterministic mutation script both sides derive from `seed`.
  // Remove ordinals index the *currently unremoved* inserts, so the
  // generator simulates the same bookkeeping ApplyOp keeps.
  std::vector<ScriptedOp> MakeScript(size_t length, uint64_t seed) {
    std::vector<ScriptedOp> script;
    Rng rng(seed);
    size_t unremoved = 0;
    while (script.size() < length) {
      ScriptedOp op;
      if (unremoved > 0 && rng.NextBounded(10) < 3) {
        op.is_insert = false;
        op.remove_ordinal = rng.NextBounded(unremoved);
        --unremoved;
      } else {
        op.is_insert = true;
        SparseVector v = dist_.Sample(&rng);
        if (v.span().empty()) continue;
        op.items.assign(v.span().begin(), v.span().end());
        ++unremoved;
      }
      script.push_back(std::move(op));
    }
    return script;
  }

  // Applies script[0..upto) to `index`. Remove ordinals address the
  // insert-id history; an ordinal whose id was already removed maps to
  // a NotFound Remove, which the script never produces: each ordinal
  // is used at most once because RemoveTarget pops it.
  struct ScriptState {
    std::vector<VectorId> insert_ids;    // ids in insert order
    std::vector<bool> removed;           // parallel to insert_ids
  };

  static Status ApplyOp(DynamicIndex* index, const ScriptedOp& op,
                        ScriptState* state) {
    if (op.is_insert) {
      Result<VectorId> id = index->Insert(op.items);
      if (!id.ok()) return id.status();
      state->insert_ids.push_back(*id);
      state->removed.push_back(false);
      return Status::OK();
    }
    // Find the remove_ordinal-th not-yet-removed insert.
    size_t seen = 0;
    for (size_t i = 0; i < state->insert_ids.size(); ++i) {
      if (state->removed[i]) continue;
      if (seen++ == op.remove_ordinal) {
        state->removed[i] = true;
        return index->Remove(state->insert_ids[i]);
      }
    }
    return Status::InvalidArgument("remove ordinal out of range");
  }

  // The reference: a fresh, non-durable index with exactly the acked
  // prefix applied.
  void BuildReference(const std::vector<ScriptedOp>& script, size_t acked,
                      DynamicIndex* reference) {
    ASSERT_TRUE(reference->Build(&data_, &dist_, Options()).ok());
    ScriptState state;
    for (size_t i = 0; i < acked; ++i) {
      ASSERT_TRUE(ApplyOp(reference, script[i], &state).ok())
          << "reference op " << i;
    }
  }

  // Equivalence = identical live count + identical QueryAll answers on
  // every probe (QueryAll is layout- and compaction-independent:
  // matches are a set, ordered by similarity then id).
  void ExpectEquivalent(const DynamicIndex& got, const DynamicIndex& want,
                        const std::string& ctx) {
    EXPECT_EQ(got.size(), want.size()) << ctx;
    for (size_t p = 0; p < probes_.size(); ++p) {
      test::ExpectSameMatches(
          want.QueryAll(probes_[p].span(), kProbeThreshold),
          got.QueryAll(probes_[p].span(), kProbeThreshold),
          ctx + " probe " + std::to_string(p));
    }
  }

  ProductDistribution dist_;
  Dataset data_;
  std::vector<SparseVector> probes_;
};

// ---------------------------------------------------------------------------
// Fork matrix. (Fixture name deliberately avoids the Durability/Wal
// TSan patterns: fork(2) is not supported under ThreadSanitizer.)

class CrashRecoveryMatrixTest : public DurableHarness {
 protected:
  // Child body: open, apply ops writing an ack record after each, die
  // at `kill_after` acked ops. Never returns.
  [[noreturn]] void ChildMain(const std::string& dir,
                              const std::string& ack_path,
                              const std::vector<ScriptedOp>& script,
                              SyncPolicy policy, size_t kill_after,
                              uint64_t checkpoint_every) {
    DurableOptions durable;
    durable.dir = dir;
    durable.sync_policy = policy;
    durable.checkpoint_bytes = 0;  // checkpoints are scripted, not sized
    DurableIndex index;
    if (!index.Open(&data_, &dist_, Options(), durable).ok()) _exit(2);
    std::ofstream ack(ack_path, std::ios::trunc);
    ScriptState state;
    for (size_t i = 0; i < script.size(); ++i) {
      if (!ApplyOp(&index.index(), script[i], &state).ok()) _exit(3);
      // The mutation is acknowledged: record it where the parent will
      // look. (Same machine, so page cache survives our death.)
      ack.seekp(0);
      ack << (i + 1) << "\n";
      ack.flush();
      if (checkpoint_every != 0 && (i + 1) % checkpoint_every == 0) {
        if (!index.Checkpoint().ok()) _exit(4);
      }
      if (i + 1 == kill_after) _exit(0);  // die hard: no Close, no dtors
    }
    _exit(0);
  }

  void RunTrial(SyncPolicy policy, size_t kill_after, uint64_t seed,
                uint64_t checkpoint_every) {
    test::ScopedTempDir dir("crash_matrix");
    const std::string ack_path = dir.File("acked");
    const std::vector<ScriptedOp> script = MakeScript(60, seed);

    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ChildMain(dir.path(), ack_path, script, policy, kill_after,
                checkpoint_every);
    }
    int wstatus = 0;
    ASSERT_EQ(waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 0);

    size_t acked = 0;
    {
      std::ifstream in(ack_path);
      ASSERT_TRUE(in >> acked);
    }
    ASSERT_EQ(acked, kill_after);

    const std::string ctx = std::string(SyncPolicyName(policy)) + " kill " +
                            std::to_string(kill_after) + " ckpt " +
                            std::to_string(checkpoint_every);

    // Recover. No acked mutation may be missing, none may be invented.
    DurableIndex recovered;
    RecoveryStats stats;
    DurableOptions durable;
    durable.dir = dir.path();
    durable.sync_policy = policy;
    ASSERT_TRUE(
        recovered.Open(&data_, &dist_, Options(), durable, &stats).ok())
        << ctx;
    Status checked = recovered.index().CheckInvariants();
    EXPECT_TRUE(checked.ok()) << ctx << ": " << checked.ToString();
    EXPECT_FALSE(stats.truncated) << ctx;  // _exit tears no record
    if (checkpoint_every == 0) {
      // Without checkpoints, replay alone must account for every ack.
      EXPECT_EQ(stats.replayed, acked) << ctx;
    } else {
      EXPECT_TRUE(stats.snapshot_loaded) << ctx;
    }

    DynamicIndex reference;
    BuildReference(script, acked, &reference);
    ExpectEquivalent(recovered.index(), reference, ctx);

    // Determinism: recovering the same files again gives the same
    // answers (the reopened trial above may have appended nothing).
    ASSERT_TRUE(recovered.Close().ok()) << ctx;
    DurableIndex again;
    ASSERT_TRUE(again.Open(&data_, &dist_, Options(), durable).ok()) << ctx;
    checked = again.index().CheckInvariants();
    EXPECT_TRUE(checked.ok()) << ctx << ": " << checked.ToString();
    ExpectEquivalent(again.index(), reference, ctx + " (second recovery)");
  }
};

TEST_F(CrashRecoveryMatrixTest, EveryPolicySurvivesHardKill) {
  for (SyncPolicy policy : {SyncPolicy::kNone, SyncPolicy::kInterval,
                            SyncPolicy::kGroup, SyncPolicy::kAlways}) {
    for (size_t kill_after : {size_t{7}, size_t{41}}) {
      RunTrial(policy, kill_after, /*seed=*/1000 + kill_after,
               /*checkpoint_every=*/0);
    }
  }
}

TEST_F(CrashRecoveryMatrixTest, AlwaysPolicyDeepKillPoints) {
  // The strictest contract gets the densest matrix.
  for (size_t kill_after : {size_t{1}, size_t{23}, size_t{59}}) {
    RunTrial(SyncPolicy::kAlways, kill_after, /*seed=*/77 + kill_after,
             /*checkpoint_every=*/0);
  }
}

TEST_F(CrashRecoveryMatrixTest, CheckpointsDoNotChangeRecovery) {
  // Same stream, killed right after / between checkpoints: snapshot +
  // tail replay must land on the same state as pure replay.
  for (size_t kill_after : {size_t{10}, size_t{15}, size_t{47}}) {
    RunTrial(SyncPolicy::kGroup, kill_after, /*seed=*/300,
             /*checkpoint_every=*/10);
  }
}

// ---------------------------------------------------------------------------
// In-process recovery composition (runs under TSan/ASan).

class DurabilityRecoveryTest : public DurableHarness {};

// Close and reopen replays the whole log into the state the script left
// (no snapshot, every record replayed, next_seq one past the last),
// with and without a mid-script checkpoint: the oracle's WAL cells.
TEST_F(DurabilityRecoveryTest, CloseReopenRoundTrip) {
  test::CheckOracleCells({4}, test::kWalReopen);
}

TEST_F(DurabilityRecoveryTest, CheckpointFoldsLogIntoSnapshot) {
  test::ScopedTempDir dir("durable_ckpt");
  DurableOptions durable;
  durable.dir = dir.path();
  const std::vector<ScriptedOp> script = MakeScript(30, 8);

  DynamicIndex reference;
  BuildReference(script, script.size(), &reference);

  {
    DurableIndex index;
    ASSERT_TRUE(index.Open(&data_, &dist_, Options(), durable).ok());
    ScriptState state;
    for (size_t i = 0; i < script.size(); ++i) {
      ASSERT_TRUE(ApplyOp(&index.index(), script[i], &state).ok());
      if (i == 14) {
        ASSERT_TRUE(index.Checkpoint().ok());
      }
    }
    EXPECT_EQ(index.num_checkpoints(), 1u);
    ASSERT_TRUE(index.Close().ok());
  }
  obs::Histogram* const replay_ns =
      obs::MetricsRegistry::Global().GetHistogram("recovery.replay_ns");
  const uint64_t replays_before = replay_ns->Count();
  DurableIndex reopened;
  RecoveryStats stats;
  ASSERT_TRUE(reopened.Open(&data_, &dist_, Options(), durable, &stats).ok());
  EXPECT_TRUE(stats.snapshot_loaded);
  EXPECT_EQ(replay_ns->Count() - replays_before, 1u);  // one per recovery
  // Only the post-checkpoint tail replays.
  EXPECT_EQ(stats.replayed, script.size() - 15);
  EXPECT_EQ(stats.next_seq, script.size() + 1);  // seqs survive truncation
  ExpectEquivalent(reopened.index(), reference, "checkpoint fold");
}

TEST_F(DurabilityRecoveryTest, TornTailIsTruncatedDeterministically) {
  test::ScopedTempDir dir("durable_torn");
  DurableOptions durable;
  durable.dir = dir.path();
  const std::vector<ScriptedOp> script = MakeScript(20, 9);
  {
    DurableIndex index;
    ASSERT_TRUE(index.Open(&data_, &dist_, Options(), durable).ok());
    ScriptState state;
    for (const ScriptedOp& op : script) {
      ASSERT_TRUE(ApplyOp(&index.index(), op, &state).ok());
    }
    ASSERT_TRUE(index.Close().ok());
  }
  // Shear bytes off the log: the last record is torn.
  const std::string wal_path = DurableIndex::WalPath(dir.path());
  Result<WalReadResult> intact = ReadWal(wal_path);
  ASSERT_TRUE(intact.ok());
  ASSERT_EQ(intact->records.size(), script.size());
  const uint64_t keep = intact->valid_bytes - 3;
  ASSERT_EQ(::truncate(wal_path.c_str(), static_cast<off_t>(keep)), 0);

  DynamicIndex reference;
  BuildReference(script, script.size() - 1, &reference);

  DurableIndex reopened;
  RecoveryStats stats;
  ASSERT_TRUE(reopened.Open(&data_, &dist_, Options(), durable, &stats).ok());
  EXPECT_TRUE(stats.truncated);
  EXPECT_GT(stats.truncated_bytes, 0u);
  EXPECT_EQ(stats.replayed, script.size() - 1);
  ExpectEquivalent(reopened.index(), reference, "torn tail");
  // The tail was physically dropped: a second recovery sees a clean
  // log and lands on the same state.
  ASSERT_TRUE(reopened.Close().ok());
  DurableIndex again;
  RecoveryStats stats2;
  ASSERT_TRUE(again.Open(&data_, &dist_, Options(), durable, &stats2).ok());
  EXPECT_FALSE(stats2.truncated);
  ExpectEquivalent(again.index(), reference, "torn tail (second recovery)");
}

TEST_F(DurabilityRecoveryTest, JournalErrorFailsTheMutation) {
  // An index whose journal refuses must surface the error to the
  // caller — an acked-but-unlogged mutation would be a silent
  // durability hole.
  class RefusingJournal : public MutationJournal {
   public:
    Status LogInsert(VectorId, std::span<const ItemId>) override {
      return Status::IOError("journal refused");
    }
    Status LogRemove(VectorId) override {
      return Status::IOError("journal refused");
    }
  };
  DynamicIndex index;
  ASSERT_TRUE(index.Build(&data_, &dist_, Options()).ok());
  RefusingJournal journal;
  index.SetMutationJournal(&journal);
  const std::vector<ItemId> items = {1, 5, 9};
  EXPECT_FALSE(index.Insert(items).ok());
  EXPECT_FALSE(index.Remove(0).ok());
  index.SetMutationJournal(nullptr);
  EXPECT_TRUE(index.Insert(items).ok());
}

// ---------------------------------------------------------------------------
// Checkpoints racing live writers (the suite TSan runs).

class DurabilityCheckpointRaceTest : public DurableHarness {};

TEST_F(DurabilityCheckpointRaceTest, MaintenanceCheckpointsUnderChurn) {
  test::ScopedTempDir dir("durable_race");
  DurableOptions durable;
  durable.dir = dir.path();
  durable.checkpoint_bytes = 1;   // any non-empty log is due
  DurableIndex index;
  ASSERT_TRUE(index.Open(&data_, &dist_, Options(), durable).ok());

  MaintenanceService service;
  MaintenanceOptions moptions;
  moptions.poll_interval_ms = 1;
  ASSERT_TRUE(service.Attach(&index.index(), moptions).ok());
  service.SetCheckpointDriver(&index);
  ASSERT_TRUE(service.Start().ok());

  // Each writer thread inserts fresh vectors and removes only its own
  // earlier inserts, so the set of acked-live ids is exact per thread.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  std::vector<std::vector<VectorId>> live_ids(kThreads);
  std::vector<std::thread> writers;
  std::atomic<bool> failed{false};
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(4000 + t);
      std::vector<VectorId> inserted;
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (!inserted.empty() && rng.NextBounded(10) < 3) {
          const size_t pick = rng.NextBounded(inserted.size());
          if (!index.index().Remove(inserted[pick]).ok()) {
            failed.store(true);
            return;
          }
          inserted.erase(inserted.begin() + pick);
        } else {
          SparseVector v = dist_.Sample(&rng);
          if (v.span().empty()) continue;
          Result<VectorId> id = index.index().Insert(v.span());
          if (!id.ok()) {
            failed.store(true);
            return;
          }
          inserted.push_back(*id);
        }
      }
      live_ids[t] = std::move(inserted);
    });
  }
  for (auto& w : writers) w.join();
  ASSERT_FALSE(failed.load());
  service.Detach();
  EXPECT_TRUE(service.last_error().ok())
      << service.last_error().message();
  EXPECT_GT(service.stats().checkpoints, 0u);

  const size_t live_before = index.index().size();
  std::vector<std::vector<Match>> answers_before;
  for (const SparseVector& probe : probes_) {
    answers_before.push_back(
        index.index().QueryAll(probe.span(), kProbeThreshold));
  }
  ASSERT_TRUE(index.Close().ok());

  // Recovery after an arbitrary interleaving of checkpoints and acks
  // must reproduce the acked state exactly.
  DurableIndex reopened;
  ASSERT_TRUE(reopened.Open(&data_, &dist_, Options(), durable).ok());
  EXPECT_EQ(reopened.index().size(), live_before);
  for (int t = 0; t < kThreads; ++t) {
    for (VectorId id : live_ids[t]) {
      EXPECT_TRUE(reopened.index().IsLive(id)) << "thread " << t;
    }
  }
  for (size_t p = 0; p < probes_.size(); ++p) {
    test::ExpectSameMatches(
        answers_before[p],
        reopened.index().QueryAll(probes_[p].span(), kProbeThreshold),
        "probe " + std::to_string(p));
  }
}

TEST_F(DurabilityCheckpointRaceTest, ExplicitCheckpointRacesWriters) {
  test::ScopedTempDir dir("durable_race2");
  DurableOptions durable;
  durable.dir = dir.path();
  DurableIndex index;
  ASSERT_TRUE(index.Open(&data_, &dist_, Options(), durable).ok());

  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};
  std::thread checkpointer([&] {
    while (!stop.load(std::memory_order_acquire)) {
      if (!index.Checkpoint().ok()) {
        failed.store(true);
        return;
      }
    }
  });
  Rng rng(515);
  std::vector<VectorId> inserted;
  for (int i = 0; i < 150; ++i) {
    SparseVector v = dist_.Sample(&rng);
    if (v.span().empty()) continue;
    Result<VectorId> id = index.index().Insert(v.span());
    ASSERT_TRUE(id.ok()) << id.status().message();
    inserted.push_back(*id);
    if (i % 3 == 0 && !inserted.empty()) {
      const size_t pick = rng.NextBounded(inserted.size());
      ASSERT_TRUE(index.index().Remove(inserted[pick]).ok());
      inserted.erase(inserted.begin() + pick);
    }
  }
  stop.store(true, std::memory_order_release);
  checkpointer.join();
  ASSERT_FALSE(failed.load());

  const size_t live_before = index.index().size();
  ASSERT_TRUE(index.Close().ok());
  DurableIndex reopened;
  ASSERT_TRUE(reopened.Open(&data_, &dist_, Options(), durable).ok());
  EXPECT_EQ(reopened.index().size(), live_before);
  for (VectorId id : inserted) {
    EXPECT_TRUE(reopened.index().IsLive(id));
  }
}

}  // namespace
}  // namespace skewsearch
