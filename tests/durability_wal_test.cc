// Copyright 2026 The skewsearch Authors.
// SKW1 WAL: round-trip, sync-policy semantics, and the torn-write
// fuzz corpus. The durability contract under test is the truncation
// rule of docs/FILE_FORMATS.md: decoding any damaged image must stop
// cleanly at the last intact record — never crash, never over-replay
// past the first torn or corrupt byte — and truncating the file to
// valid_bytes must make every future decode of it byte-identical.
// FaultFile crash images additionally pin the policy side: under
// kAlways/kGroup every acknowledged record is inside the synced
// prefix, so no acked mutation can be lost to a crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "durability/fault_file.h"
#include "durability/wal.h"
#include "obs/metrics.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

using wal_internal::kFileHeaderSize;
using wal_internal::kRecordHeaderSize;

// One mutation of the generated log, with its byte extent in the
// pristine image (so the fuzzers can aim at boundaries and fields).
struct LoggedRecord {
  WalRecord::Type type;
  VectorId id;
  std::vector<ItemId> items;
  uint64_t begin = 0;  // first byte of the record header
  uint64_t end = 0;    // one past the last payload byte
};

void ExpectRecordEq(const WalRecord& got, const LoggedRecord& want,
                    uint64_t want_seq, const std::string& ctx) {
  EXPECT_EQ(got.type, want.type) << ctx;
  EXPECT_EQ(got.seq, want_seq) << ctx;
  EXPECT_EQ(got.id, want.id) << ctx;
  ASSERT_EQ(got.items.size(), want.items.size()) << ctx;
  for (size_t i = 0; i < got.items.size(); ++i) {
    EXPECT_EQ(got.items[i], want.items[i]) << ctx << " item " << i;
  }
}

// ---------------------------------------------------------------------------
// Round-trip + writer semantics.

class WalRoundTripTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::TempPath("wal_roundtrip", this, ".skw");
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(WalRoundTripTest, EncodeDecodeMixedRecords) {
  WalWriterOptions options;
  options.sync_policy = SyncPolicy::kNone;
  auto writer = WalWriter::Open(path_, options, 0, 1);
  ASSERT_TRUE(writer.ok()) << writer.status().message();

  std::vector<LoggedRecord> logged;
  Rng rng(11);
  for (int i = 0; i < 40; ++i) {
    LoggedRecord r;
    if (i % 5 == 3 && !logged.empty()) {
      r.type = WalRecord::Type::kRemove;
      r.id = logged[rng.NextBounded(logged.size())].id;
    } else {
      r.type = WalRecord::Type::kInsert;
      r.id = 1000 + static_cast<VectorId>(i);
      const size_t len = 1 + rng.NextBounded(9);
      ItemId item = static_cast<ItemId>(rng.NextBounded(50));
      for (size_t k = 0; k < len; ++k) {
        r.items.push_back(item);
        item += 1 + static_cast<ItemId>(rng.NextBounded(40));
      }
    }
    Result<uint64_t> seq = (*writer)->Append(r.type, r.id, r.items);
    ASSERT_TRUE(seq.ok()) << seq.status().message();
    EXPECT_EQ(*seq, static_cast<uint64_t>(i + 1));
    logged.push_back(std::move(r));
  }
  ASSERT_TRUE((*writer)->Sync().ok());

  Result<WalReadResult> read = ReadWal(path_);
  ASSERT_TRUE(read.ok()) << read.status().message();
  EXPECT_FALSE(read->truncated);
  EXPECT_EQ(read->next_seq, logged.size() + 1);
  EXPECT_EQ(read->valid_bytes, (*writer)->bytes());
  ASSERT_EQ(read->records.size(), logged.size());
  for (size_t i = 0; i < logged.size(); ++i) {
    ExpectRecordEq(read->records[i], logged[i], i + 1,
                   "record " + std::to_string(i));
  }
}

TEST_F(WalRoundTripTest, ReopenContinuesSequence) {
  WalWriterOptions options;
  options.sync_policy = SyncPolicy::kAlways;
  {
    auto writer = WalWriter::Open(path_, options, 0, 1);
    ASSERT_TRUE(writer.ok());
    const std::vector<ItemId> items = {3, 9, 27};
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          (*writer)->Append(WalRecord::Type::kInsert, 500 + i, items).ok());
    }
  }
  Result<WalReadResult> first = ReadWal(path_);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(first->truncated);
  ASSERT_EQ(first->records.size(), 3u);

  // Reopen exactly the way recovery does: existing size + next seq.
  auto writer =
      WalWriter::Open(path_, options, first->valid_bytes, first->next_seq);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::Type::kRemove, 501, {}).ok());
  ASSERT_TRUE(
      (*writer)->Append(WalRecord::Type::kInsert, 600, {{1, 2}}).ok());

  Result<WalReadResult> read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->truncated);
  ASSERT_EQ(read->records.size(), 5u);
  for (size_t i = 0; i < read->records.size(); ++i) {
    EXPECT_EQ(read->records[i].seq, i + 1);
  }
  EXPECT_EQ(read->records[3].type, WalRecord::Type::kRemove);
  EXPECT_EQ(read->records[3].id, 501u);
}

TEST_F(WalRoundTripTest, RemoveRecordsRejectItems) {
  auto writer = WalWriter::Open(path_, WalWriterOptions{}, 0, 1);
  ASSERT_TRUE(writer.ok());
  const std::vector<ItemId> items = {1};
  Result<uint64_t> seq =
      (*writer)->Append(WalRecord::Type::kRemove, 7, items);
  EXPECT_FALSE(seq.ok());
  EXPECT_EQ(seq.status().code(), Status::Code::kInvalidArgument);
}

TEST_F(WalRoundTripTest, MissingFileIsNotFound) {
  Result<WalReadResult> read = ReadWal(path_ + ".nonexistent");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kNotFound);
}

TEST_F(WalRoundTripTest, HeaderOnlyFileIsEmptyLog) {
  {
    auto writer = WalWriter::Open(path_, WalWriterOptions{}, 0, 1);
    ASSERT_TRUE(writer.ok());
  }
  Result<WalReadResult> read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->truncated);
  EXPECT_EQ(read->next_seq, 1u);
  EXPECT_EQ(read->valid_bytes, kFileHeaderSize);
}

TEST_F(WalRoundTripTest, EmptyImageDecodesEmpty) {
  Result<WalReadResult> read = DecodeWal({});
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_FALSE(read->truncated);
  EXPECT_EQ(read->valid_bytes, 0u);
}

TEST_F(WalRoundTripTest, BadMagicIsLoudNotTorn) {
  std::string bytes(kFileHeaderSize, '\0');
  std::memcpy(bytes.data(), "NOPE", 4);
  Result<WalReadResult> read = DecodeWal(bytes);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), Status::Code::kIOError);
}

TEST_F(WalRoundTripTest, ParseSyncPolicyRoundTrips) {
  for (SyncPolicy policy : {SyncPolicy::kNone, SyncPolicy::kInterval,
                            SyncPolicy::kGroup, SyncPolicy::kAlways}) {
    Result<SyncPolicy> parsed = ParseSyncPolicy(SyncPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(ParseSyncPolicy("fsync-maybe").ok());
}

TEST_F(WalRoundTripTest, TruncateKeepsSuffixAndSequenceContinues) {
  WalWriterOptions options;
  options.sync_policy = SyncPolicy::kNone;
  auto writer = WalWriter::Open(path_, options, 0, 1);
  ASSERT_TRUE(writer.ok());
  for (int i = 0; i < 10; ++i) {
    const std::vector<ItemId> items = {static_cast<ItemId>(i),
                                       static_cast<ItemId>(i + 100)};
    ASSERT_TRUE(
        (*writer)->Append(WalRecord::Type::kInsert, 900 + i, items).ok());
  }
  ASSERT_TRUE((*writer)->Truncate(5).ok());
  EXPECT_EQ((*writer)->num_truncations(), 1u);

  Result<WalReadResult> read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->truncated);
  ASSERT_EQ(read->records.size(), 5u);
  EXPECT_EQ(read->records.front().seq, 6u);
  EXPECT_EQ(read->records.back().seq, 10u);
  EXPECT_EQ(read->next_seq, 11u);

  // The reopened-in-place writer keeps appending where it left off.
  ASSERT_TRUE((*writer)->Append(WalRecord::Type::kRemove, 903, {}).ok());
  read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), 6u);
  EXPECT_EQ(read->records.back().seq, 11u);
}

TEST_F(WalRoundTripTest, TruncateAllYieldsEmptyLog) {
  auto writer = WalWriter::Open(path_, WalWriterOptions{}, 0, 1);
  ASSERT_TRUE(writer.ok());
  const std::vector<ItemId> items = {4, 8};
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        (*writer)->Append(WalRecord::Type::kInsert, 50 + i, items).ok());
  }
  ASSERT_TRUE((*writer)->Truncate((*writer)->last_appended_seq()).ok());
  Result<WalReadResult> read = ReadWal(path_);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
  EXPECT_EQ(read->valid_bytes, kFileHeaderSize);
  // Decoding an emptied log restarts numbering; the *live* writer keeps
  // counting (recovery never reopens a log it did not just decode, so
  // the two never disagree in practice).
  EXPECT_EQ(read->next_seq, 1u);
  EXPECT_EQ((*writer)->next_seq(), 5u);
}

TEST_F(WalRoundTripTest, TruncateUnsupportedOnSinkBackedWriter) {
  auto writer = WalWriter::OpenWithSink(std::make_unique<FaultFile>(),
                                        WalWriterOptions{}, 1, true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::Type::kInsert, 1, {{1}}).ok());
  Status truncated = (*writer)->Truncate(0);
  EXPECT_EQ(truncated.code(), Status::Code::kNotSupported);
}

// ---------------------------------------------------------------------------
// Sync-policy semantics over the fault-injection sink.

class WalSyncPolicyTest : public ::testing::Test {
 protected:
  // Opens a sink-backed writer and returns the borrowed FaultFile.
  std::unique_ptr<WalWriter> OpenFaulty(SyncPolicy policy, FaultFile** file,
                                        int interval_ms = 5) {
    auto sink = std::make_unique<FaultFile>();
    *file = sink.get();
    WalWriterOptions options;
    options.sync_policy = policy;
    options.interval_ms = interval_ms;
    auto writer =
        WalWriter::OpenWithSink(std::move(sink), options, 1, true);
    EXPECT_TRUE(writer.ok());
    return std::move(writer).value();
  }

  const std::vector<ItemId> items_ = {2, 3, 5, 8, 13};
};

TEST_F(WalSyncPolicyTest, AlwaysSyncsEveryAppend) {
  FaultFile* file = nullptr;
  auto writer = OpenFaulty(SyncPolicy::kAlways, &file);
  obs::Counter* const fsyncs =
      obs::MetricsRegistry::Global().GetCounter("wal.fsyncs");
  obs::Histogram* const fsync_ns =
      obs::MetricsRegistry::Global().GetHistogram("wal.fsync_ns");
  const uint64_t fsyncs_before = fsyncs->Value();
  const uint64_t timed_before = fsync_ns->Count();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        writer->Append(WalRecord::Type::kInsert, 10 + i, items_).ok());
    // The whole log so far is inside the synced prefix: a crash image
    // at synced_size loses nothing acknowledged.
    EXPECT_EQ(file->synced_size(), writer->bytes());
    EXPECT_EQ(writer->last_synced_seq(), static_cast<uint64_t>(i + 1));
  }
  EXPECT_EQ(file->num_syncs(), 8u);  // dedicated fsync per ack, no sharing
  // Every fsync is timed: the histogram's count moves with wal.fsyncs.
  EXPECT_EQ(fsyncs->Value() - fsyncs_before, 8u);
  EXPECT_EQ(fsync_ns->Count() - timed_before, 8u);
}

TEST_F(WalSyncPolicyTest, GroupSyncsBeforeAck) {
  FaultFile* file = nullptr;
  auto writer = OpenFaulty(SyncPolicy::kGroup, &file);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        writer->Append(WalRecord::Type::kInsert, 10 + i, items_).ok());
    EXPECT_GE(writer->last_synced_seq(), static_cast<uint64_t>(i + 1));
    EXPECT_EQ(file->synced_size(), writer->bytes());
  }
}

TEST_F(WalSyncPolicyTest, GroupCommitSharesFsyncsAcrossThreads) {
  FaultFile* file = nullptr;
  auto writer = OpenFaulty(SyncPolicy::kGroup, &file);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<uint64_t> seq = writer->Append(
            WalRecord::Type::kInsert,
            static_cast<VectorId>(1000 + t * kPerThread + i), items_);
        ASSERT_TRUE(seq.ok());
        // Group commit's contract: by the time the append returns, a
        // sync covering this seq has completed.
        EXPECT_GE(writer->last_synced_seq(), *seq);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(writer->num_appends(),
            static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(file->synced_size(), writer->bytes());
  // Sharing is the point: strictly fewer fsyncs than acks would need
  // under kAlways (equality only if no two commits ever overlapped,
  // which the assertion tolerates — but the decode must stay intact).
  EXPECT_LE(file->num_syncs(), writer->num_appends());
  Result<WalReadResult> read = DecodeWal(file->bytes());
  ASSERT_TRUE(read.ok());
  EXPECT_FALSE(read->truncated);
  EXPECT_EQ(read->records.size(),
            static_cast<size_t>(kThreads * kPerThread));
}

TEST_F(WalSyncPolicyTest, IntervalDefersSyncs) {
  FaultFile* file = nullptr;
  // An hour-long interval: no append-piggybacked sync can trigger.
  auto writer =
      OpenFaulty(SyncPolicy::kInterval, &file, /*interval_ms=*/3600000);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        writer->Append(WalRecord::Type::kInsert, 10 + i, items_).ok());
  }
  EXPECT_EQ(file->synced_size(), 0u);
  EXPECT_EQ(writer->last_synced_seq(), 0u);
  ASSERT_TRUE(writer->Sync().ok());  // explicit barrier still works
  EXPECT_EQ(file->synced_size(), writer->bytes());
  EXPECT_EQ(writer->last_synced_seq(), 8u);
}

TEST_F(WalSyncPolicyTest, NoneNeverSyncs) {
  FaultFile* file = nullptr;
  auto writer = OpenFaulty(SyncPolicy::kNone, &file);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        writer->Append(WalRecord::Type::kInsert, 10 + i, items_).ok());
  }
  EXPECT_EQ(file->num_syncs(), 0u);
  // A crash now may lose everything — but what survives still decodes:
  // the synced image is just the (empty) log.
  Result<WalReadResult> read = DecodeWal(
      file->CrashImage(file->synced_size()));
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->records.empty());
}

TEST_F(WalSyncPolicyTest, FailedAppendPoisonsWriter) {
  auto sink = std::make_unique<FaultFile>();
  FaultFile* file = sink.get();
  WalWriterOptions options;
  options.sync_policy = SyncPolicy::kNone;
  auto writer = WalWriter::OpenWithSink(std::move(sink), options, 1, true);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->Append(WalRecord::Type::kInsert, 1, items_).ok());
  // Arm the budget so the next record's bytes do not fit.
  file->set_fail_after(file->bytes().size() + 4);
  Result<uint64_t> failed =
      (*writer)->Append(WalRecord::Type::kInsert, 2, items_);
  ASSERT_FALSE(failed.ok());
  // Poisoned: even with the budget lifted, appends must keep failing —
  // the file may end mid-record and anything behind the tear would be
  // silently dropped by recovery.
  file->set_fail_after(UINT64_MAX);
  Result<uint64_t> after =
      (*writer)->Append(WalRecord::Type::kInsert, 3, items_);
  ASSERT_FALSE(after.ok());
  EXPECT_EQ(after.status().code(), Status::Code::kIOError);
}

// ---------------------------------------------------------------------------
// Torn-write fuzz: every boundary, every byte class, seeded corpus.

class WalTornWriteFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto sink = std::make_unique<FaultFile>();
    FaultFile* file = sink.get();
    WalWriterOptions options;
    options.sync_policy = SyncPolicy::kNone;
    auto writer =
        WalWriter::OpenWithSink(std::move(sink), options, 1, true);
    ASSERT_TRUE(writer.ok());

    Rng rng(2026);
    uint64_t offset = kFileHeaderSize;
    for (int i = 0; i < 24; ++i) {
      LoggedRecord r;
      if (i % 6 == 4) {
        r.type = WalRecord::Type::kRemove;
        r.id = 2000 + static_cast<VectorId>(i / 6);
      } else {
        r.type = WalRecord::Type::kInsert;
        r.id = 2000 + static_cast<VectorId>(i);
        const size_t len = 1 + rng.NextBounded(12);
        ItemId item = static_cast<ItemId>(rng.NextBounded(30));
        for (size_t k = 0; k < len; ++k) {
          r.items.push_back(item);
          item += 1 + static_cast<ItemId>(rng.NextBounded(25));
        }
      }
      ASSERT_TRUE((*writer)->Append(r.type, r.id, r.items).ok());
      r.begin = offset;
      offset = (*writer)->bytes();
      r.end = offset;
      records_.push_back(std::move(r));
    }
    pristine_ = file->bytes();
    ASSERT_EQ(pristine_.size(), offset);
  }

  // The oracle: decoding `image` must (a) never fail at record level,
  // (b) yield a strict prefix of the pristine records — same type,
  // seq, id, items — and (c) be deterministic: re-truncating the image
  // to valid_bytes and decoding again must give the same clean prefix.
  // `expect_records` < 0 means "any prefix length is acceptable".
  void ExpectCleanPrefix(const std::string& image, int expect_records,
                         const std::string& ctx) {
    Result<WalReadResult> read = DecodeWal(image);
    ASSERT_TRUE(read.ok()) << ctx << ": " << read.status().message();
    ASSERT_LE(read->records.size(), records_.size()) << ctx;
    if (expect_records >= 0) {
      ASSERT_EQ(read->records.size(), static_cast<size_t>(expect_records))
          << ctx << " (stop reason: " << read->truncate_reason << ")";
    }
    for (size_t i = 0; i < read->records.size(); ++i) {
      ExpectRecordEq(read->records[i], records_[i], i + 1,
                     ctx + " record " + std::to_string(i));
    }
    ASSERT_LE(read->valid_bytes, image.size()) << ctx;
    if (!read->records.empty()) {
      EXPECT_EQ(read->valid_bytes, records_[read->records.size() - 1].end)
          << ctx;
    }
    // Deterministic truncation: the repaired file decodes clean.
    Result<WalReadResult> again =
        DecodeWal(std::span<const char>(image.data(), read->valid_bytes));
    ASSERT_TRUE(again.ok()) << ctx;
    EXPECT_FALSE(again->truncated) << ctx;
    ASSERT_EQ(again->records.size(), read->records.size()) << ctx;
    EXPECT_EQ(again->next_seq, read->next_seq) << ctx;
  }

  // Number of pristine records wholly inside the first `cut` bytes.
  int RecordsWithin(uint64_t cut) const {
    int n = 0;
    while (n < static_cast<int>(records_.size()) &&
           records_[n].end <= cut) {
      ++n;
    }
    return n;
  }

  std::string pristine_;
  std::vector<LoggedRecord> records_;
};

TEST_F(WalTornWriteFuzzTest, TruncationAtEveryRecordBoundary) {
  const int64_t deltas[] = {-65, -23, -8, -1, 0, 1, 7, 23};
  for (size_t i = 0; i < records_.size(); ++i) {
    for (int64_t delta : deltas) {
      const int64_t cut_signed =
          static_cast<int64_t>(records_[i].end) + delta;
      if (cut_signed < static_cast<int64_t>(kFileHeaderSize)) continue;
      const uint64_t cut =
          std::min<uint64_t>(static_cast<uint64_t>(cut_signed),
                             pristine_.size());
      ExpectCleanPrefix(pristine_.substr(0, cut), RecordsWithin(cut),
                        "boundary " + std::to_string(i) + " delta " +
                            std::to_string(delta));
    }
  }
}

TEST_F(WalTornWriteFuzzTest, TruncationInsideFileHeader) {
  for (uint64_t cut = 0; cut < kFileHeaderSize; ++cut) {
    Result<WalReadResult> read =
        DecodeWal(std::span<const char>(pristine_.data(), cut));
    ASSERT_TRUE(read.ok()) << "cut " << cut;
    EXPECT_TRUE(read->records.empty()) << "cut " << cut;
    EXPECT_EQ(read->valid_bytes, 0u) << "cut " << cut;
    EXPECT_EQ(read->truncated, cut != 0) << "cut " << cut;
  }
}

TEST_F(WalTornWriteFuzzTest, ByteFlipEveryFieldClass) {
  // Field classes inside a record, as offsets from its first byte.
  struct FieldProbe {
    const char* name;
    uint64_t offset;  // relative; payload probes handled separately
  };
  const FieldProbe header_probes[] = {
      {"type", 0},     {"pad1", 1},  {"pad3", 3},  {"len_lo", 4},
      {"len_hi", 7},   {"seq_lo", 8}, {"seq_hi", 15}, {"crc_lo", 16},
      {"crc_hi", 23},
  };
  const uint8_t masks[] = {0x01, 0x80, 0xff};
  // Probe a spread of records: first, a middle insert, a remove, last.
  const size_t probe_records[] = {0, records_.size() / 2, 4,
                                  records_.size() - 1};
  for (size_t ri : probe_records) {
    const LoggedRecord& r = records_[ri];
    for (const FieldProbe& probe : header_probes) {
      for (uint8_t mask : masks) {
        std::string image = pristine_;
        image[r.begin + probe.offset] =
            static_cast<char>(image[r.begin + probe.offset] ^ mask);
        // Any in-record damage must stop decoding exactly at record ri.
        ExpectCleanPrefix(image, static_cast<int>(ri),
                          std::string("flip ") + probe.name + " mask " +
                              std::to_string(mask) + " record " +
                              std::to_string(ri));
      }
    }
    // Payload probes: first and last payload byte (when present).
    if (r.end > r.begin + kRecordHeaderSize) {
      for (uint64_t off : {r.begin + kRecordHeaderSize, r.end - 1}) {
        std::string image = pristine_;
        image[off] = static_cast<char>(image[off] ^ 0x40);
        ExpectCleanPrefix(image, static_cast<int>(ri),
                          "flip payload record " + std::to_string(ri));
      }
    }
  }
}

TEST_F(WalTornWriteFuzzTest, FileHeaderFlipsFailLoudly) {
  for (uint64_t off = 0; off < kFileHeaderSize; ++off) {
    std::string image = pristine_;
    image[off] = static_cast<char>(image[off] ^ 0x08);
    Result<WalReadResult> read = DecodeWal(image);
    // A present-but-wrong header is not a WAL: loud error, no replay.
    ASSERT_FALSE(read.ok()) << "header byte " << off;
    EXPECT_EQ(read.status().code(), Status::Code::kIOError)
        << "header byte " << off;
  }
}

TEST_F(WalTornWriteFuzzTest, SeededRandomFlipCorpus) {
  Rng rng(42);
  for (int trial = 0; trial < 400; ++trial) {
    const uint64_t offset =
        kFileHeaderSize +
        rng.NextBounded(pristine_.size() - kFileHeaderSize);
    const uint8_t mask = static_cast<uint8_t>(1 + rng.NextBounded(255));
    std::string image = pristine_;
    image[offset] = static_cast<char>(image[offset] ^ mask);
    // The damaged record index bounds the surviving prefix exactly:
    // every record before it must decode, the flipped one must not.
    const int damaged = RecordsWithin(offset);  // offset >= its begin
    ExpectCleanPrefix(image, damaged,
                      "trial " + std::to_string(trial) + " offset " +
                          std::to_string(offset));
  }
}

TEST_F(WalTornWriteFuzzTest, SeededRandomTruncationCorpus) {
  Rng rng(43);
  for (int trial = 0; trial < 200; ++trial) {
    const uint64_t cut =
        kFileHeaderSize +
        rng.NextBounded(pristine_.size() - kFileHeaderSize + 1);
    ExpectCleanPrefix(pristine_.substr(0, cut), RecordsWithin(cut),
                      "trial " + std::to_string(trial) + " cut " +
                          std::to_string(cut));
  }
}

TEST_F(WalTornWriteFuzzTest, ShearedCrashImagesViaFaultFile) {
  // Re-drive the same stream through a writer that syncs per append,
  // then shear crash images at every record with extra torn bytes and
  // bit rot — the FaultFile materialization path end to end.
  auto sink = std::make_unique<FaultFile>();
  FaultFile* file = sink.get();
  WalWriterOptions options;
  options.sync_policy = SyncPolicy::kAlways;
  auto writer = WalWriter::OpenWithSink(std::move(sink), options, 1, true);
  ASSERT_TRUE(writer.ok());
  for (const LoggedRecord& r : records_) {
    ASSERT_TRUE((*writer)->Append(r.type, r.id, r.items).ok());
  }
  const std::string path = test::TempPath("wal_shear", this, ".skw");
  for (size_t i = 0; i < records_.size(); i += 3) {
    // Torn write: keep through record i, shear 5 bytes off its tail.
    ASSERT_TRUE(
        file->MaterializeCrash(path, records_[i].end, /*shorten_tail=*/5)
            .ok());
    Result<WalReadResult> read = ReadWal(path);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read->records.size(), i) << "shear at record " << i;
    // Bit rot inside the kept prefix: stop even earlier.
    if (i >= 2) {
      const FaultFile::Corruption rot[] = {
          {records_[i / 2].begin + 17, 0x20}};  // crc byte of record i/2
      ASSERT_TRUE(file->MaterializeCrash(path, records_[i].end, 0, rot).ok());
      read = ReadWal(path);
      ASSERT_TRUE(read.ok());
      EXPECT_EQ(read->records.size(), i / 2) << "rot at record " << i / 2;
      EXPECT_TRUE(read->truncated);
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace skewsearch
