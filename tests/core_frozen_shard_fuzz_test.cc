// Structure-aware format fuzzer for the SKF2 frozen-shard layout
// (core/frozen_shard.h), mirroring the wire-codec rejection suite: a
// deterministic seeded corpus of corruptions — truncation at and around
// every section boundary, bit- and byte-flips in every header, section
// table and payload field, section misalignment, size inflation — and
// the contract that FrozenShardFile::Map NEVER crashes or over-reads
// (ASan-clean) on any of them. Each mutant must either
//   (a) fail the default metadata-only Map cleanly, or
//   (b) fail the verify_payload Map cleanly (payload mutations are
//       invisible to the O(1) metadata pass by design), or
//   (c) be benign (padding bytes are deliberately unchecksummed) — in
//       which case the mapped index must answer queries byte-identically
//       to the pristine file.

#include "core/frozen_shard.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/sharded_index.h"
#include "data/generators.h"
#include "frozen_test_util.h"
#include "reference_index.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

class FrozenShardFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::TempPath("frozen_fuzz", this, ".skf");
    mutant_path_ = test::TempPath("frozen_fuzz_mutant", this, ".skf");
    dist_ = TwoBlockProbabilities(80, 0.25, 3000, 0.01).value();
    Rng rng(31);
    data_ = GenerateDataset(dist_, 150, &rng);

    ShardedIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 5;
    options.index.seed = 99991;
    options.num_shards = 2;
    ASSERT_TRUE(index_.Build(&data_, &dist_, options).ok());
    ASSERT_TRUE(index_.Freeze(path_).ok());
    pristine_ = test::FileBytes(path_);
    ASSERT_GE(pristine_.size(), 64u);

    // Reference answers from the pristine build, for the benign-mutation
    // arm of the contract.
    for (VectorId id = 0; id < data_.size(); ++id) {
      reference_.push_back(index_.Query(data_.Get(id)));
    }
  }

  void TearDown() override {
    std::remove(path_.c_str());
    std::remove(mutant_path_.c_str());
  }

  void WriteMutant(const std::string& bytes) {
    std::ofstream out(mutant_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  /// The fuzz oracle. Maps the mutant twice (default, then
  /// verify_payload); if both succeed the mutation must be benign:
  /// queries through the mapped index must equal the pristine answers.
  /// Any crash or sanitizer finding anywhere here fails the test run.
  void ExpectCleanOutcome(const std::string& bytes,
                          const std::string& label) {
    SCOPED_TRACE(label);
    WriteMutant(bytes);

    ShardedIndex mapped;
    Status plain = mapped.MapFrozen(mutant_path_, &data_, &dist_);
    if (!plain.ok()) return;  // (a) clean metadata rejection

    FrozenMapOptions verify;
    verify.verify_payload = true;
    ShardedIndex verified;
    Status full = verified.MapFrozen(mutant_path_, &data_, &dist_, verify);
    if (!full.ok()) return;  // (b) clean payload rejection

    // (c) benign: answers must be byte-identical to the pristine index.
    for (VectorId id = 0; id < data_.size(); ++id) {
      test::ExpectSameMatches(reference_[id], verified.Query(data_.Get(id)),
                              "query " + std::to_string(id));
    }
  }

  /// Every section boundary in the file, recovered from the (pristine)
  /// header and shard entry table.
  std::vector<size_t> SectionBoundaries() const {
    std::vector<size_t> cuts = {0, 4, 8, 16, 24, 28, 32, 40, 48, 56, 64};
    uint64_t param_size = 0, table_offset = 0;
    uint32_t num_shards = 0;
    std::memcpy(&param_size, pristine_.data() + 40, 8);
    std::memcpy(&table_offset, pristine_.data() + 48, 8);
    std::memcpy(&num_shards, pristine_.data() + 24, 4);
    cuts.push_back(static_cast<size_t>(64 + param_size));
    cuts.push_back(static_cast<size_t>(table_offset));
    for (uint32_t s = 0; s < num_shards; ++s) {
      cuts.push_back(table_offset + s * 64);
      const FrozenShardFile::ShardInfo e = test::FrozenShardEntry(pristine_, s);
      // keys/offsets/ids/directory section starts and ends.
      cuts.push_back(static_cast<size_t>(e.keys_offset));
      cuts.push_back(static_cast<size_t>(e.keys_offset + e.keys_count * 8));
      cuts.push_back(static_cast<size_t>(e.offsets_offset));
      cuts.push_back(
          static_cast<size_t>(e.offsets_offset + (e.keys_count + 1) * 4));
      cuts.push_back(static_cast<size_t>(e.ids_offset));
      cuts.push_back(static_cast<size_t>(e.ids_offset + e.ids_count * 4));
      cuts.push_back(static_cast<size_t>(e.directory_offset));
      cuts.push_back(static_cast<size_t>(
          e.directory_offset + KeyDirectorySize(e.keys_count) * 4));
    }
    cuts.push_back(pristine_.size());
    return cuts;
  }

  std::string path_;
  std::string mutant_path_;
  ProductDistribution dist_;
  Dataset data_;
  ShardedIndex index_;
  std::string pristine_;
  std::vector<std::optional<Match>> reference_;
};

TEST_F(FrozenShardFuzzTest, PristineFileMapsAndIsBenign) {
  // Sanity: the oracle's benign arm actually runs on the unmutated file.
  ExpectCleanOutcome(pristine_, "pristine");
}

TEST_F(FrozenShardFuzzTest, TruncationAtEverySectionBoundary) {
  for (size_t cut : SectionBoundaries()) {
    for (long long delta : {-65LL, -1LL, 0LL, 1LL, 63LL}) {
      const long long len = static_cast<long long>(cut) + delta;
      if (len < 0 || len >= static_cast<long long>(pristine_.size())) {
        continue;
      }
      ExpectCleanOutcome(pristine_.substr(0, static_cast<size_t>(len)),
                         "truncate at " + std::to_string(len));
    }
  }
}

TEST_F(FrozenShardFuzzTest, GrowthBeyondRecordedSize) {
  // Appending bytes desynchronizes file_size from the mapping; both a
  // single byte and a whole page must be rejected (or proven benign).
  ExpectCleanOutcome(pristine_ + std::string(1, '\0'), "append 1");
  ExpectCleanOutcome(pristine_ + std::string(4096, '\xab'), "append 4096");
}

TEST_F(FrozenShardFuzzTest, ByteFlipsInHeaderAndSectionTable) {
  uint64_t table_offset = 0;
  uint32_t num_shards = 0;
  std::memcpy(&table_offset, pristine_.data() + 48, 8);
  std::memcpy(&num_shards, pristine_.data() + 24, 4);
  std::vector<size_t> positions;
  for (size_t pos = 0; pos < 64; ++pos) positions.push_back(pos);
  const size_t table_end = table_offset + num_shards * 64;
  for (size_t pos = table_offset; pos < table_end; ++pos) {
    positions.push_back(pos);
  }
  for (size_t pos : positions) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xff}}) {
      std::string mutant = pristine_;
      mutant[pos] = static_cast<char>(
          static_cast<uint8_t>(mutant[pos]) ^ flip);
      if (mutant == pristine_) continue;
      ExpectCleanOutcome(mutant, "flip byte " + std::to_string(pos) +
                                     " ^ " + std::to_string(flip));
    }
  }
}

TEST_F(FrozenShardFuzzTest, SeededRandomByteFlipsEverywhere) {
  // Deterministic random corpus across the whole file — params, payload
  // sections and padding alike. Payload flips are the (b)-arm's domain;
  // padding flips exercise the benign arm.
  Rng rng(0xf022);
  for (int i = 0; i < 300; ++i) {
    std::string mutant = pristine_;
    const size_t pos =
        static_cast<size_t>(rng.NextUint64() % mutant.size());
    const uint8_t flip = static_cast<uint8_t>(rng.NextUint64() % 255 + 1);
    mutant[pos] =
        static_cast<char>(static_cast<uint8_t>(mutant[pos]) ^ flip);
    ExpectCleanOutcome(mutant, "random flip #" + std::to_string(i) +
                                   " at " + std::to_string(pos));
  }
}

TEST_F(FrozenShardFuzzTest, FieldTargetedCorruptions) {
  struct FieldMutation {
    size_t offset;
    uint64_t value;
    size_t width;
    const char* label;
  };
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, pristine_.data() + 48, 8);
  const uint64_t file_size = pristine_.size();
  const std::vector<FieldMutation> mutations = {
      {8, 0, 8, "file_size zero"},
      {8, file_size - 1, 8, "file_size short"},
      {8, file_size + 64, 8, "file_size long"},
      {8, ~0ULL, 8, "file_size max"},
      {16, 0xdeadbeef, 8, "fingerprint"},
      {24, 0, 4, "num_shards zero"},
      {24, 5000, 4, "num_shards over cap"},
      {24, 3, 4, "num_shards grown"},
      {28, 7, 4, "section_count wrong"},
      {32, 0, 8, "param_offset zero"},
      {32, 128, 8, "param_offset moved"},
      {40, 0, 8, "param_size zero"},
      {40, file_size, 8, "param_size whole file"},
      {48, 0, 8, "table_offset zero"},
      {48, table_offset + 1, 8, "table_offset misaligned"},
      {48, table_offset + 64, 8, "table_offset shifted"},
      {48, file_size, 8, "table_offset at end"},
      {48, ~0ULL & ~63ULL, 8, "table_offset huge aligned"},
      {56, 0, 8, "meta_checksum zero"},
      // Shard entry 0 fields (each 8 bytes wide).
      {static_cast<size_t>(table_offset) + 0, ~0ULL & ~63ULL, 8,
       "keys_offset huge"},
      {static_cast<size_t>(table_offset) + 0, 65, 8,
       "keys_offset misaligned"},
      {static_cast<size_t>(table_offset) + 8, ~0ULL, 8,
       "keys_count huge"},
      {static_cast<size_t>(table_offset) + 8, 0, 8, "keys_count zero"},
      {static_cast<size_t>(table_offset) + 24, 0, 8,
       "directory_offset zero"},
      {static_cast<size_t>(table_offset) + 24, ~0ULL & ~63ULL, 8,
       "directory_offset huge"},
      {static_cast<size_t>(table_offset) + 24, 65, 8,
       "directory_offset misaligned"},
      {static_cast<size_t>(table_offset) + 40, ~0ULL, 8,
       "ids_count huge"},
      {static_cast<size_t>(table_offset) + 40, 0, 8, "ids_count zero"},
      {static_cast<size_t>(table_offset) + 48, ~0ULL, 8, "max_id huge"},
      {static_cast<size_t>(table_offset) + 48, 0, 8, "max_id zero"},
      {static_cast<size_t>(table_offset) + 56, 0, 8,
       "payload_checksum zero"},
  };
  for (const FieldMutation& m : mutations) {
    std::string mutant = pristine_;
    ASSERT_LE(m.offset + m.width, mutant.size());
    std::memcpy(mutant.data() + m.offset, &m.value, m.width);
    if (mutant == pristine_) continue;
    ExpectCleanOutcome(mutant, m.label);
  }

  // The directory's brackets are payload bytes, but the default O(1) Map
  // checks them like the offsets': a corrupt first or last entry must
  // fail it.
  const FrozenShardFile::ShardInfo e = test::FrozenShardEntry(pristine_, 0);
  const size_t first = static_cast<size_t>(e.directory_offset);
  const size_t last = first + (KeyDirectorySize(e.keys_count) - 1) * 4;
  const std::vector<FieldMutation> brackets = {
      {first, 1, 4, "dir[0] one"},
      {last, e.keys_count - 1, 4, "dir[last] short"},
      {last, e.keys_count + 1, 4, "dir[last] long"},
  };
  for (const FieldMutation& m : brackets) {
    std::string mutant = pristine_;
    std::memcpy(mutant.data() + m.offset, &m.value, m.width);
    WriteMutant(mutant);
    auto mapped = FrozenShardFile::Map(mutant_path_);
    EXPECT_TRUE(mapped.status().IsInvalidArgument())
        << m.label << ": " << mapped.status().ToString();
  }
}

TEST_F(FrozenShardFuzzTest, FieldCorruptionsWithRecomputedChecksum) {
  // The nastier adversary: corrupt a metadata field AND fix up the
  // metadata checksum so only the deeper validation can object. The
  // per-field O(1) checks (bounds, alignment, bracketing) must still
  // reject — or the payload pass must — without ever crashing.
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, pristine_.data() + 48, 8);
  struct FieldMutation {
    size_t offset;
    uint64_t value;
    size_t width;
    const char* label;
  };
  // (Deliberately absent: a "shrink num_shards with fixed-up checksum"
  // mutation. That file is a structurally valid 1-shard SKF2 with
  // different *content* — adversarial rewriting, which checksums are
  // not meant to defeat; the corruption model covers it via the
  // unfixed-checksum variant in FieldTargetedCorruptions.)
  const std::vector<FieldMutation> mutations = {
      {8, pristine_.size() - 64, 8, "file_size short, checksummed"},
      {static_cast<size_t>(table_offset) + 0, ~0ULL & ~63ULL, 8,
       "keys_offset huge, checksummed"},
      {static_cast<size_t>(table_offset) + 0,
       static_cast<size_t>(table_offset) + 32, 8,
       "keys_offset misaligned, checksummed"},
      {static_cast<size_t>(table_offset) + 8, ~0ULL / 8, 8,
       "keys_count huge, checksummed"},
      {static_cast<size_t>(table_offset) + 24, ~0ULL & ~63ULL, 8,
       "directory_offset huge, checksummed"},
      {static_cast<size_t>(table_offset) + 24,
       static_cast<size_t>(table_offset) + 32, 8,
       "directory_offset misaligned, checksummed"},
      {static_cast<size_t>(table_offset) + 40, ~0ULL / 4, 8,
       "ids_count huge, checksummed"},
      {static_cast<size_t>(table_offset) + 40, 3, 8,
       "ids_count shrunk, checksummed"},
      {static_cast<size_t>(table_offset) + 48, ~0ULL, 8,
       "max_id huge, checksummed"},
      {static_cast<size_t>(table_offset) + 48, 1, 8,
       "max_id understated, checksummed"},
      {static_cast<size_t>(table_offset) + 56, 0, 8,
       "payload_checksum cleared, checksummed"},
  };
  for (const FieldMutation& m : mutations) {
    std::string mutant = pristine_;
    std::memcpy(mutant.data() + m.offset, &m.value, m.width);
    if (!test::RecomputeFrozenMetaChecksum(&mutant)) continue;
    if (mutant == pristine_) continue;
    ExpectCleanOutcome(mutant, m.label);
  }

  // Fields only the parameter and id-range validation can judge: enum
  // bytes no IndexMode / HashEngine / Measure has (ReadParams), repetition
  // counts FilterFamily::Restore refuses, and a posting-id bound beyond
  // the dataset. A clean outcome is not enough: each must be rejected.
  uint64_t param_offset = 0;
  std::memcpy(&param_offset, pristine_.data() + 32, 8);
  const size_t mode =
      static_cast<size_t>(param_offset) + test::kFrozenParamModeOffset;
  const size_t repetitions = static_cast<size_t>(param_offset) +
                             test::kFrozenParamRepetitionsOffset;
  const std::vector<FieldMutation> rejected = {
      {mode, 17, 1, "mode 17"},
      {mode + 1, 17, 1, "hash engine 17"},
      {mode + 2, 17, 1, "measure 17"},
      {repetitions, 0, 4, "repetitions 0"},
      {repetitions, static_cast<uint32_t>(-5), 4, "repetitions -5"},
      {repetitions, uint64_t{1} << 24, 4, "repetitions 2^24"},
      {static_cast<size_t>(table_offset) + 48, data_.size(), 8,
       "max_id beyond the dataset"},
  };
  for (const FieldMutation& m : rejected) {
    std::string mutant = pristine_;
    std::memcpy(mutant.data() + m.offset, &m.value, m.width);
    ASSERT_TRUE(test::RecomputeFrozenMetaChecksum(&mutant)) << m.label;
    ASSERT_NE(mutant, pristine_) << m.label;
    WriteMutant(mutant);
    ShardedIndex mapped;
    Status s = mapped.MapFrozen(mutant_path_, &data_, &dist_);
    EXPECT_TRUE(s.IsInvalidArgument()) << m.label << ": " << s.ToString();
  }

  // An interior directory entry with the payload checksum recomputed:
  // the default Map checks only the directory's brackets, so it cannot
  // see the damage; verify_payload rebuilds the directory from the keys
  // and must reject.
  const FrozenShardFile::ShardInfo e = test::FrozenShardEntry(pristine_, 0);
  ASSERT_GE(KeyDirectorySize(e.keys_count), 3u);
  const size_t middle = static_cast<size_t>(
      e.directory_offset + KeyDirectorySize(e.keys_count) / 2 * 4);
  std::string mutant = pristine_;
  uint32_t entry = 0;
  std::memcpy(&entry, mutant.data() + middle, sizeof(entry));
  entry = entry < e.keys_count ? entry + 1 : entry - 1;
  std::memcpy(mutant.data() + middle, &entry, sizeof(entry));
  test::RecomputeFrozenPayloadChecksum(&mutant, 0);
  ASSERT_TRUE(test::RecomputeFrozenMetaChecksum(&mutant));
  WriteMutant(mutant);
  EXPECT_TRUE(FrozenShardFile::Map(mutant_path_).ok());
  FrozenMapOptions verify;
  verify.verify_payload = true;
  auto verified = FrozenShardFile::Map(mutant_path_, verify);
  EXPECT_TRUE(verified.status().IsInvalidArgument())
      << verified.status().ToString();
  EXPECT_NE(verified.status().message().find("directory"), std::string::npos)
      << verified.status().ToString();
}

TEST_F(FrozenShardFuzzTest, EmptyAndTinyFiles) {
  ExpectCleanOutcome(std::string(), "empty file");
  ExpectCleanOutcome(std::string("SKF1"), "retired magic only");
  ExpectCleanOutcome(std::string("SKF2"), "magic only");
  ExpectCleanOutcome(std::string(63, '\0'), "one byte short of a header");
  ExpectCleanOutcome(std::string(64, '\0'), "zeroed header");
  ExpectCleanOutcome(pristine_.substr(0, 64), "header only");
}

}  // namespace
}  // namespace skewsearch
