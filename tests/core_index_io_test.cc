// Persistence of a built index through its only file format, SKF2
// (ShardedIndex::Freeze / MapFrozen), at one shard: round trips (their
// cells of the differential oracle, index_oracle.h), and clean rejection
// of wrong datasets, foreign and damaged files. In the test names "Save"
// means Freeze and "Load" means MapFrozen. The two-shard, default-map
// counterpart of the field corruptions here is
// FrozenShardFuzzTest.FieldCorruptionsWithRecomputedChecksum.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/frozen_shard.h"
#include "core/sharded_index.h"
#include "data/generators.h"
#include "frozen_test_util.h"
#include "index_oracle.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::TempPath("index_io", this, ".skf");
    dist_ = TwoBlockProbabilities(150, 0.25, 8000, 0.005).value();
    Rng rng(11);
    data_ = GenerateDataset(dist_, 250, &rng);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  ShardedIndexOptions Options() const {
    ShardedIndexOptions options;
    options.index.mode = IndexMode::kCorrelated;
    options.index.alpha = 0.7;
    options.index.repetitions = 8;
    options.index.seed = 4242;
    options.num_shards = 1;
    return options;
  }

  /// Maps path_ onto the heap with every posting validated (the
  /// strictest read).
  Status HeapLoad(ShardedIndex* index, const Dataset* data) const {
    FrozenMapOptions heap;
    heap.force_heap = true;
    heap.verify_payload = true;
    return index->MapFrozen(path_, data, &dist_, heap);
  }

  std::string path_;
  ProductDistribution dist_;
  Dataset data_;
};

TEST_F(IndexIoTest, SaveRequiresBuiltIndex) {
  ShardedIndex index;
  EXPECT_TRUE(index.Freeze(path_).IsInvalidArgument());
}

// The strictest read of a frozen correlated index holds the build's
// arrays and counters, computes its filter keys and answers as the
// reference does.
TEST_F(IndexIoTest, RoundTripPreservesQueries) {
  test::CheckOracleCells({1}, test::kHeapRead, IndexMode::kCorrelated);
}

TEST_F(IndexIoTest, LoadRejectsDifferentDataset) {
  ShardedIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, Options()).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());

  Rng rng(13);
  Dataset other = GenerateDataset(dist_, 250, &rng);
  ShardedIndex loaded;
  Status s = HeapLoad(&loaded, &other);
  EXPECT_TRUE(s.IsInvalidArgument());
  EXPECT_NE(s.message().find("does not match"), std::string::npos);
}

TEST_F(IndexIoTest, LoadRejectsGarbageFile) {
  std::ofstream out(path_, std::ios::binary);
  out << "this is not an index";
  out.close();
  ShardedIndex loaded;
  EXPECT_TRUE(HeapLoad(&loaded, &data_).IsInvalidArgument());
}

TEST_F(IndexIoTest, LoadRejectsTruncatedFile) {
  ShardedIndex original;
  ASSERT_TRUE(original.Build(&data_, &dist_, Options()).ok());
  ASSERT_TRUE(original.Freeze(path_).ok());
  std::ifstream in(path_, std::ios::binary);
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(contents.data(),
            static_cast<std::streamsize>(contents.size() / 2));
  out.close();
  ShardedIndex loaded;
  EXPECT_FALSE(HeapLoad(&loaded, &data_).ok());
}

TEST_F(IndexIoTest, LoadMissingFileIsIOError) {
  ShardedIndex loaded;
  EXPECT_TRUE(
      loaded.MapFrozen("/nonexistent/index.skf", &data_, &dist_).IsIOError());
}

// The same for an adversarial index.
TEST_F(IndexIoTest, AdversarialRoundTrip) {
  test::CheckOracleCells({1}, test::kHeapRead, IndexMode::kAdversarial);
}

// ---- Negative paths: corruption must produce clean errors, not crashes.

class IndexIoCorruptionTest : public IndexIoTest {
 protected:
  std::string SaveValidIndex() {
    ShardedIndex original;
    EXPECT_TRUE(original.Build(&data_, &dist_, Options()).ok());
    EXPECT_TRUE(original.Freeze(path_).ok());
    std::ifstream in(path_, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(contents.data(),
              static_cast<std::streamsize>(contents.size()));
  }

  Status TryLoad() {
    ShardedIndex loaded;
    return HeapLoad(&loaded, &data_);
  }

  /// Byte offset of \p field within the file's parameter block.
  static size_t ParamField(const std::string& contents, size_t field) {
    uint64_t param_offset = 0;
    std::memcpy(&param_offset, contents.data() + 32, sizeof(param_offset));
    return static_cast<size_t>(param_offset) + field;
  }
};

TEST_F(IndexIoCorruptionTest, RejectsCorruptedMagicVersion) {
  std::string contents = SaveValidIndex();
  for (size_t byte : {size_t{0}, size_t{3}}) {  // vendor byte, version byte
    std::string mutated = contents;
    mutated[byte] = static_cast<char>(mutated[byte] + 1);
    WriteFile(mutated);
    Status s = TryLoad();
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("not a frozen shard file"), std::string::npos);
  }
}

TEST_F(IndexIoCorruptionTest, RejectsWrongDatasetSize) {
  SaveValidIndex();
  for (size_t other_n : {data_.size() / 2, data_.size() + 7}) {
    Rng rng(404 + other_n);
    Dataset other = GenerateDataset(dist_, other_n, &rng);
    ShardedIndex loaded;
    Status s = HeapLoad(&loaded, &other);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("does not match"), std::string::npos);
    EXPECT_FALSE(loaded.built());
  }
}

TEST_F(IndexIoCorruptionTest, RejectsBadEnumFields) {
  std::string contents = SaveValidIndex();
  const size_t mode = ParamField(contents, test::kFrozenParamModeOffset);
  for (size_t offset : {mode, mode + 1, mode + 2}) {
    std::string mutated = contents;
    mutated[offset] = 17;  // no IndexMode/HashEngine/Measure has this value
    ASSERT_TRUE(test::RecomputeFrozenMetaChecksum(&mutated));
    WriteFile(mutated);
    Status s = TryLoad();
    EXPECT_TRUE(s.IsInvalidArgument()) << "offset " << offset;
    // The parameter validation objects, not the checksum.
    EXPECT_EQ(s.message().find("checksum"), std::string::npos)
        << s.ToString();
  }
}

TEST_F(IndexIoCorruptionTest, RejectsInsaneRepetitionCounts) {
  std::string contents = SaveValidIndex();
  const size_t offset =
      ParamField(contents, test::kFrozenParamRepetitionsOffset);
  for (int32_t bad : {0, -5, 1 << 24}) {
    std::string mutated = contents;
    std::memcpy(&mutated[offset], &bad, sizeof(bad));
    ASSERT_TRUE(test::RecomputeFrozenMetaChecksum(&mutated));
    WriteFile(mutated);
    Status s = TryLoad();
    EXPECT_TRUE(s.IsInvalidArgument()) << "repetitions=" << bad << ": "
                                       << s.ToString();
    EXPECT_EQ(s.message().find("checksum"), std::string::npos)
        << s.ToString();
  }
}

TEST_F(IndexIoCorruptionTest, RejectsOutOfRangePostingIds) {
  std::string contents = SaveValidIndex();
  // Smash the shard's last posting id to one far beyond the dataset and
  // fix up everything that records it (the shard's max_id, its payload
  // checksum, the metadata checksum). Structural and checksum checks
  // can't see this; only the id-range validation can.
  uint64_t table_offset = 0;
  std::memcpy(&table_offset, contents.data() + 48, sizeof(table_offset));
  FrozenShardFile::ShardInfo entry = test::FrozenShardEntry(contents, 0);
  ASSERT_GT(entry.ids_count, 0u);
  const VectorId bad_id = 0xfffffff0u;
  std::memcpy(contents.data() + entry.ids_offset +
                  (entry.ids_count - 1) * sizeof(VectorId),
              &bad_id, sizeof(bad_id));
  entry.max_id = bad_id;
  std::memcpy(contents.data() + table_offset, &entry, sizeof(entry));
  test::RecomputeFrozenPayloadChecksum(&contents, 0);
  ASSERT_TRUE(test::RecomputeFrozenMetaChecksum(&contents));
  WriteFile(contents);
  Status s = TryLoad();
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(s.message().find("beyond the dataset"), std::string::npos);
}

TEST_F(IndexIoCorruptionTest, TruncationSweepNeverCrashes) {
  std::string contents = SaveValidIndex();
  // Every header prefix, then strides through the rest of the file.
  std::vector<size_t> cuts;
  for (size_t k = 0; k < std::min<size_t>(80, contents.size()); ++k) {
    cuts.push_back(k);
  }
  for (size_t k = 80; k < contents.size(); k += contents.size() / 23 + 1) {
    cuts.push_back(k);
  }
  cuts.push_back(contents.size() - 1);
  for (size_t keep : cuts) {
    WriteFile(contents.substr(0, keep));
    EXPECT_FALSE(TryLoad().ok()) << "prefix of " << keep << " bytes";
  }
}

}  // namespace
}  // namespace skewsearch
