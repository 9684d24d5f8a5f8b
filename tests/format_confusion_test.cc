// Cross-format confusion: every persisted artifact has its own magic
// (docs/FILE_FORMATS.md, "Magic registry"), so every loader must reject
// every other artifact with a clean non-OK Status — never crash, never
// half-load. The artifacts are the SKS1 binary dataset, the SKF2 frozen
// static index, the SKD2 online index, the SKW1 write-ahead log and an
// SKWJ wire frame; the loaders are ReadBinary, ShardedIndex::MapFrozen,
// DynamicIndex::Load, ReadWal and wire::DecodeFrameHeader.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/dynamic_index.h"
#include "core/sharded_index.h"
#include "data/generators.h"
#include "data/io.h"
#include "distributed/transport/wire.h"
#include "durability/wal.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

const char* const kMagics[] = {"SKS1", "SKF2", "SKD2", "SKW1", "SKWJ"};

class FormatConfusionTest : public ::testing::Test {
 protected:
  /// Writes one artifact of every kind, each at Path(its magic).
  void SetUp() override {
    dist_ = TwoBlockProbabilities(60, 0.25, 1500, 0.01).value();
    Rng rng(7);
    data_ = GenerateDataset(dist_, 80, &rng);
    SkewedIndexOptions index;
    index.mode = IndexMode::kCorrelated;
    index.alpha = 0.7;
    index.repetitions = 3;

    ASSERT_TRUE(WriteBinary(data_, Path("SKS1")).ok());

    ShardedIndex sharded;
    ASSERT_TRUE(sharded.Build(&data_, &dist_, {index, 2}).ok());
    ASSERT_TRUE(sharded.Freeze(Path("SKF2")).ok());

    DynamicIndex dynamic;
    ASSERT_TRUE(dynamic.Build(&data_, &dist_, {index, 2}).ok());
    ASSERT_TRUE(dynamic.Save(Path("SKD2")).ok());

    auto writer = WalWriter::Open(Path("SKW1"), WalWriterOptions{}, 0, 1);
    ASSERT_TRUE(writer.ok());
    WalWriter& log = **writer;
    ASSERT_TRUE(log.Append(WalRecord::Type::kInsert, 80, data_.Get(3)).ok());
    ASSERT_TRUE(log.Sync().ok());

    std::vector<uint8_t> frame;
    wire::AppendFrameHeader(wire::FrameType::kShutdown, 0, wire::kVersionMax,
                            &frame);
    std::ofstream out(Path("SKWJ"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
  }

  std::string Path(const std::string& magic) const {
    return dir_.File(magic);
  }

  /// Reads \p path with the loader of the \p magic artifact.
  Status Load(const std::string& magic, const std::string& path) const {
    if (magic == "SKS1") return ReadBinary(path).status();
    if (magic == "SKF2") {
      ShardedIndex index;
      return index.MapFrozen(path, &data_, &dist_);
    }
    if (magic == "SKD2") {
      DynamicIndex index;
      return index.Load(path, &data_, &dist_);
    }
    if (magic == "SKW1") return ReadWal(path).status();
    std::ifstream in(path, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    if (bytes.size() < wire::kFrameHeaderBytes) {
      return Status::InvalidArgument("shorter than a frame header");
    }
    wire::FrameHeader header;
    return wire::DecodeFrameHeader(bytes, &header);
  }

  test::ScopedTempDir dir_{"format_confusion"};
  ProductDistribution dist_;
  Dataset data_;
};

TEST_F(FormatConfusionTest, EveryLoaderAcceptsItsOwnArtifact) {
  // Without this the rejection matrix below could pass vacuously.
  for (const char* magic : kMagics) {
    Status s = Load(magic, Path(magic));
    EXPECT_TRUE(s.ok()) << magic << ": " << s.ToString();
  }
}

TEST_F(FormatConfusionTest, EveryLoaderRejectsEveryOtherArtifact) {
  for (const char* loader : kMagics) {
    for (const char* artifact : kMagics) {
      if (std::string(loader) == artifact) continue;
      EXPECT_FALSE(Load(loader, Path(artifact)).ok())
          << loader << " loader accepted an " << artifact << " artifact";
    }
  }
}

TEST_F(FormatConfusionTest, EveryLoaderRejectsRetiredFrozenFiles) {
  // SKF1 (frozen shards without a key directory) is retired. Its
  // committed goldens must be rejected by every loader; MapFrozen, given
  // the dataset they were built over, must reject them by their magic.
  const auto dist = TwoBlockProbabilities(90, 0.2, 2500, 0.01).value();
  Rng rng(12345);
  const Dataset golden_data = GenerateDataset(dist, 140, &rng);
  for (const char* golden : {"frozen_single_v1.skf", "frozen_sharded_v1.skf"}) {
    SCOPED_TRACE(golden);
    const std::string path =
        std::string(SKEWSEARCH_TEST_DIR) + "/golden/" + golden;
    ShardedIndex index;
    const Status s = index.MapFrozen(path, &golden_data, &dist);
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.message().find("is not a frozen shard file"),
              std::string::npos)
        << s.ToString();
    for (const char* loader : kMagics) {
      EXPECT_FALSE(Load(loader, path).ok()) << loader << " loader";
    }
  }
}

}  // namespace
}  // namespace skewsearch
