#include "core/inverted_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/frozen_shard.h"
#include "hashing/mix.h"
#include "test_paths.h"
#include "util/random.h"

namespace skewsearch {
namespace {

TEST(FilterTableTest, EmptyTable) {
  const FilterTable table = FilterTable::Build({});
  EXPECT_EQ(table.num_pairs(), 0u);
  EXPECT_EQ(table.num_keys(), 0u);
  EXPECT_TRUE(table.Lookup(42).empty());
}

TEST(FilterTableTest, SingleKey) {
  const FilterTable table = FilterTable::Build({{7, 1}, {7, 3}, {7, 2}});
  auto postings = table.Lookup(7);
  EXPECT_EQ(std::vector<VectorId>(postings.begin(), postings.end()),
            (std::vector<VectorId>{1, 2, 3}));
  EXPECT_TRUE(table.Lookup(8).empty());
  EXPECT_EQ(table.num_keys(), 1u);
  EXPECT_EQ(table.num_pairs(), 3u);
}

TEST(FilterTableTest, MultipleKeysSortedLookups) {
  const FilterTable table =
      FilterTable::Build({{100, 5}, {1, 0}, {50, 9}, {1, 4}});
  EXPECT_EQ(table.num_keys(), 3u);
  EXPECT_EQ(table.Lookup(1).size(), 2u);
  EXPECT_EQ(table.Lookup(50).size(), 1u);
  EXPECT_EQ(table.Lookup(100)[0], 5u);
  EXPECT_TRUE(table.Lookup(0).empty());
  EXPECT_TRUE(table.Lookup(101).empty());
  EXPECT_TRUE(table.Lookup(51).empty());
}

TEST(FilterTableTest, DuplicatePairsKept) {
  // The same (key, id) may be added twice (an element can choose the same
  // path in... it cannot within one repetition, but the table must not
  // assume it). Both entries survive.
  const FilterTable table = FilterTable::Build({{9, 2}, {9, 2}});
  EXPECT_EQ(table.Lookup(9).size(), 2u);
}

// ---------------------------------------------------------------------
// The table-level differential: every way a frozen table comes to exist
// (rows) over every key shape must answer like a std::multimap.

using Pairs = std::vector<std::pair<uint64_t, VectorId>>;

struct KeyShape {
  const char* name;
  Pairs pairs;
};

std::vector<KeyShape> KeyShapes() {
  std::vector<KeyShape> shapes;
  Rng rng(11);
  Pairs uniform;
  for (int i = 0; i < 5000; ++i) {
    uniform.emplace_back(Mix64(rng.NextBounded(3000)),
                         static_cast<VectorId>(rng.NextBounded(100)));
  }
  shapes.push_back({"uniform Mix64 keys", std::move(uniform)});
  Pairs small;  // every key's top bits are zero: one bucket holds all
  for (uint64_t k = 0; k < 1000; ++k) {
    small.emplace_back(k, static_cast<VectorId>(k % 97));
  }
  shapes.push_back({"keys 0..999", std::move(small)});
  shapes.push_back({"0 and UINT64_MAX", {{0, 1}, {UINT64_MAX, 2}, {0, 3}}});
  shapes.push_back({"duplicate pairs",
                    {{Mix64(1), 4}, {Mix64(1), 4}, {Mix64(2), 5},
                     {Mix64(2), 6}, {Mix64(2), 5}}});
  shapes.push_back({"empty", {}});
  shapes.push_back({"single key", {{Mix64(9), 7}}});
  // Build scatters pairs by their keys' top bits: keys 0..499 (four ids
  // each) crowd the first bucket among 2,000 uniform keys, and ids
  // staged in descending order leave each bucket's (key, id) sort all
  // the ordering to do.
  Pairs crowded;
  for (uint64_t k = 0; k < 2000; ++k) {
    crowded.emplace_back(Mix64(k + 1), 0);
    crowded.emplace_back(k % 500, 0);
  }
  for (size_t i = 0; i < crowded.size(); ++i) {
    crowded[i].second = static_cast<VectorId>(crowded.size() - i);
  }
  shapes.push_back({"crowded bucket, descending ids", std::move(crowded)});
  return shapes;
}

/// A table's posting list for \p key, per the multimap: ids ascending.
std::vector<VectorId> Expected(const std::multimap<uint64_t, VectorId>& ref,
                               uint64_t key) {
  std::vector<VectorId> ids;
  auto [first, last] = ref.equal_range(key);
  for (auto it = first; it != last; ++it) ids.push_back(it->second);
  std::sort(ids.begin(), ids.end());
  return ids;
}

void ExpectMatchesReference(const FilterTable& table,
                            const std::multimap<uint64_t, VectorId>& ref) {
  ASSERT_TRUE(table.frozen());
  EXPECT_EQ(table.num_pairs(), ref.size());

  // The positional walk: ascending distinct keys, each with its ids.
  std::vector<uint64_t> keys;
  for (auto it = ref.begin(); it != ref.end();
       it = ref.upper_bound(it->first)) {
    keys.push_back(it->first);
  }
  ASSERT_EQ(table.num_keys(), keys.size());
  for (size_t k = 0; k < keys.size(); ++k) {
    ASSERT_EQ(table.key_at(k), keys[k]) << "position " << k;
    auto postings = table.postings_at(k);
    EXPECT_EQ(std::vector<VectorId>(postings.begin(), postings.end()),
              Expected(ref, keys[k]))
        << "position " << k;
  }

  // The directory: entry i is the first key whose top b bits are >= i.
  const int bits = KeyDirectoryBits(keys.size());
  auto directory = table.directory_span();
  ASSERT_EQ(directory.size(), KeyDirectorySize(keys.size()));
  for (size_t i = 0; i < directory.size(); ++i) {
    const auto first = std::partition_point(
        keys.begin(), keys.end(),
        [&](uint64_t key) { return KeyBucket(key, bits) < i; });
    EXPECT_EQ(directory[i], static_cast<size_t>(first - keys.begin()))
        << "directory entry " << i;
  }

  // Lookups: every present key, its absent neighbours, a key in every
  // empty bucket, and both ends of the key space.
  std::vector<uint64_t> probes = {0, UINT64_MAX};
  for (uint64_t key : keys) {
    probes.insert(probes.end(), {key, key - 1, key + 1});
  }
  for (size_t i = 0; i + 1 < directory.size(); ++i) {
    if (bits > 0 && directory[i] == directory[i + 1]) {
      probes.push_back((uint64_t{i} << (64 - bits)) + 12345);
    }
  }
  for (uint64_t probe : probes) {
    auto postings = table.Lookup(probe);
    EXPECT_EQ(std::vector<VectorId>(postings.begin(), postings.end()),
              Expected(ref, probe))
        << "lookup " << probe;
  }
}

class FilterTableSources {
 public:
  explicit FilterTableSources(const void* self)
      : path_(test::TempPath("filter_table", self, ".skf")) {}
  ~FilterTableSources() { std::remove(path_.c_str()); }

  /// The rows: \p built (a Build() table) reached another way.
  std::vector<std::pair<std::string, FilterTable>> Rows(
      const FilterTable& built) {
    std::vector<std::pair<std::string, FilterTable>> rows;
    rows.emplace_back("Build", built);

    std::stringstream buffer;
    EXPECT_TRUE(built.WriteTo(&buffer).ok());
    const std::string streamed = buffer.str();
    FilterTable read;
    EXPECT_TRUE(read.ReadFrom(&buffer).ok());
    rows.emplace_back("WriteTo + ReadFrom", read);

    rows.emplace_back("mapped", View(built, {}));
    FrozenMapOptions heap;
    heap.force_heap = true;
    heap.verify_payload = true;
    rows.emplace_back("force_heap", View(built, heap));

    FilterTable copy;
    {
      FilterTable source;  // the only owner of its arrays
      std::stringstream again(streamed);
      EXPECT_TRUE(source.ReadFrom(&again).ok());
      copy = source;
    }
    rows.emplace_back("copy of a dropped heap table", copy);
    {
      FilterTable view = View(built, {});
      copy = view;
    }
    std::remove(path_.c_str());  // the mapping outlives the file's name
    rows.emplace_back("copy of a dropped view", copy);
    return rows;
  }

 private:
  /// Writes \p built as a one-shard frozen file and returns a view of it
  /// whose FrozenShardFile handle is already dropped.
  FilterTable View(const FilterTable& built, const FrozenMapOptions& options) {
    const FilterTable* shards[] = {&built};
    EXPECT_TRUE(WriteFrozenShards(path_, SkewedIndexOptions{}, 0.5,
                                  IndexBuildStats{}, 0, shards)
                    .ok());
    auto file = FrozenShardFile::Map(path_, options);
    EXPECT_TRUE(file.ok()) << file.status().ToString();
    if (!file.ok()) return FilterTable();
    Result<FilterTable> view = (*file)->MakeShardView(0);
    EXPECT_TRUE(view.ok());
    return view.ok() ? std::move(view).value() : FilterTable();
  }

  std::string path_;
};

TEST(FilterTableTest, PropertyMatchesReferenceMultimap) {
  FilterTableSources sources(this);
  for (const KeyShape& shape : KeyShapes()) {
    std::multimap<uint64_t, VectorId> reference;
    std::vector<Posting> postings;
    for (const auto& [key, id] : shape.pairs) {
      postings.push_back({key, id});
      reference.emplace(key, id);
    }
    const FilterTable built = FilterTable::Build(std::move(postings));
    for (const auto& [row, table] : sources.Rows(built)) {
      SCOPED_TRACE(std::string(shape.name) + " / " + row);
      ExpectMatchesReference(table, reference);
    }
  }
}

TEST(FilterTableTest, MemoryBytesPositiveAfterFreeze) {
  std::vector<Posting> postings;
  for (uint64_t k = 0; k < 100; ++k) {
    postings.push_back({k, static_cast<VectorId>(k)});
  }
  const FilterTable table = FilterTable::Build(std::move(postings));
  EXPECT_GT(table.MemoryBytes(), 100 * sizeof(uint64_t));
  EXPECT_EQ(FilterTable().MemoryBytes(), 0u);
}

TEST(FilterTableTest, EmptyFrozenTableStaysEmptyAndFrozen) {
  // A built table with zero pairs must not be mistaken for a
  // default-constructed one (an ids_.empty() test could not tell them
  // apart).
  EXPECT_FALSE(FilterTable().frozen());
  const FilterTable table = FilterTable::Build({});
  EXPECT_TRUE(table.frozen());
  EXPECT_EQ(table.num_pairs(), 0u);
  EXPECT_EQ(table.num_keys(), 0u);
  EXPECT_TRUE(table.Lookup(0).empty());
}

TEST(FilterTableTest, FrozenMemoryBytesMatchesSerializedCopy) {
  // The footprint must not depend on how the table came to exist: a
  // fresh Build() and a ReadFrom() round-trip of the same table report
  // the same MemoryBytes().
  std::vector<Posting> postings;
  Rng rng(23);
  for (int i = 0; i < 4096; ++i) {
    postings.push_back({rng.NextBounded(700),
                        static_cast<VectorId>(rng.NextBounded(99))});
  }
  const FilterTable table = FilterTable::Build(std::move(postings));
  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  FilterTable loaded;
  ASSERT_TRUE(loaded.ReadFrom(&buffer).ok());
  EXPECT_TRUE(loaded.frozen());
  EXPECT_EQ(loaded.num_pairs(), table.num_pairs());
  EXPECT_EQ(loaded.num_keys(), table.num_keys());
  EXPECT_EQ(loaded.MemoryBytes(), table.MemoryBytes());
}

TEST(FilterTableTest, SerializationRoundTrip) {
  Rng rng(21);
  std::vector<Posting> postings;
  for (int i = 0; i < 2000; ++i) {
    postings.push_back({rng.NextBounded(300),
                        static_cast<VectorId>(rng.NextBounded(64))});
  }
  const FilterTable table = FilterTable::Build(std::move(postings));

  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  FilterTable loaded;
  ASSERT_TRUE(loaded.ReadFrom(&buffer).ok());
  EXPECT_EQ(loaded.num_keys(), table.num_keys());
  EXPECT_EQ(loaded.num_pairs(), table.num_pairs());
  for (uint64_t key = 0; key < 310; ++key) {
    auto a = table.Lookup(key);
    auto b = loaded.Lookup(key);
    ASSERT_EQ(a.size(), b.size()) << key;
    for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  }
}

TEST(FilterTableTest, SerializationRejectsCorruption) {
  const FilterTable table = FilterTable::Build({{1, 2}, {3, 4}});
  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  std::string payload = buffer.str();

  // Truncated stream.
  std::stringstream truncated(payload.substr(0, payload.size() / 2));
  FilterTable loaded;
  EXPECT_TRUE(loaded.ReadFrom(&truncated).IsInvalidArgument());

  // Flipped byte inside the key array breaks the sorted-keys invariant.
  std::string corrupt = payload;
  corrupt[9] = static_cast<char>(0xff);
  std::stringstream corrupted(corrupt);
  EXPECT_FALSE(loaded.ReadFrom(&corrupted).ok());

  // Null stream argument.
  EXPECT_TRUE(loaded.ReadFrom(nullptr).IsInvalidArgument());
  EXPECT_TRUE(table.WriteTo(nullptr).IsInvalidArgument());

  // Offsets that overrun the ids: keys {10, 20}, offsets [0, 1, 3] and 3
  // ids, with offsets[1] patched to 7. Only the last adjacent pair,
  // offsets[1] > offsets[2], shows it.
  const FilterTable two = FilterTable::Build({{10, 1}, {20, 2}, {20, 3}});
  std::stringstream two_buffer;
  ASSERT_TRUE(two.WriteTo(&two_buffer).ok());
  std::string overrun = two_buffer.str();
  const size_t offset1 = 8 + 2 * sizeof(uint64_t) + 8 + sizeof(uint32_t);
  uint32_t patched = 0;
  std::memcpy(&patched, overrun.data() + offset1, sizeof(patched));
  ASSERT_EQ(patched, 1u);
  patched = 7;
  std::memcpy(overrun.data() + offset1, &patched, sizeof(patched));
  std::stringstream overrun_stream(overrun);
  EXPECT_TRUE(loaded.ReadFrom(&overrun_stream).IsInvalidArgument());
}

TEST(FilterTableTest, EmptyTableSerializationRoundTrip) {
  const FilterTable table = FilterTable::Build({});
  std::stringstream buffer;
  ASSERT_TRUE(table.WriteTo(&buffer).ok());
  FilterTable loaded;
  ASSERT_TRUE(loaded.ReadFrom(&buffer).ok());
  EXPECT_EQ(loaded.num_keys(), 0u);
  EXPECT_TRUE(loaded.Lookup(0).empty());
}

}  // namespace
}  // namespace skewsearch
