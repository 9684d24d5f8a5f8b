// Copyright 2026 The skewsearch Authors.
// Differential fuzz tests for the flat posting containers: long random
// op sequences (insert / emplace / operator[] / erase / clear / reserve)
// executed side by side against the std::unordered oracle, asserting
// identical contents after every phase. Backward-shift deletion and the
// power-of-two probe window are exactly the kind of code that fails only
// on adversarial histories, so the histories are random and long.

#include "util/containers.h"

#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include <gtest/gtest.h>

#include "util/random.h"

namespace skewsearch {
namespace {

using Oracle = std::unordered_map<uint64_t, uint64_t>;

void ExpectSameContents(const FlatHashMap<uint64_t, uint64_t>& map,
                        const Oracle& oracle) {
  ASSERT_EQ(map.size(), oracle.size());
  for (const auto& [key, value] : oracle) {
    auto it = map.find(key);
    ASSERT_NE(it, map.end()) << "missing key " << key;
    EXPECT_EQ(it->second, value);
  }
  // The reverse direction: everything the map iterates exists in the
  // oracle (catches ghost slots left by a broken erase).
  size_t seen = 0;
  for (const auto& entry : map) {
    auto it = oracle.find(entry.first);
    ASSERT_NE(it, oracle.end()) << "ghost key " << entry.first;
    EXPECT_EQ(entry.second, it->second);
    ++seen;
  }
  EXPECT_EQ(seen, oracle.size());
}

TEST(FlatContainersTest, MapFuzzAgainstStdOracle) {
  Rng rng(2024);
  FlatHashMap<uint64_t, uint64_t> map;
  Oracle oracle;
  // Small key space forces constant insert/erase collisions on the same
  // probe windows — the backward-shift stress case.
  const uint64_t key_space = 512;
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng.NextBounded(key_space);
    switch (rng.NextBounded(8)) {
      case 0:
      case 1:
      case 2: {  // operator[] upsert
        const uint64_t value = rng.NextUint64();
        map[key] = value;
        oracle[key] = value;
        break;
      }
      case 3: {  // emplace keeps the existing value
        auto [it, inserted] = map.emplace(key, step);
        auto [oit, oinserted] = oracle.emplace(key, step);
        EXPECT_EQ(inserted, oinserted);
        EXPECT_EQ(it->second, oit->second);
        break;
      }
      case 4:
      case 5: {  // erase
        EXPECT_EQ(map.erase(key), oracle.erase(key));
        break;
      }
      case 6: {  // point lookups
        EXPECT_EQ(map.contains(key), oracle.count(key) > 0);
        EXPECT_EQ(map.count(key), oracle.count(key));
        break;
      }
      default: {  // insert (no overwrite)
        auto [it, inserted] = map.insert({key, step + 7u});
        auto [oit, oinserted] = oracle.insert({key, step + 7u});
        EXPECT_EQ(inserted, oinserted);
        EXPECT_EQ(it->second, oit->second);
        break;
      }
    }
    if (step % 4096 == 0) ExpectSameContents(map, oracle);
  }
  ExpectSameContents(map, oracle);

  map.clear();
  oracle.clear();
  ExpectSameContents(map, oracle);
  map.reserve(1000);
  for (uint64_t k = 0; k < 1000; ++k) {
    map[k] = k * k;
    oracle[k] = k * k;
  }
  ExpectSameContents(map, oracle);
  EXPECT_GT(map.MemoryBytes(), 0u);
}

TEST(FlatContainersTest, SetFuzzAgainstStdOracle) {
  Rng rng(4096);
  FlatHashSet<uint32_t> set;
  std::unordered_set<uint32_t> oracle;
  for (int step = 0; step < 20000; ++step) {
    const uint32_t key = static_cast<uint32_t>(rng.NextBounded(300));
    switch (rng.NextBounded(4)) {
      case 0:
      case 1: {
        auto [it, inserted] = set.insert(key);
        EXPECT_EQ(inserted, oracle.insert(key).second);
        EXPECT_EQ(*it, key);
        break;
      }
      case 2:
        EXPECT_EQ(set.erase(key), oracle.erase(key));
        break;
      default:
        EXPECT_EQ(set.contains(key), oracle.count(key) > 0);
        break;
    }
  }
  ASSERT_EQ(set.size(), oracle.size());
  for (uint32_t k : oracle) EXPECT_TRUE(set.contains(k));
  size_t seen = 0;
  for (uint32_t k : set) {
    EXPECT_TRUE(oracle.count(k) > 0);
    ++seen;
  }
  EXPECT_EQ(seen, oracle.size());
}

TEST(FlatContainersTest, CopyAndMoveSemantics) {
  FlatHashMap<uint64_t, uint64_t> map;
  for (uint64_t k = 0; k < 100; ++k) map[k] = k + 1;
  FlatHashMap<uint64_t, uint64_t> copy = map;  // COW registries clone maps
  map.erase(5);
  EXPECT_TRUE(copy.contains(5));
  EXPECT_EQ(copy.size(), 100u);
  FlatHashMap<uint64_t, uint64_t> moved = std::move(copy);
  EXPECT_EQ(moved.size(), 100u);
  EXPECT_EQ(moved.find(42)->second, 43u);
}

}  // namespace
}  // namespace skewsearch
