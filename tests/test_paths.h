// Copyright 2026 The skewsearch Authors.
// Shared file helpers for test fixtures: temp paths and committed
// goldens.
//
// Tests that write files must not collide across concurrently running
// test processes (ctest -j) or across fixtures inside one process. The
// convention — TempDir + pid + the fixture's own address — makes a path
// unique per (process, fixture instance); every fixture that touches
// disk uses it instead of hand-rolling the pattern.
//
// A golden under tests/golden/ pins the exact bytes of a file format.
// Regenerate one with SKEWSEARCH_REGEN_GOLDEN=1 only after a deliberate
// format change, and update docs/FILE_FORMATS.md with it.

#ifndef SKEWSEARCH_TESTS_TEST_PATHS_H_
#define SKEWSEARCH_TESTS_TEST_PATHS_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <system_error>

namespace skewsearch {
namespace test {

/// A collision-free temp file path "<TempDir>/<stem>_<pid>_<self><suffix>".
/// Pass the fixture's `this` as \p self; \p suffix is the extension
/// (e.g. ".skidx") or empty.
inline std::string TempPath(const std::string& stem, const void* self,
                            const std::string& suffix = "") {
  return ::testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(reinterpret_cast<uintptr_t>(self)) + suffix;
}

/// A collision-free temp *directory* (same uniqueness convention as
/// TempPath, keyed on the helper's own address), created on
/// construction and removed recursively — contents included — on
/// destruction. For fixtures that need a directory of files (WAL +
/// snapshot dirs) rather than a single path.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& stem)
      : path_(TempPath(stem, this)) {
    std::filesystem::create_directories(path_);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);  // best effort
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

  /// "<dir>/<name>" convenience join.
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// The bytes of the file at \p path; empty when it cannot be read.
inline std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// The committed golden \p name under tests/golden/.
inline std::string GoldenPath(const std::string& name) {
  return std::string(SKEWSEARCH_TEST_DIR) + "/golden/" + name;
}

/// Expects the file at \p path to equal golden \p name byte for byte,
/// or, when SKEWSEARCH_REGEN_GOLDEN is set, (re)writes the golden from
/// it and skips the test.
inline void CheckGolden(const std::string& path, const std::string& name) {
  const std::string golden_path = GoldenPath(name);
  const std::string fresh = FileBytes(path);
  ASSERT_FALSE(fresh.empty());
  if (std::getenv("SKEWSEARCH_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary | std::ios::trunc);
    out << fresh;
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  const std::string golden = FileBytes(golden_path);
  ASSERT_FALSE(golden.empty())
      << golden_path
      << " missing; run with SKEWSEARCH_REGEN_GOLDEN=1 to create it";
  EXPECT_EQ(fresh.size(), golden.size()) << name;
  EXPECT_TRUE(fresh == golden)
      << name << ": saved bytes diverge from the committed golden";
}

}  // namespace test
}  // namespace skewsearch

#endif  // SKEWSEARCH_TESTS_TEST_PATHS_H_
