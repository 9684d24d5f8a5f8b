#include "cli/cli.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "data/io.h"
#include "test_paths.h"

namespace skewsearch {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = test::TempPath("cli_test", this);
    text_ = path_ + ".txt";
    bin_ = path_ + ".bin";
  }
  void TearDown() override {
    std::remove(text_.c_str());
    std::remove(bin_.c_str());
  }
  std::string path_, text_, bin_;
};

TEST_F(CliTest, HelpSucceeds) {
  EXPECT_EQ(RunCli({"help"}), 0);
}

TEST_F(CliTest, EmptyArgsFail) {
  EXPECT_EQ(RunCli({}), 1);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(RunCli({"frobnicate"}), 1);
}

TEST_F(CliTest, MalformedFlagsFail) {
  EXPECT_EQ(RunCli({"generate", "positional"}), 1);
  EXPECT_EQ(RunCli({"generate", "--n"}), 1);  // missing value
}

TEST_F(CliTest, GenerateRequiresOut) {
  EXPECT_EQ(RunCli({"generate", "--kind", "uniform", "--n", "10", "--d",
                    "20", "--p", "0.2"}),
            1);
}

TEST_F(CliTest, GenerateWritesReadableDataset) {
  ASSERT_EQ(RunCli({"generate", "--kind", "uniform", "--n", "50", "--d",
                    "100", "--p", "0.2", "--seed", "3", "--out", text_}),
            0);
  auto data = ReadTransactions(text_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 50u);
  EXPECT_NEAR(data->AverageSize(), 20.0, 4.0);
}

TEST_F(CliTest, GenerateUnknownKindFails) {
  EXPECT_EQ(RunCli({"generate", "--kind", "cauchy", "--out", text_}), 1);
}

TEST_F(CliTest, GenerateBinaryRoundTrip) {
  ASSERT_EQ(RunCli({"generate", "--kind", "zipf", "--n", "80", "--d", "500",
                    "--avg", "8", "--out", bin_, "--binary"}),
            0);
  auto data = ReadBinary(bin_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 80u);
}

TEST_F(CliTest, ProfileOnGeneratedData) {
  ASSERT_EQ(RunCli({"generate", "--kind", "zipf", "--n", "200", "--d",
                    "1000", "--avg", "10", "--out", text_}),
            0);
  EXPECT_EQ(RunCli({"profile", "--in", text_}), 0);
}

TEST_F(CliTest, ProfileMissingFileFails) {
  EXPECT_EQ(RunCli({"profile", "--in", "/nonexistent/nope.txt"}), 1);
  EXPECT_EQ(RunCli({"profile"}), 1);
}

TEST_F(CliTest, IndependenceOnGeneratedData) {
  ASSERT_EQ(RunCli({"generate", "--kind", "uniform", "--n", "300", "--d",
                    "60", "--p", "0.2", "--out", text_}),
            0);
  EXPECT_EQ(RunCli({"independence", "--in", text_}), 0);
}

TEST_F(CliTest, QueryBenchRuns) {
  ASSERT_EQ(RunCli({"generate", "--kind", "twoblock", "--n", "200", "--d",
                    "80", "--p", "0.25", "--d2", "2000", "--p2", "0.01",
                    "--out", text_}),
            0);
  EXPECT_EQ(RunCli({"query-bench", "--in", text_, "--alpha", "0.8",
                    "--queries", "10"}),
            0);
}

TEST_F(CliTest, SelfJoinRuns) {
  ASSERT_EQ(RunCli({"generate", "--kind", "uniform", "--n", "120", "--d",
                    "400", "--p", "0.05", "--out", text_}),
            0);
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.8"}), 0);
}

TEST_F(CliTest, SelfJoinFrozenReportsTheWorkersThatRan) {
  // --frozen serves one worker per stored shard, whatever --workers says.
  ASSERT_EQ(RunCli({"generate", "--kind", "uniform", "--n", "120", "--d",
                    "400", "--p", "0.05", "--out", text_}),
            0);
  const std::string frozen = path_ + ".skf";
  ASSERT_EQ(RunCli({"freeze", "--in", text_, "--out", frozen, "--b1", "0.8",
                    "--shards", "3"}),
            0);
  auto stdout_of = [](const std::vector<std::string>& args) {
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(RunCli(args), 0);
    return ::testing::internal::GetCapturedStdout();
  };
  const std::string plain =
      stdout_of({"selfjoin", "--in", text_, "--b1", "0.8", "--frozen", frozen});
  const std::string with_workers =
      stdout_of({"selfjoin", "--in", text_, "--b1", "0.8", "--frozen", frozen,
                 "--workers", "5"});
  EXPECT_NE(plain.find("join engine: 3 worker(s)"), std::string::npos)
      << plain;
  EXPECT_NE(with_workers.find("join engine: 3 worker(s)"), std::string::npos)
      << with_workers;
  std::remove(frozen.c_str());
}

TEST_F(CliTest, QueryBenchOnlineWithMaintenanceRuns) {
  ASSERT_EQ(RunCli({"generate", "--kind", "twoblock", "--n", "200", "--d",
                    "80", "--p", "0.25", "--d2", "2000", "--p2", "0.01",
                    "--out", text_}),
            0);
  // Manual maintenance drive: churn forces tombstones, the flushed
  // RunOnce compacts, a tight drift factor forces a live rebuild.
  EXPECT_EQ(RunCli({"query-bench", "--in", text_, "--alpha", "0.8",
                    "--queries", "10", "--shards", "2", "--online",
                    "--maintenance", "0", "--dead-ratio", "0.1",
                    "--drift-factor", "1.05", "--churn", "60"}),
            0);
  // Background thread on (the default when any maintenance flag is set).
  EXPECT_EQ(RunCli({"query-bench", "--in", text_, "--alpha", "0.8",
                    "--queries", "10", "--churn", "40"}),
            0);
}

TEST_F(CliTest, QueryBenchWithoutQueriesPrintsNoRatios) {
  ASSERT_EQ(RunCli({"generate", "--kind", "twoblock", "--n", "200", "--d",
                    "80", "--p", "0.25", "--d2", "2000", "--p2", "0.01",
                    "--out", text_}),
            0);
  // Zero queries have no recall, candidates or latency to average, on
  // either index type.
  for (bool online : {false, true}) {
    std::vector<std::string> args = {"query-bench", "--in",     text_,
                                     "--alpha",     "0.8",      "--queries",
                                     "0"};
    if (online) args.insert(args.end(), {"--online", "--maintenance", "0"});
    ::testing::internal::CaptureStdout();
    EXPECT_EQ(RunCli(args), 0);
    const std::string out = ::testing::internal::GetCapturedStdout();
    EXPECT_NE(out.find("queries: 0\n"), std::string::npos) << out;
    // A NaN prints as "nan" or "-nan" ("maintenance" holds "nan" too).
    EXPECT_EQ(out.find(" nan"), std::string::npos) << out;
    EXPECT_EQ(out.find("-nan"), std::string::npos) << out;
  }
}

TEST_F(CliTest, FlagsACommandDoesNotTakeFail) {
  // Each command declares its flags, so a typo or a retired flag fails
  // instead of running with the default.
  ASSERT_EQ(RunCli({"generate", "--kind", "uniform", "--n", "120", "--d",
                    "400", "--p", "0.05", "--out", text_}),
            0);
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.6", "--worker",
                    "4"}),
            1);
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.6", "--online"}),
            1);
  // Churn and durability are query-bench's; selfjoin only joins.
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.6", "--shards",
                    "4"}),
            1);
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.6", "--churn",
                    "80"}),
            1);
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.6", "--wal",
                    path_ + ".wal"}),
            1);
  EXPECT_EQ(RunCli({"profile", "--in", text_, "--alpha", "0.8"}), 1);
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.6", "--workers",
                    "4"}),
            0);
}

TEST_F(CliTest, DumpsThatFailToWriteFail) {
  // /dev/full accepts the open and refuses the bytes: a dump the smoke
  // scripts would diff must not report success when nothing landed.
  ASSERT_EQ(RunCli({"generate", "--kind", "zipf", "--n", "300", "--d",
                    "300", "--p", "0.9", "--exp", "1.2", "--avg", "8",
                    "--seed", "7", "--out", text_}),
            0);
  EXPECT_EQ(RunCli({"selfjoin", "--in", text_, "--b1", "0.6",
                    "--dump-pairs", "/dev/full"}),
            1);
  EXPECT_EQ(RunCli({"query-bench", "--in", text_, "--alpha", "0.8",
                    "--queries", "10", "--online", "--maintenance", "0",
                    "--dump-matches", "/dev/full"}),
            1);
}

TEST_F(CliTest, MannStandInWorks) {
  EXPECT_EQ(RunCli({"mann", "--name", "DBLP", "--n", "300", "--out", text_}),
            0);
  auto data = ReadTransactions(text_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 300u);
}

TEST_F(CliTest, MannUnknownNameFails) {
  EXPECT_EQ(RunCli({"mann", "--name", "NOPE", "--out", text_}), 1);
}

TEST_F(CliTest, GarbageNumericFlagsFallBackInsteadOfThrowing) {
  // Malformed numbers must not escape as exceptions; defaults kick in.
  EXPECT_EQ(RunCli({"generate", "--kind", "uniform", "--n", "banana",
                    "--d", "50", "--p", "0.2", "--out", text_}),
            0);
  auto data = ReadTransactions(text_);
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->size(), 10000u);  // the documented default n
}

}  // namespace
}  // namespace skewsearch
