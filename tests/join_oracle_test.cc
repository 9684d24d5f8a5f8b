// Copyright 2026 The skewsearch Authors.
// Every cell of the join oracle (join_oracle.h), one row per
// configuration: each plan, build, serving, fault and join returns the
// reference join's pairs, and a cell without a kill does the reference
// pairing's work. The suite name starts with "Distributed" so
// CI's TSan selection picks it up.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "join_oracle.h"

namespace skewsearch {
namespace {

/// The parameter indexes test::kJoinOracleConfigs, so a row's name is
/// the configuration's in every build.
class DistributedJoinOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedJoinOracleTest, EveryCellEqualsTheReference) {
  test::JoinOracle(test::kJoinOracleConfigs[GetParam()])
      .Check(test::kEveryJoinCell);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, DistributedJoinOracleTest,
    ::testing::Range(0,
                     static_cast<int>(std::size(test::kJoinOracleConfigs))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(test::kJoinOracleConfigs[info.param].name);
    });

}  // namespace
}  // namespace skewsearch
