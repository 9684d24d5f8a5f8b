// Copyright 2026 The skewsearch Authors.
// Every cell of the differential oracle (index_oracle.h) at K = 1 and 3,
// one row per configuration: each flavor in each persistence answers as
// the ReferenceIndex does over the same live set, and the cells of one
// state count the same work per query.

#include <gtest/gtest.h>

#include <iterator>
#include <string>

#include "index_oracle.h"

namespace skewsearch {
namespace {

/// The parameter indexes test::kOracleConfigs, so a row's name stays
/// short.
class IndexOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexOracleTest, EveryCellEqualsTheReference) {
  test::IndexOracle oracle(test::kOracleConfigs[GetParam()]);
  for (int k : {1, 3}) oracle.Check(k, test::kEveryCell);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, IndexOracleTest,
    ::testing::Range(0, static_cast<int>(std::size(test::kOracleConfigs))),
    [](const ::testing::TestParamInfo<int>& info) {
      return std::string(test::kOracleConfigs[info.param].name);
    });

}  // namespace
}  // namespace skewsearch
