//===- tests/PaperTablesTests.cpp - Pinned paper Table 3/4 counts ---------===//
//
// The runtime columns of paper Tables 3 and 4 (EXPERIMENTS.md) come from
// deterministic counts: decisions covered, average and maximum lookahead,
// average speculation depth, potentially/actually backtracking decisions,
// decision events and backtracking rates. Any change to prediction moves
// at least one of them, so they are pinned here for the six bench
// grammars. The timing columns are left to the benches.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace llstar;

namespace {

TEST(PaperTables, RuntimeCountsMatchGolden) {
  std::string Path =
      std::string(LLSTAR_SOURCE_DIR) + "/tests/golden/paper_tables.txt";
  std::ifstream In(Path);
  ASSERT_TRUE(In) << Path;
  std::ostringstream Want;
  Want << In.rdbuf();
  EXPECT_EQ(bench::paperCountsTable(), Want.str())
      << "to re-pin after an intended change, replace " << Path
      << " with the text above";
}

} // namespace
