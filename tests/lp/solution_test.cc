#include "lp/solution.h"

#include <gtest/gtest.h>

namespace igepa {
namespace lp {
namespace {

TEST(SolveStatusTest, NamesAreStable) {
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kOptimal), "Optimal");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kApproximate), "Approximate");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kInfeasible), "Infeasible");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kUnbounded), "Unbounded");
  EXPECT_STREQ(SolveStatusToString(SolveStatus::kIterationLimit),
               "IterationLimit");
}

}  // namespace
}  // namespace lp
}  // namespace igepa
