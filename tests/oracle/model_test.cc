#include "tests/oracle/model.h"

#include <gtest/gtest.h>

namespace igepa {
namespace lp {
namespace {

TEST(LpModelTest, BuildSmallModel) {
  LpModel m;
  const int32_t r0 = m.AddRow(Sense::kLe, 4.0);
  const int32_t r1 = m.AddRow(Sense::kLe, 6.0);
  const int32_t c0 = m.AddColumn(3.0, 0.0, kInf, {{r0, 1.0}, {r1, 1.0}});
  const int32_t c1 = m.AddColumn(2.0, 0.0, kInf, {{r0, 1.0}, {r1, 3.0}});
  EXPECT_EQ(m.num_rows(), 2);
  EXPECT_EQ(m.num_cols(), 2);
  EXPECT_EQ(m.num_entries(), 4);
  EXPECT_TRUE(m.Validate().ok());
  EXPECT_DOUBLE_EQ(m.objective(c0), 3.0);
  EXPECT_DOUBLE_EQ(m.row(r1).rhs, 6.0);
  EXPECT_EQ(m.column(c1).size(), 2u);
}

TEST(LpModelTest, ValidateRejectsBadRowIndex) {
  LpModel m;
  m.AddRow(Sense::kLe, 1.0);
  m.AddColumn(1.0, 0.0, 1.0, {{5, 1.0}});
  EXPECT_EQ(m.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(LpModelTest, ValidateRejectsInvertedBounds) {
  LpModel m;
  m.AddColumn(1.0, 2.0, 1.0, {});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(LpModelTest, ValidateRejectsNonFinite) {
  LpModel m;
  m.AddRow(Sense::kLe, 1.0);
  m.AddColumn(std::numeric_limits<double>::quiet_NaN(), 0.0, 1.0, {});
  EXPECT_FALSE(m.Validate().ok());
}

TEST(LpModelTest, ValidateMergesDuplicateEntries) {
  LpModel m;
  const int32_t r = m.AddRow(Sense::kLe, 1.0);
  const int32_t c = m.AddColumn(1.0, 0.0, 1.0, {{r, 2.0}, {r, 3.0}});
  ASSERT_TRUE(m.Validate().ok());
  ASSERT_EQ(m.column(c).size(), 1u);
  EXPECT_DOUBLE_EQ(m.column(c)[0].value, 5.0);
  EXPECT_EQ(m.num_entries(), 1);
}

TEST(LpModelTest, PackingFormDetection) {
  LpModel good;
  const int32_t r = good.AddRow(Sense::kLe, 2.0);
  good.AddColumn(1.0, 0.0, 1.0, {{r, 1.0}});
  EXPECT_TRUE(good.IsPackingForm());

  LpModel ge;
  ge.AddRow(Sense::kGe, 2.0);
  EXPECT_FALSE(ge.IsPackingForm());

  LpModel neg_rhs;
  neg_rhs.AddRow(Sense::kLe, -1.0);
  EXPECT_FALSE(neg_rhs.IsPackingForm());

  LpModel neg_coeff;
  const int32_t r2 = neg_coeff.AddRow(Sense::kLe, 1.0);
  neg_coeff.AddColumn(1.0, 0.0, 1.0, {{r2, -1.0}});
  EXPECT_FALSE(neg_coeff.IsPackingForm());

  LpModel neg_lower;
  const int32_t r3 = neg_lower.AddRow(Sense::kLe, 1.0);
  neg_lower.AddColumn(1.0, -1.0, 1.0, {{r3, 1.0}});
  EXPECT_FALSE(neg_lower.IsPackingForm());
}

TEST(LpModelTest, ObjectiveAndActivity) {
  LpModel m;
  const int32_t r0 = m.AddRow(Sense::kLe, 10.0);
  m.AddColumn(2.0, 0.0, kInf, {{r0, 1.0}});
  m.AddColumn(-1.0, 0.0, kInf, {{r0, 4.0}});
  const std::vector<double> x = {3.0, 0.5};
  EXPECT_DOUBLE_EQ(m.ObjectiveValue(x), 5.5);
  EXPECT_DOUBLE_EQ(m.RowActivity(x)[0], 5.0);
}

TEST(LpModelTest, MaxInfeasibilityDetectsViolations) {
  LpModel m;
  const int32_t le = m.AddRow(Sense::kLe, 1.0);
  const int32_t ge = m.AddRow(Sense::kGe, 2.0);
  const int32_t eq = m.AddRow(Sense::kEq, 3.0);
  m.AddColumn(1.0, 0.0, 5.0, {{le, 1.0}, {ge, 1.0}, {eq, 1.0}});
  // x=3 satisfies eq and ge; violates le by 2.
  EXPECT_DOUBLE_EQ(m.MaxInfeasibility({3.0}), 2.0);
  // x=1 satisfies le; violates ge by 1 and eq by 2.
  EXPECT_DOUBLE_EQ(m.MaxInfeasibility({1.0}), 2.0);
  // Bound violation.
  EXPECT_DOUBLE_EQ(m.MaxInfeasibility({6.0}), 5.0);  // le violated by 5 wins
}

TEST(LpModelTest, EmptyModelIsTriviallyOk) {
  LpModel m;
  EXPECT_TRUE(m.Validate().ok());
  EXPECT_TRUE(m.IsPackingForm());
  EXPECT_DOUBLE_EQ(m.ObjectiveValue({}), 0.0);
  EXPECT_DOUBLE_EQ(m.MaxInfeasibility({}), 0.0);
}

}  // namespace
}  // namespace lp
}  // namespace igepa
