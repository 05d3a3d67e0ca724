#include "tests/oracle/benchmark_lp.h"

#include <gtest/gtest.h>

#include "tests/core/legacy_reference.h"
#include "tests/core/test_instances.h"
#include "tests/oracle/dense_simplex.h"

namespace igepa {
namespace core {
namespace {

using testing_reference::ReferenceSetWeight;

TEST(BenchmarkLpTest, RowAndColumnLayout) {
  const Instance instance = MakeTinyInstance();
  const auto catalog = AdmissibleCatalog::Build(instance, {});
  const BenchmarkLp bench = BuildBenchmarkLp(instance, catalog);
  // Rows: 3 user rows (rhs 1) + 3 event rows (rhs c_v).
  ASSERT_EQ(bench.model.num_rows(), 6);
  for (UserId u = 0; u < 3; ++u) {
    EXPECT_EQ(bench.model.row(bench.UserRow(u)).sense, lp::Sense::kLe);
    EXPECT_DOUBLE_EQ(bench.model.row(bench.UserRow(u)).rhs, 1.0);
  }
  EXPECT_DOUBLE_EQ(bench.model.row(bench.EventRow(instance, 0)).rhs, 1.0);
  EXPECT_DOUBLE_EQ(bench.model.row(bench.EventRow(instance, 1)).rhs, 2.0);
  EXPECT_DOUBLE_EQ(bench.model.row(bench.EventRow(instance, 2)).rhs, 1.0);
  // Columns: |A_u0| + |A_u1| + |A_u2| = 5 + 2 + 3 = 10.
  EXPECT_EQ(bench.model.num_cols(), 10);
  EXPECT_EQ(bench.column_map.size(), 10u);
  EXPECT_EQ(bench.user_col_begin.front(), 0);
  EXPECT_EQ(bench.user_col_begin.back(), 10);
  EXPECT_TRUE(bench.model.IsPackingForm());
}

TEST(BenchmarkLpTest, ColumnWeightsAreKernelSetWeights) {
  const Instance instance = MakeTinyInstance();
  const auto catalog = AdmissibleCatalog::Build(instance, {});
  const BenchmarkLp bench = BuildBenchmarkLp(instance, catalog);
  ASSERT_EQ(bench.model.num_cols(), catalog.num_columns());
  for (int32_t j = 0; j < bench.model.num_cols(); ++j) {
    const auto span = catalog.set(j);
    EXPECT_NEAR(bench.model.objective(j),
                ReferenceSetWeight(instance, catalog.user_of(j),
                                   {span.begin(), span.end()}),
                1e-12);
    // Entries: one user row + one row per event of the set.
    EXPECT_EQ(bench.model.column(j).size(), span.size() + 1);
  }
}

TEST(BenchmarkLpTest, LpOptimumEqualsIntegralOptimumOnTiny) {
  // Lemma 1: LP* >= OPT. On the tiny instance the LP is integral, so the
  // dense simplex recovers exactly the hand-computed optimum 2.25.
  const Instance instance = MakeTinyInstance();
  const auto catalog = AdmissibleCatalog::Build(instance, {});
  const BenchmarkLp bench = BuildBenchmarkLp(instance, catalog);
  auto sol = lp::DenseSimplex().Solve(bench.model);
  ASSERT_TRUE(sol.ok());
  ASSERT_EQ(sol->status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(sol->objective, kTinyOptimum, 1e-9);
}

TEST(BenchmarkLpTest, UserBlocksArePartition) {
  const Instance instance = MakeTinyInstance();
  const auto catalog = AdmissibleCatalog::Build(instance, {});
  const BenchmarkLp bench = BuildBenchmarkLp(instance, catalog);
  for (UserId u = 0; u < instance.num_users(); ++u) {
    const int32_t begin = bench.user_col_begin[static_cast<size_t>(u)];
    const int32_t end = bench.user_col_begin[static_cast<size_t>(u) + 1];
    EXPECT_EQ(end - begin, catalog.num_sets(u));
    for (int32_t j = begin; j < end; ++j) {
      EXPECT_EQ(bench.column_map[static_cast<size_t>(j)].first, u);
    }
  }
}

TEST(BenchmarkLpTest, EmptyInstanceGivesEmptyModel) {
  std::vector<EventDef> events(1);
  events[0].capacity = 1;
  std::vector<UserDef> users(1);
  users[0].capacity = 0;  // no admissible sets
  Instance instance(
      std::move(events), std::move(users),
      std::make_shared<conflict::NoConflict>(1),
      std::make_shared<interest::HashUniformInterest>(1, 1, 1),
      std::make_shared<graph::TableInteractionModel>(std::vector<double>{0.0}),
      0.5);
  ASSERT_TRUE(instance.Validate().ok());
  const auto catalog = AdmissibleCatalog::Build(instance, {});
  const BenchmarkLp bench = BuildBenchmarkLp(instance, catalog);
  EXPECT_EQ(bench.model.num_cols(), 0);
  EXPECT_EQ(bench.model.num_rows(), 2);
  auto sol = lp::DenseSimplex().Solve(bench.model);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->objective, 0.0);
}

}  // namespace
}  // namespace core
}  // namespace igepa
