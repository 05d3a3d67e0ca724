#ifndef IGEPA_TESTS_ORACLE_LP_TEST_UTIL_H_
#define IGEPA_TESTS_ORACLE_LP_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "lp/solution.h"
#include "tests/oracle/model.h"
#include "util/rng.h"

namespace igepa {
namespace lp {

/// Asserts that (x, duals) satisfies the KKT conditions of `model`
/// (maximization, <= rows): primal feasibility, dual feasibility (y >= 0),
/// stationarity/complementary slackness on variables and rows. This fully
/// certifies optimality without trusting the objective value.
inline void ExpectKktOptimal(const LpModel& model, const LpSolution& sol,
                             double tol = 1e-6) {
  ASSERT_EQ(sol.x.size(), static_cast<size_t>(model.num_cols()));
  ASSERT_EQ(sol.duals.size(), static_cast<size_t>(model.num_rows()));
  EXPECT_LE(model.MaxInfeasibility(sol.x), tol) << "primal infeasible";

  const std::vector<double> act = model.RowActivity(sol.x);
  for (int32_t i = 0; i < model.num_rows(); ++i) {
    const double y = sol.duals[static_cast<size_t>(i)];
    if (model.row(i).sense == Sense::kLe) {
      EXPECT_GE(y, -tol) << "negative dual on <= row " << i;
      if (y > tol) {
        EXPECT_NEAR(act[static_cast<size_t>(i)], model.row(i).rhs, 1e-5)
            << "positive dual on slack row " << i;
      }
    } else if (model.row(i).sense == Sense::kGe) {
      EXPECT_LE(y, tol) << "positive dual on >= row " << i;
    }
  }
  for (int32_t j = 0; j < model.num_cols(); ++j) {
    double rc = model.objective(j);
    for (const auto& e : model.column(j)) {
      rc -= sol.duals[static_cast<size_t>(e.row)] * e.value;
    }
    const double xj = sol.x[static_cast<size_t>(j)];
    if (rc > tol) {
      // Profitable column must sit at its upper bound.
      ASSERT_TRUE(std::isfinite(model.upper(j)))
          << "positive reduced cost with infinite upper bound, col " << j;
      EXPECT_NEAR(xj, model.upper(j), 1e-5)
          << "positive reduced cost but x below upper bound, col " << j;
    } else if (rc < -tol) {
      EXPECT_NEAR(xj, model.lower(j), 1e-5)
          << "negative reduced cost but x above lower bound, col " << j;
    }
  }
}

/// Builds a random packing LP: `rows` capacity rows with rhs in [1, max_rhs],
/// `cols` columns with 1..max_nnz entries, coefficients in (0, 1], objective
/// in (0, 1], upper bounds in {1, finite random}.
inline LpModel RandomPackingLp(Rng* rng, int32_t rows, int32_t cols,
                               int32_t max_nnz = 4, double max_rhs = 5.0) {
  LpModel m;
  for (int32_t i = 0; i < rows; ++i) {
    m.AddRow(Sense::kLe, 1.0 + rng->NextDouble() * (max_rhs - 1.0));
  }
  for (int32_t j = 0; j < cols; ++j) {
    const int32_t nnz =
        1 + static_cast<int32_t>(rng->NextIndex(static_cast<uint64_t>(
                std::min(max_nnz, rows))));
    std::vector<ColumnEntry> entries;
    const auto picks = rng->SampleIndices(static_cast<size_t>(rows),
                                          static_cast<size_t>(nnz));
    for (size_t r : picks) {
      entries.push_back(
          {static_cast<int32_t>(r), 0.05 + 0.95 * rng->NextDouble()});
    }
    const double ub = rng->Bernoulli(0.5) ? 1.0 : 0.5 + 2.0 * rng->NextDouble();
    m.AddColumn(0.05 + 0.95 * rng->NextDouble(), 0.0, ub, std::move(entries));
  }
  return m;
}

}  // namespace lp
}  // namespace igepa

#endif  // IGEPA_TESTS_ORACLE_LP_TEST_UTIL_H_
