#ifndef IGEPA_TESTS_ORACLE_DENSE_SIMPLEX_H_
#define IGEPA_TESTS_ORACLE_DENSE_SIMPLEX_H_

#include <cstdint>

#include "lp/solution.h"
#include "tests/oracle/model.h"
#include "util/result.h"

namespace igepa {
namespace lp {

/// Options for DenseSimplex.
struct DenseSimplexOptions {
  /// Numerical tolerance for reduced costs / pivots / feasibility.
  double tolerance = 1e-9;
  /// Hard pivot budget across both phases; 0 means automatic
  /// (64 * (rows + cols) + 4096).
  int64_t max_iterations = 0;
  /// Pivot count after which the solver switches from Dantzig pricing to
  /// Bland's anti-cycling rule; 0 means automatic (8 * (rows + cols) + 512).
  int64_t bland_threshold = 0;
};

/// General-purpose exact LP solver: two-phase primal simplex on a dense
/// tableau. Supports <=, >=, = rows and arbitrary (including free) variable
/// bounds. Memory is O(rows * cols), so it only suits small models.
///
/// Test-only oracle, linked into igepa_tests and not into the library: it
/// plays the paper's commercial LP solver (DESIGN.md S1/S5) where the tests
/// need the exact LP optimum — Lemma 1, Theorem 2 and the bracket around the
/// structured dual's certified objective.
class DenseSimplex {
 public:
  explicit DenseSimplex(DenseSimplexOptions options = {});

  /// Solves `model` (maximization). The model must pass Validate().
  /// Returns kOptimal/kInfeasible/kUnbounded/kIterationLimit.
  Result<LpSolution> Solve(const LpModel& model) const;

 private:
  DenseSimplexOptions options_;
};

}  // namespace lp
}  // namespace igepa

#endif  // IGEPA_TESTS_ORACLE_DENSE_SIMPLEX_H_
