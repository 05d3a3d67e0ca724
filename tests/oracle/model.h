#ifndef IGEPA_TESTS_ORACLE_MODEL_H_
#define IGEPA_TESTS_ORACLE_MODEL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/status.h"

namespace igepa {
namespace lp {

/// +infinity sentinel for variable upper bounds.
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Row sense of a linear constraint.
enum class Sense : uint8_t { kLe, kGe, kEq };

/// One linear constraint: (a · x) `sense` rhs.
struct RowDef {
  Sense sense = Sense::kLe;
  double rhs = 0.0;
};

/// Sparse entry of a column: coefficient `value` in row `row`.
struct ColumnEntry {
  int32_t row = 0;
  double value = 0.0;
};

/// A linear program in column-oriented sparse form. The objective is always
/// MAXIMIZED (callers negate costs to minimize). Variables carry box bounds
/// [lower, upper] with upper possibly kInf; lower may be -kInf (free/negative
/// variables are supported by DenseSimplex only).
///
/// Columns are the natural unit for the IGEPA benchmark LP: each admissible
/// event set (u, S) is one column touching the user row of u and the event
/// rows of S (see tests/oracle/benchmark_lp.h). Test-only, like DenseSimplex.
class LpModel {
 public:
  LpModel() = default;

  /// Adds a constraint row, returns its index.
  int32_t AddRow(Sense sense, double rhs);

  /// Adds a variable with the given objective coefficient, bounds and sparse
  /// row entries; returns the column index. Entries must reference existing
  /// rows; duplicate rows within one column are summed by Canonicalize().
  int32_t AddColumn(double objective, double lower, double upper,
                    std::vector<ColumnEntry> entries);

  int32_t num_rows() const { return static_cast<int32_t>(rows_.size()); }
  int32_t num_cols() const { return static_cast<int32_t>(cols_.size()); }
  int64_t num_entries() const { return num_entries_; }

  const RowDef& row(int32_t i) const { return rows_[static_cast<size_t>(i)]; }
  double objective(int32_t j) const { return obj_[static_cast<size_t>(j)]; }
  double lower(int32_t j) const { return lower_[static_cast<size_t>(j)]; }
  double upper(int32_t j) const { return upper_[static_cast<size_t>(j)]; }
  const std::vector<ColumnEntry>& column(int32_t j) const {
    return cols_[static_cast<size_t>(j)];
  }

  /// Structural validation: in-range row indices, finite coefficients,
  /// lower <= upper. Merges duplicate entries within each column.
  Status Validate();

  /// True when the model is in *packing canonical form*: every row is `<=`
  /// with rhs >= 0, every coefficient is >= 0, and every variable has
  /// 0 <= lower <= upper. The benchmark LP (1)-(4) is in this form.
  bool IsPackingForm() const;

  /// Evaluates the objective at `x` (size num_cols()).
  double ObjectiveValue(const std::vector<double>& x) const;

  /// Row activities (a_i · x) at `x`.
  std::vector<double> RowActivity(const std::vector<double>& x) const;

  /// Maximum constraint/bound violation of `x` (0 when feasible).
  double MaxInfeasibility(const std::vector<double>& x) const;

 private:
  std::vector<RowDef> rows_;
  std::vector<double> obj_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<std::vector<ColumnEntry>> cols_;
  int64_t num_entries_ = 0;
};

}  // namespace lp
}  // namespace igepa

#endif  // IGEPA_TESTS_ORACLE_MODEL_H_
