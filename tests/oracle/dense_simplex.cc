#include "tests/oracle/dense_simplex.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/logging.h"

namespace igepa {
namespace lp {
namespace {

/// How an original variable maps to canonical (shifted, >= 0) variables.
struct VarMap {
  enum class Kind : uint8_t { kShift, kFlip, kSplit };
  Kind kind = Kind::kShift;
  int32_t col = -1;      // primary canonical column
  int32_t col_neg = -1;  // negative part for kSplit
  double shift = 0.0;    // x = shift + x'   (kShift)  /  x = shift - x' (kFlip)
};

/// Role of a canonical tableau column.
enum class ColRole : uint8_t { kStructural, kSlack, kSurplus, kArtificial };

struct Canonical {
  // Dense row-major matrix of structural columns only; slacks etc. appended
  // logically during the solve.
  int32_t num_rows = 0;
  int32_t num_struct = 0;
  std::vector<double> a;        // num_rows x num_struct
  std::vector<double> rhs;      // >= 0 after sign normalization
  std::vector<Sense> sense;     // after sign normalization
  std::vector<double> row_sign; // +1 / -1: multiplier applied to original row
  std::vector<double> obj;      // phase-2 objective of structural columns
  double obj_const = 0.0;       // constant folded out by shifts
  std::vector<VarMap> var_map;  // size = model.num_cols()
  int32_t num_original_rows = 0;
};

double& At(Canonical& c, int32_t i, int32_t j) {
  return c.a[static_cast<size_t>(i) * static_cast<size_t>(c.num_struct) +
             static_cast<size_t>(j)];
}

/// Rewrites the model with all variables shifted to x' >= 0 and finite upper
/// bounds turned into explicit rows, then sign-normalizes rows to rhs >= 0.
Result<Canonical> Canonicalize(const LpModel& model) {
  Canonical c;
  c.num_original_rows = model.num_rows();
  const int32_t n = model.num_cols();

  // Pass 1: decide the variable mapping and count canonical columns/rows.
  c.var_map.resize(static_cast<size_t>(n));
  int32_t next_col = 0;
  int32_t bound_rows = 0;
  for (int32_t j = 0; j < n; ++j) {
    const double lo = model.lower(j);
    const double hi = model.upper(j);
    VarMap& vm = c.var_map[static_cast<size_t>(j)];
    if (std::isfinite(lo)) {
      vm.kind = VarMap::Kind::kShift;
      vm.shift = lo;
      vm.col = next_col++;
      if (std::isfinite(hi)) ++bound_rows;  // x' <= hi - lo
    } else if (std::isfinite(hi)) {
      vm.kind = VarMap::Kind::kFlip;
      vm.shift = hi;
      vm.col = next_col++;
    } else {
      vm.kind = VarMap::Kind::kSplit;
      vm.col = next_col++;
      vm.col_neg = next_col++;
    }
  }
  c.num_struct = next_col;
  c.num_rows = model.num_rows() + bound_rows;
  c.a.assign(static_cast<size_t>(c.num_rows) *
                 static_cast<size_t>(c.num_struct),
             0.0);
  c.rhs.assign(static_cast<size_t>(c.num_rows), 0.0);
  c.sense.assign(static_cast<size_t>(c.num_rows), Sense::kLe);
  c.row_sign.assign(static_cast<size_t>(c.num_rows), 1.0);
  c.obj.assign(static_cast<size_t>(c.num_struct), 0.0);

  for (int32_t i = 0; i < model.num_rows(); ++i) {
    c.rhs[static_cast<size_t>(i)] = model.row(i).rhs;
    c.sense[static_cast<size_t>(i)] = model.row(i).sense;
  }

  // Pass 2: emit columns.
  int32_t next_bound_row = model.num_rows();
  for (int32_t j = 0; j < n; ++j) {
    const VarMap& vm = c.var_map[static_cast<size_t>(j)];
    const double cj = model.objective(j);
    switch (vm.kind) {
      case VarMap::Kind::kShift: {
        c.obj[static_cast<size_t>(vm.col)] = cj;
        c.obj_const += cj * vm.shift;
        for (const auto& e : model.column(j)) {
          At(c, e.row, vm.col) += e.value;
          c.rhs[static_cast<size_t>(e.row)] -= e.value * vm.shift;
        }
        const double hi = model.upper(j);
        if (std::isfinite(hi)) {
          const int32_t r = next_bound_row++;
          At(c, r, vm.col) = 1.0;
          c.rhs[static_cast<size_t>(r)] = hi - vm.shift;
          c.sense[static_cast<size_t>(r)] = Sense::kLe;
        }
        break;
      }
      case VarMap::Kind::kFlip: {
        // x = hi - x'' with x'' >= 0 (no upper bound on x'').
        c.obj[static_cast<size_t>(vm.col)] = -cj;
        c.obj_const += cj * vm.shift;
        for (const auto& e : model.column(j)) {
          At(c, e.row, vm.col) -= e.value;
          c.rhs[static_cast<size_t>(e.row)] -= e.value * vm.shift;
        }
        break;
      }
      case VarMap::Kind::kSplit: {
        c.obj[static_cast<size_t>(vm.col)] = cj;
        c.obj[static_cast<size_t>(vm.col_neg)] = -cj;
        for (const auto& e : model.column(j)) {
          At(c, e.row, vm.col) += e.value;
          At(c, e.row, vm.col_neg) -= e.value;
        }
        break;
      }
    }
  }

  // Pass 3: sign-normalize rows to rhs >= 0.
  for (int32_t i = 0; i < c.num_rows; ++i) {
    if (c.rhs[static_cast<size_t>(i)] < 0.0) {
      c.rhs[static_cast<size_t>(i)] = -c.rhs[static_cast<size_t>(i)];
      c.row_sign[static_cast<size_t>(i)] = -1.0;
      for (int32_t j = 0; j < c.num_struct; ++j) At(c, i, j) = -At(c, i, j);
      if (c.sense[static_cast<size_t>(i)] == Sense::kLe) {
        c.sense[static_cast<size_t>(i)] = Sense::kGe;
      } else if (c.sense[static_cast<size_t>(i)] == Sense::kGe) {
        c.sense[static_cast<size_t>(i)] = Sense::kLe;
      }
    }
  }
  return c;
}

/// Full dense tableau with slack/surplus/artificial columns appended.
class Tableau {
 public:
  Tableau(const Canonical& canon, double tol)
      : canon_(canon), tol_(tol), m_(canon.num_rows) {
    // Column layout: [structural | slack+surplus | artificial].
    role_.assign(static_cast<size_t>(canon.num_struct), ColRole::kStructural);
    slack_col_.assign(static_cast<size_t>(m_), -1);
    art_col_.assign(static_cast<size_t>(m_), -1);
    int32_t next = canon.num_struct;
    for (int32_t i = 0; i < m_; ++i) {
      const Sense s = canon.sense[static_cast<size_t>(i)];
      if (s == Sense::kLe || s == Sense::kGe) {
        slack_col_[static_cast<size_t>(i)] = next++;
        role_.push_back(s == Sense::kLe ? ColRole::kSlack : ColRole::kSurplus);
      }
    }
    for (int32_t i = 0; i < m_; ++i) {
      const Sense s = canon.sense[static_cast<size_t>(i)];
      if (s == Sense::kGe || s == Sense::kEq) {
        art_col_[static_cast<size_t>(i)] = next++;
        role_.push_back(ColRole::kArtificial);
      }
    }
    n_ = next;
    width_ = n_ + 1;
    t_.assign(static_cast<size_t>(m_ + 1) * static_cast<size_t>(width_), 0.0);
    basis_.assign(static_cast<size_t>(m_), -1);

    for (int32_t i = 0; i < m_; ++i) {
      for (int32_t j = 0; j < canon.num_struct; ++j) {
        Cell(i, j) = canon.a[static_cast<size_t>(i) *
                                 static_cast<size_t>(canon.num_struct) +
                             static_cast<size_t>(j)];
      }
      const Sense s = canon.sense[static_cast<size_t>(i)];
      if (slack_col_[static_cast<size_t>(i)] >= 0) {
        Cell(i, slack_col_[static_cast<size_t>(i)]) =
            (s == Sense::kLe) ? 1.0 : -1.0;
      }
      if (art_col_[static_cast<size_t>(i)] >= 0) {
        Cell(i, art_col_[static_cast<size_t>(i)]) = 1.0;
        basis_[static_cast<size_t>(i)] = art_col_[static_cast<size_t>(i)];
      } else {
        basis_[static_cast<size_t>(i)] = slack_col_[static_cast<size_t>(i)];
      }
      Cell(i, n_) = canon.rhs[static_cast<size_t>(i)];
    }
  }

  double& Cell(int32_t i, int32_t j) {
    return t_[static_cast<size_t>(i) * static_cast<size_t>(width_) +
              static_cast<size_t>(j)];
  }
  double Cell(int32_t i, int32_t j) const {
    return t_[static_cast<size_t>(i) * static_cast<size_t>(width_) +
              static_cast<size_t>(j)];
  }

  int32_t num_cols() const { return n_; }
  int32_t num_rows() const { return m_; }
  ColRole role(int32_t j) const { return role_[static_cast<size_t>(j)]; }
  int32_t basis(int32_t i) const { return basis_[static_cast<size_t>(i)]; }
  int32_t art_col(int32_t i) const { return art_col_[static_cast<size_t>(i)]; }
  int32_t slack_col(int32_t i) const {
    return slack_col_[static_cast<size_t>(i)];
  }

  /// Installs a fresh objective row for costs `cost` (size n_) given the
  /// current basis: r_j = c_j - c_B * T_j ; rhs cell = -c_B * b.
  void SetObjective(const std::vector<double>& cost) {
    for (int32_t j = 0; j <= n_; ++j) {
      Cell(m_, j) = (j < n_) ? cost[static_cast<size_t>(j)] : 0.0;
    }
    for (int32_t i = 0; i < m_; ++i) {
      const double cb = cost[static_cast<size_t>(basis_[static_cast<size_t>(i)])];
      if (cb == 0.0) continue;
      for (int32_t j = 0; j <= n_; ++j) {
        Cell(m_, j) -= cb * Cell(i, j);
      }
    }
  }

  void Pivot(int32_t pr, int32_t pc) {
    const double pivot = Cell(pr, pc);
    const double inv = 1.0 / pivot;
    for (int32_t j = 0; j <= n_; ++j) Cell(pr, j) *= inv;
    Cell(pr, pc) = 1.0;  // exactness
    for (int32_t i = 0; i <= m_; ++i) {
      if (i == pr) continue;
      const double f = Cell(i, pc);
      if (f == 0.0) continue;
      for (int32_t j = 0; j <= n_; ++j) Cell(i, j) -= f * Cell(pr, j);
      Cell(i, pc) = 0.0;  // exactness
    }
    basis_[static_cast<size_t>(pr)] = pc;
  }

  /// Runs primal simplex iterations with the current objective row until
  /// optimal / unbounded / budget exhausted. `allow` filters entering columns.
  /// Returns kOptimal / kUnbounded / kIterationLimit.
  template <typename AllowFn>
  SolveStatus Iterate(AllowFn allow, int64_t max_iters, int64_t bland_after,
                      int64_t* iterations) {
    while (*iterations < max_iters) {
      const bool bland = *iterations >= bland_after;
      int32_t pc = -1;
      double best = tol_;
      for (int32_t j = 0; j < n_; ++j) {
        if (!allow(j)) continue;
        const double rc = Cell(m_, j);
        if (rc > best) {
          pc = j;
          if (bland) break;  // first improving column (Bland)
          best = rc;
        }
      }
      if (pc < 0) return SolveStatus::kOptimal;

      int32_t pr = -1;
      double best_ratio = 0.0;
      for (int32_t i = 0; i < m_; ++i) {
        const double a = Cell(i, pc);
        if (a > tol_) {
          const double ratio = Cell(i, n_) / a;
          if (pr < 0 || ratio < best_ratio - tol_ ||
              (ratio < best_ratio + tol_ &&
               basis_[static_cast<size_t>(i)] <
                   basis_[static_cast<size_t>(pr)])) {
            pr = i;
            best_ratio = ratio;
          }
        }
      }
      if (pr < 0) return SolveStatus::kUnbounded;
      Pivot(pr, pc);
      ++(*iterations);
    }
    return SolveStatus::kIterationLimit;
  }

  double ObjectiveValue() const { return -Cell(m_, n_); }

 private:
  const Canonical& canon_;
  double tol_;
  int32_t m_;
  int32_t n_ = 0;
  int32_t width_ = 0;
  std::vector<double> t_;
  std::vector<int32_t> basis_;
  std::vector<ColRole> role_;
  std::vector<int32_t> slack_col_;
  std::vector<int32_t> art_col_;
};

}  // namespace

DenseSimplex::DenseSimplex(DenseSimplexOptions options) : options_(options) {}

Result<LpSolution> DenseSimplex::Solve(const LpModel& model) const {
  LpModel copy = model;  // Validate() may merge duplicate entries
  IGEPA_RETURN_IF_ERROR(copy.Validate());
  IGEPA_ASSIGN_OR_RETURN(Canonical canon, Canonicalize(copy));

  const double tol = options_.tolerance;
  Tableau tab(canon, tol);
  const int64_t dims = tab.num_rows() + tab.num_cols();
  const int64_t max_iters = options_.max_iterations > 0
                                ? options_.max_iterations
                                : 64 * dims + 4096;
  const int64_t bland_after = options_.bland_threshold > 0
                                  ? options_.bland_threshold
                                  : 8 * dims + 512;
  int64_t iterations = 0;

  // ---- Phase 1: drive artificials to zero. -------------------------------
  bool has_artificial = false;
  for (int32_t j = 0; j < tab.num_cols(); ++j) {
    if (tab.role(j) == ColRole::kArtificial) {
      has_artificial = true;
      break;
    }
  }
  if (has_artificial) {
    std::vector<double> phase1(static_cast<size_t>(tab.num_cols()), 0.0);
    for (int32_t j = 0; j < tab.num_cols(); ++j) {
      if (tab.role(j) == ColRole::kArtificial) {
        phase1[static_cast<size_t>(j)] = -1.0;
      }
    }
    tab.SetObjective(phase1);
    const SolveStatus s1 = tab.Iterate([](int32_t) { return true; }, max_iters,
                                       bland_after, &iterations);
    if (s1 == SolveStatus::kIterationLimit) {
      return Status::ResourceExhausted("simplex phase 1 iteration limit");
    }
    // Phase-1 objective is -(sum of artificials) <= 0.
    if (tab.ObjectiveValue() < -1e-7) {
      LpSolution sol;
      sol.status = SolveStatus::kInfeasible;
      sol.x.assign(static_cast<size_t>(model.num_cols()), 0.0);
      return sol;
    }
    // Drive any basic artificial (value 0) out of the basis when possible.
    for (int32_t i = 0; i < tab.num_rows(); ++i) {
      const int32_t b = tab.basis(i);
      if (tab.role(b) != ColRole::kArtificial) continue;
      int32_t pc = -1;
      for (int32_t j = 0; j < tab.num_cols(); ++j) {
        if (tab.role(j) == ColRole::kArtificial) continue;
        if (std::abs(tab.Cell(i, j)) > tol) {
          pc = j;
          break;
        }
      }
      if (pc >= 0) {
        tab.Pivot(i, pc);
        ++iterations;
      }
      // else: redundant row; artificial stays basic at value 0 — harmless
      // because artificial columns are banned from entering in phase 2.
    }
  }

  // ---- Phase 2: original objective. ---------------------------------------
  std::vector<double> phase2(static_cast<size_t>(tab.num_cols()), 0.0);
  for (int32_t j = 0; j < canon.num_struct; ++j) {
    phase2[static_cast<size_t>(j)] = canon.obj[static_cast<size_t>(j)];
  }
  tab.SetObjective(phase2);
  const SolveStatus s2 =
      tab.Iterate([&tab](int32_t j) { return tab.role(j) !=
                                             ColRole::kArtificial; },
                  max_iters, bland_after, &iterations);
  if (s2 == SolveStatus::kIterationLimit) {
    return Status::ResourceExhausted("simplex phase 2 iteration limit");
  }
  if (s2 == SolveStatus::kUnbounded) {
    LpSolution sol;
    sol.status = SolveStatus::kUnbounded;
    sol.x.assign(static_cast<size_t>(model.num_cols()), 0.0);
    return sol;
  }

  // ---- Extract the solution. ----------------------------------------------
  std::vector<double> xc(static_cast<size_t>(canon.num_struct), 0.0);
  for (int32_t i = 0; i < tab.num_rows(); ++i) {
    const int32_t b = tab.basis(i);
    if (b < canon.num_struct) {
      xc[static_cast<size_t>(b)] = tab.Cell(i, tab.num_cols());
    }
  }
  LpSolution sol;
  sol.status = SolveStatus::kOptimal;
  sol.iterations = iterations;
  sol.x.assign(static_cast<size_t>(model.num_cols()), 0.0);
  for (int32_t j = 0; j < model.num_cols(); ++j) {
    const VarMap& vm = canon.var_map[static_cast<size_t>(j)];
    double v = 0.0;
    switch (vm.kind) {
      case VarMap::Kind::kShift:
        v = vm.shift + xc[static_cast<size_t>(vm.col)];
        break;
      case VarMap::Kind::kFlip:
        v = vm.shift - xc[static_cast<size_t>(vm.col)];
        break;
      case VarMap::Kind::kSplit:
        v = xc[static_cast<size_t>(vm.col)] -
            xc[static_cast<size_t>(vm.col_neg)];
        break;
    }
    sol.x[static_cast<size_t>(j)] = v;
  }
  sol.objective = tab.ObjectiveValue() + canon.obj_const;
  sol.upper_bound = sol.objective;

  // Row duals for the original rows, from slack/artificial reduced costs.
  sol.duals.assign(static_cast<size_t>(canon.num_original_rows), 0.0);
  for (int32_t i = 0; i < canon.num_original_rows; ++i) {
    double y = 0.0;
    const int32_t sc = tab.slack_col(i);
    const int32_t ac = tab.art_col(i);
    if (sc >= 0) {
      // slack cost 0: y_i = -reduced_cost(slack) (slack coeff +1 for <=,
      // -1 for >=; the sign is folded below).
      const double sign = canon.sense[static_cast<size_t>(i)] == Sense::kLe
                              ? 1.0
                              : -1.0;
      y = -sign * tab.Cell(tab.num_rows(), sc);
    } else if (ac >= 0) {
      y = -tab.Cell(tab.num_rows(), ac);
    }
    sol.duals[static_cast<size_t>(i)] =
        y * canon.row_sign[static_cast<size_t>(i)];
  }
  return sol;
}

}  // namespace lp
}  // namespace igepa
