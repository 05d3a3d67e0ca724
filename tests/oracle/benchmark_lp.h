#ifndef IGEPA_TESTS_ORACLE_BENCHMARK_LP_H_
#define IGEPA_TESTS_ORACLE_BENCHMARK_LP_H_

#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/instance.h"
#include "tests/oracle/model.h"

namespace igepa {
namespace core {

/// The paper's benchmark LP (1)-(4) in solver form, plus the bookkeeping to
/// map LP columns back to (user, admissible-set) pairs.
///
/// Row layout: rows [0, |U|) are the per-user convexity constraints (2) with
/// rhs 1; rows [|U|, |U|+|V|) are the per-event capacity constraints (3) with
/// rhs c_v. Column j corresponds to x_{u,S} for (u, S) = column_map[j]:
/// objective w(u, S), bounds [0, 1] (4), +1 entries in u's row and in each
/// event row of S.
struct BenchmarkLp {
  lp::LpModel model;
  /// column j -> (user, index into admissible[user].sets).
  std::vector<std::pair<UserId, int32_t>> column_map;
  /// First column of each user's block, size num_users+1 (columns of user u
  /// are [user_col_begin[u], user_col_begin[u+1])).
  std::vector<int32_t> user_col_begin;

  int32_t UserRow(UserId u) const { return u; }
  int32_t EventRow(const Instance& instance, EventId v) const {
    return instance.num_users() + v;
  }
};

/// Materializes the benchmark LP from catalog views for the exact oracle
/// (DenseSimplex); the library's solver (core/benchmark_dual.h) consumes the
/// catalog CSR directly. Column j of the model is catalog column j on a
/// canonical catalog: objective `catalog.weight(j)`, +1 in the owner's user
/// row and in each event row of `catalog.set(j)`.
BenchmarkLp BuildBenchmarkLp(const Instance& instance,
                             const AdmissibleCatalog& catalog);

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_TESTS_ORACLE_BENCHMARK_LP_H_
