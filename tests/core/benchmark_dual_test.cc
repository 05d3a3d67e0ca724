#include "core/benchmark_dual.h"

#include <gtest/gtest.h>

#include "gen/synthetic.h"
#include "tests/core/test_instances.h"
#include "tests/oracle/benchmark_lp.h"
#include "tests/oracle/dense_simplex.h"

namespace igepa {
namespace core {
namespace {

struct Prepared {
  Instance instance;
  AdmissibleCatalog catalog;
  BenchmarkLp bench;
};

Prepared Prepare(Instance instance) {
  auto catalog = AdmissibleCatalog::Build(instance, {});
  auto bench = BuildBenchmarkLp(instance, catalog);
  return Prepared{std::move(instance), std::move(catalog), std::move(bench)};
}

Prepared PrepareSynthetic(uint64_t seed, int32_t events, int32_t users) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_events = events;
  config.num_users = users;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return Prepare(std::move(instance).value());
}

/// max_{S ∈ A_u} (w(u,S) − Σ_{v∈S} μ_v) over the catalog's columns of u,
/// floored at 0 (the empty set).
double OracleBest(const Prepared& p, UserId u,
                  const std::vector<double>& duals) {
  double best = 0.0;
  for (int32_t j = p.catalog.user_columns_begin(u);
       j < p.catalog.user_columns_end(u); ++j) {
    double reduced = p.catalog.weight(j);
    for (EventId v : p.catalog.set(j)) {
      reduced -= duals[static_cast<size_t>(p.bench.EventRow(p.instance, v))];
    }
    best = std::max(best, reduced);
  }
  return best;
}

TEST(BenchmarkDualTest, TinyInstanceNearOptimal) {
  Prepared p = Prepare(MakeTinyInstance());
  StructuredDualOptions options;
  options.target_gap = 0.005;
  options.max_iterations = 20000;
  auto sol = SolveBenchmarkLpStructured(p.instance, p.catalog, options);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // LP* = 2.25 on the tiny instance (integral; certificate in
  // test_instances.h).
  EXPECT_LE(sol->objective, kTinyOptimum + 1e-9);
  EXPECT_GE(sol->upper_bound, kTinyOptimum - 1e-9);
  EXPECT_GE(sol->objective, 0.99 * kTinyOptimum);
  EXPECT_LE(p.bench.model.MaxInfeasibility(sol->x), 1e-9);
}

/// One input of the property suite: a Table-I synthetic instance of
/// `events` × `users` drawn from `seed`, or the tiny instance when `events`
/// is 0.
struct DualCase {
  uint64_t seed = 0;
  int32_t events = 15;
  int32_t users = 30;
};

/// Names a case by its seed, plus its shape when that is not 15 × 30.
void PrintTo(const DualCase& c, std::ostream* os) {
  if (c.events == 0) {
    *os << "tiny";
    return;
  }
  *os << c.seed;
  if (c.events != 15 || c.users != 30) {
    *os << "_" << c.events << "x" << c.users;
  }
}

class BenchmarkDualProperty : public ::testing::TestWithParam<DualCase> {};

TEST_P(BenchmarkDualProperty, BracketsExactLpOptimum) {
  const DualCase& c = GetParam();
  Prepared p = c.events == 0 ? Prepare(MakeTinyInstance())
                             : PrepareSynthetic(c.seed, c.events, c.users);
  auto exact = lp::DenseSimplex().Solve(p.bench.model);
  ASSERT_TRUE(exact.ok());
  ASSERT_EQ(exact->status, lp::SolveStatus::kOptimal);

  // A long budget, and the defaults that LpPacking solves line 1 with.
  StructuredDualOptions long_budget;
  long_budget.target_gap = 0.01;
  long_budget.max_iterations = 30000;
  for (const StructuredDualOptions& options :
       {long_budget, StructuredDualOptions{}}) {
    SCOPED_TRACE(::testing::Message()
                 << "max_iterations " << options.max_iterations);
    auto approx = SolveBenchmarkLpStructured(p.instance, p.catalog, options);
    ASSERT_TRUE(approx.ok());
    EXPECT_LE(approx->objective, exact->objective + 1e-6);
    EXPECT_GE(approx->upper_bound, exact->objective - 1e-6);
    EXPECT_LE(p.bench.model.MaxInfeasibility(approx->x), 1e-7);
    if (approx->status == lp::SolveStatus::kApproximate) {
      EXPECT_GE(approx->objective,
                (1.0 - options.target_gap) * exact->objective - 1e-9);
    }
  }
}

TEST_P(BenchmarkDualProperty, PrimalRespectsUserMassAndCapacities) {
  Prepared p = PrepareSynthetic(GetParam().seed ^ 0xBEEF, 20, 50);
  auto sol = SolveBenchmarkLpStructured(p.instance, p.catalog, {});
  ASSERT_TRUE(sol.ok());
  // Per-user mass <= 1 (constraint (2)) and event usage <= c_v (3) — checked
  // via the model's activity machinery.
  EXPECT_LE(p.bench.model.MaxInfeasibility(sol->x), 1e-7);
  // Dual vector: event multipliers non-negative.
  for (EventId v = 0; v < p.instance.num_events(); ++v) {
    EXPECT_GE(sol->duals[static_cast<size_t>(
                  p.bench.EventRow(p.instance, v))],
              0.0);
  }
}

// Seeded 15 × 30 instances, the tiny instance and docs/GUIDE.md's 20-event ×
// 120-user instance (seed 7): the small shapes that the unit tests and the
// documented CLI runs solve through LpPacking's default options.
INSTANTIATE_TEST_SUITE_P(
    Seeds, BenchmarkDualProperty,
    ::testing::Values(DualCase{3}, DualCase{17}, DualCase{29}, DualCase{71},
                      DualCase{113}, DualCase{211}, DualCase{0, 0, 0},
                      DualCase{7, 20, 120}));

TEST(BenchmarkDualTest, UpperBoundIsLagrangianAtReportedDuals) {
  // Recompute L(μ) from the reported duals; it must equal upper_bound (the
  // solver's certificate must be verifiable from its outputs).
  Prepared p = PrepareSynthetic(911, 12, 25);
  auto sol = SolveBenchmarkLpStructured(p.instance, p.catalog, {});
  ASSERT_TRUE(sol.ok());
  double lagrangian = 0.0;
  for (EventId v = 0; v < p.instance.num_events(); ++v) {
    lagrangian += p.instance.event_capacity(v) *
                  sol->duals[static_cast<size_t>(
                      p.bench.EventRow(p.instance, v))];
  }
  for (UserId u = 0; u < p.instance.num_users(); ++u) {
    lagrangian += OracleBest(p, u, sol->duals);
  }
  EXPECT_NEAR(lagrangian, sol->upper_bound, 1e-9);
  // And the user-row duals must be exactly those oracle values.
  for (UserId u = 0; u < p.instance.num_users(); ++u) {
    EXPECT_NEAR(OracleBest(p, u, sol->duals),
                sol->duals[static_cast<size_t>(p.bench.UserRow(u))], 1e-9);
  }
}

TEST(BenchmarkDualTest, EmptyModelShortCircuits) {
  std::vector<EventDef> events(2);
  std::vector<UserDef> users(2);
  for (auto& u : users) u.capacity = 1;  // no bids -> no columns
  Instance instance(
      std::move(events), std::move(users),
      std::make_shared<conflict::NoConflict>(2),
      std::make_shared<interest::HashUniformInterest>(2, 2, 1),
      std::make_shared<graph::TableInteractionModel>(
          std::vector<double>(2, 0.0)),
      0.5);
  ASSERT_TRUE(instance.Validate().ok());
  Prepared p = Prepare(std::move(instance));
  auto sol = SolveBenchmarkLpStructured(p.instance, p.catalog, {});
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, lp::SolveStatus::kOptimal);
  EXPECT_EQ(sol->objective, 0.0);
}

TEST(BenchmarkDualTest, LooseCapacitiesReachNearLpValueFast) {
  // With abundant capacity the LP decouples per user; the greedy polish must
  // recover each user's best set almost exactly.
  Rng rng(404);
  gen::SyntheticConfig config;
  config.num_events = 30;
  config.num_users = 80;
  config.max_event_capacity = 100;  // never binding
  auto instance = gen::GenerateSynthetic(config, &rng);
  ASSERT_TRUE(instance.ok());
  Prepared p = Prepare(std::move(instance).value());
  auto sol = SolveBenchmarkLpStructured(p.instance, p.catalog, {});
  ASSERT_TRUE(sol.ok());
  double decoupled = 0.0;
  for (UserId u = 0; u < p.instance.num_users(); ++u) {
    double best = 0.0;
    for (int32_t j = p.catalog.user_columns_begin(u);
         j < p.catalog.user_columns_end(u); ++j) {
      best = std::max(best, p.catalog.weight(j));
    }
    decoupled += best;
  }
  EXPECT_NEAR(sol->objective, decoupled, 1e-6);
  EXPECT_EQ(sol->status, lp::SolveStatus::kApproximate);
}

}  // namespace
}  // namespace core
}  // namespace igepa
