// Empirical validation of the paper's theory:
//   Lemma 1  — the benchmark LP optimum upper-bounds the IGEPA optimum;
//   Theorem 2 — with α = 1/2, E[utility of Algorithm 1] >= OPT / 4
//               (we verify the stronger per-instance statement
//                E[ALG] >= α(1-α)·LP* >= OPT/4 by Monte-Carlo averaging).

#include <gtest/gtest.h>

#include "algo/exact.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "tests/core/test_instances.h"
#include "tests/oracle/benchmark_lp.h"
#include "tests/oracle/dense_simplex.h"

namespace igepa {
namespace core {
namespace {

gen::SyntheticConfig TinyConfig(int32_t events, int32_t users) {
  gen::SyntheticConfig config;
  config.num_events = events;
  config.num_users = users;
  config.max_event_capacity = 3;
  config.max_user_capacity = 3;
  config.p_conflict = 0.3;
  config.p_friend = 0.5;
  return config;
}

double LpOptimum(const Instance& instance) {
  const auto catalog = AdmissibleCatalog::Build(instance, {});
  const BenchmarkLp bench = BuildBenchmarkLp(instance, catalog);
  auto sol = lp::DenseSimplex().Solve(bench.model);
  EXPECT_TRUE(sol.ok());
  EXPECT_EQ(sol->status, lp::SolveStatus::kOptimal);
  return sol->objective;
}

TEST(TheoryTest, Lemma1LpUpperBoundsExactOptimum) {
  Rng master(2019);
  for (int trial = 0; trial < 6; ++trial) {
    Rng rng = master.Fork();
    auto instance = gen::GenerateSynthetic(TinyConfig(8, 7), &rng);
    ASSERT_TRUE(instance.ok());
    algo::ExactStats stats;
    auto exact = algo::SolveExact(*instance, {}, &stats);
    ASSERT_TRUE(exact.ok()) << exact.status();
    const double lp_value = LpOptimum(*instance);
    EXPECT_GE(lp_value, stats.optimum - 1e-7)
        << "LP must dominate OPT (trial " << trial << ")";
  }
}

class TheoremTwoTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TheoremTwoTest, ExpectedUtilityBeatsQuarterOptimum) {
  Rng master(GetParam());
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(TinyConfig(8, 7), &gen_rng);
  ASSERT_TRUE(instance.ok());

  algo::ExactStats exact_stats;
  auto exact = algo::SolveExact(*instance, {}, &exact_stats);
  ASSERT_TRUE(exact.ok()) << exact.status();
  const double opt = exact_stats.optimum;
  if (opt <= 1e-9) GTEST_SKIP() << "degenerate instance with OPT=0";

  LpPackingOptions options;
  options.alpha = 0.5;  // the Theorem-2 setting
  const int trials = 300;
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    Rng rng = master.Fork();
    auto result = LpPacking(*instance, &rng, options);
    ASSERT_TRUE(result.ok());
    ASSERT_TRUE(result->CheckFeasible(*instance).ok());
    total += result->Utility(*instance);
  }
  const double expected_utility = total / trials;
  // Theorem 2 guarantees E[ALG] >= OPT/4. A 300-sample mean has noticeable
  // variance, so allow a small statistical slack below the bound — in
  // practice the mean sits far above it.
  EXPECT_GE(expected_utility, 0.25 * opt * 0.9)
      << "E[ALG]=" << expected_utility << " OPT=" << opt;
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremTwoTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(TheoryTest, AlphaHalfSamplingBoundHoldsAgainstLp) {
  // The proof's intermediate inequality: E[ALG] >= α(1-α)·LP*.
  Rng master(77);
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(TinyConfig(10, 9), &gen_rng);
  ASSERT_TRUE(instance.ok());
  const double lp_value = LpOptimum(*instance);
  if (lp_value <= 1e-9) GTEST_SKIP();
  LpPackingOptions options;
  options.alpha = 0.5;
  const int trials = 400;
  double total = 0.0;
  for (int t = 0; t < trials; ++t) {
    Rng rng = master.Fork();
    auto result = LpPacking(*instance, &rng, options);
    ASSERT_TRUE(result.ok());
    total += result->Utility(*instance);
  }
  EXPECT_GE(total / trials, 0.25 * lp_value * 0.9);
}

TEST(TheoryTest, PaperAlphaOneDominatesAlphaHalfOnAverage) {
  // The experiments set α=1 because sampling more mass yields more pairs;
  // verify that design choice empirically.
  Rng master(88);
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(TinyConfig(10, 12), &gen_rng);
  ASSERT_TRUE(instance.ok());
  const int trials = 200;
  double total_half = 0.0, total_one = 0.0;
  for (int t = 0; t < trials; ++t) {
    Rng rng_half = master.Fork();
    LpPackingOptions half;
    half.alpha = 0.5;
    auto a = LpPacking(*instance, &rng_half, half);
    ASSERT_TRUE(a.ok());
    total_half += a->Utility(*instance);
    Rng rng_one = master.Fork();
    auto b = LpPacking(*instance, &rng_one, {});
    ASSERT_TRUE(b.ok());
    total_one += b->Utility(*instance);
  }
  EXPECT_GT(total_one, total_half);
}

}  // namespace
}  // namespace core
}  // namespace igepa
