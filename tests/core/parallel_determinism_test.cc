// Equivalence tests pinning the shard-parallel pipeline to the serial path:
// for threads ∈ {1, 2, 8}, the structured dual solver, the rounding/repair
// stage and the end-to-end LP-packing run must produce bit-identical duals,
// objectives and arrangements. This is the contract that lets every caller
// treat the thread count as a pure performance knob (DESIGN.md §5, S14).

#include <gtest/gtest.h>

#include <vector>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace igepa {
namespace core {
namespace {

constexpr int32_t kThreadCounts[] = {1, 2, 8};

// Large enough to clear the parallel gates of both the dual oracle
// (128 users) and the rounding stage (512 users).
Instance MakeSeededInstance(uint64_t seed) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_events = 50;
  config.num_users = 600;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

TEST(ParallelDeterminismTest, CatalogBuildIdenticalAcrossThreadCounts) {
  const Instance instance = MakeSeededInstance(101);
  AdmissibleOptions base;
  base.num_threads = 1;
  const AdmissibleCatalog reference = AdmissibleCatalog::Build(instance, base);
  for (int32_t threads : kThreadCounts) {
    AdmissibleOptions options;
    options.num_threads = threads;
    const AdmissibleCatalog catalog =
        AdmissibleCatalog::Build(instance, options);
    EXPECT_EQ(catalog.pool(), reference.pool()) << "threads=" << threads;
    EXPECT_EQ(catalog.col_begin(), reference.col_begin());
    EXPECT_EQ(catalog.user_begin(), reference.user_begin());
    EXPECT_EQ(catalog.weights(), reference.weights());
    EXPECT_EQ(catalog.col_users(), reference.col_users());
  }
}

TEST(ParallelDeterminismTest, StructuredDualBitIdenticalAcrossThreadCounts) {
  const Instance instance = MakeSeededInstance(202);
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance, {});
  StructuredDualOptions base;
  base.max_iterations = 300;
  base.num_threads = 1;
  auto reference = SolveBenchmarkLpStructured(instance, catalog, base);
  ASSERT_TRUE(reference.ok()) << reference.status();
  for (int32_t threads : kThreadCounts) {
    StructuredDualOptions options = base;
    options.num_threads = threads;
    auto sol = SolveBenchmarkLpStructured(instance, catalog, options);
    ASSERT_TRUE(sol.ok()) << "threads=" << threads << ": " << sol.status();
    EXPECT_EQ(sol->objective, reference->objective) << "threads=" << threads;
    EXPECT_EQ(sol->upper_bound, reference->upper_bound);
    EXPECT_EQ(sol->iterations, reference->iterations);
    EXPECT_EQ(sol->status, reference->status);
    ASSERT_EQ(sol->x.size(), reference->x.size());
    EXPECT_EQ(sol->x, reference->x) << "threads=" << threads;
    ASSERT_EQ(sol->duals.size(), reference->duals.size());
    EXPECT_EQ(sol->duals, reference->duals) << "threads=" << threads;
  }
}

TEST(ParallelDeterminismTest, RoundingBitIdenticalAcrossThreadCounts) {
  const Instance instance = MakeSeededInstance(303);
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance, {});
  LpPackingOptions base;
  base.structured.max_iterations = 300;
  base.num_threads = 1;
  auto fractional = SolveBenchmarkLpForPacking(instance, catalog, base);
  ASSERT_TRUE(fractional.ok()) << fractional.status();

  for (RepairOrder repair : {RepairOrder::kUserIndex, RepairOrder::kRandom,
                             RepairOrder::kWeightDesc}) {
    LpPackingOptions ref_options = base;
    ref_options.repair_order = repair;
    Rng ref_rng(77);
    LpPackingStats ref_stats;
    auto reference = RoundFractional(instance, catalog, *fractional, &ref_rng,
                                     ref_options, &ref_stats);
    ASSERT_TRUE(reference.ok()) << reference.status();
    for (int32_t threads : kThreadCounts) {
      LpPackingOptions options = ref_options;
      options.num_threads = threads;
      Rng rng(77);
      LpPackingStats stats;
      auto rounded =
          RoundFractional(instance, catalog, *fractional, &rng, options,
                          &stats);
      ASSERT_TRUE(rounded.ok())
          << "threads=" << threads << ": " << rounded.status();
      EXPECT_EQ(rounded->pairs(), reference->pairs())
          << "threads=" << threads
          << " repair=" << static_cast<int>(repair);
      EXPECT_EQ(stats.users_sampled, ref_stats.users_sampled);
      EXPECT_EQ(stats.pairs_repaired, ref_stats.pairs_repaired);
      EXPECT_EQ(rounded->Utility(instance), reference->Utility(instance));
    }
  }
}

TEST(ParallelDeterminismTest, CatalogRescoreIdenticalAcrossThreadCounts) {
  const Instance instance = MakeSeededInstance(505);
  AdmissibleCatalog reference = AdmissibleCatalog::Build(instance, {});
  reference.Rescore(instance);
  for (int32_t threads : kThreadCounts) {
    AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance, {});
    EXPECT_EQ(catalog.Rescore(instance, threads),
              reference.num_live_columns())
        << "threads=" << threads;
    EXPECT_EQ(catalog.weights(), reference.weights()) << "threads=" << threads;
  }
}

// The borrowed-pool path (options.workers) and the per-shard/per-lane
// rounding arenas: the same solve + rounding on caller-owned pools of 1, 2
// and 8 lanes must reproduce the serial run bit for bit, including the
// exported RoundingState (sampled columns, per-event demand from the lane
// counters, repair cutoffs) — the arenas only move where counting happens,
// never what is counted.
TEST(ParallelDeterminismTest, BorrowedPoolAndRoundingStateIdentical) {
  const Instance instance = MakeSeededInstance(606);
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance, {});
  LpPackingOptions base;
  base.structured.max_iterations = 300;
  base.num_threads = 1;
  auto fractional = SolveBenchmarkLpForPacking(instance, catalog, base);
  ASSERT_TRUE(fractional.ok()) << fractional.status();

  StructuredDualOptions dual_base;
  dual_base.max_iterations = 300;
  dual_base.num_threads = 1;
  auto dual_reference = SolveBenchmarkLpStructured(instance, catalog,
                                                   dual_base);
  ASSERT_TRUE(dual_reference.ok()) << dual_reference.status();

  Rng ref_rng(91);
  RoundingState ref_state;
  auto reference = RoundFractional(instance, catalog, *fractional, &ref_rng,
                                   base, nullptr, &ref_state);
  ASSERT_TRUE(reference.ok()) << reference.status();

  for (int32_t threads : kThreadCounts) {
    ThreadPool pool(threads);

    StructuredDualOptions dual_options = dual_base;
    dual_options.workers = &pool;
    auto sol = SolveBenchmarkLpStructured(instance, catalog, dual_options);
    ASSERT_TRUE(sol.ok()) << "lanes=" << threads << ": " << sol.status();
    EXPECT_EQ(sol->objective, dual_reference->objective)
        << "lanes=" << threads;
    EXPECT_EQ(sol->upper_bound, dual_reference->upper_bound);
    EXPECT_EQ(sol->x, dual_reference->x) << "lanes=" << threads;
    EXPECT_EQ(sol->duals, dual_reference->duals) << "lanes=" << threads;

    LpPackingOptions options = base;
    options.workers = &pool;
    Rng rng(91);
    RoundingState state;
    auto rounded = RoundFractional(instance, catalog, *fractional, &rng,
                                   options, nullptr, &state);
    ASSERT_TRUE(rounded.ok()) << "lanes=" << threads << ": "
                              << rounded.status();
    EXPECT_EQ(rounded->pairs(), reference->pairs()) << "lanes=" << threads;
    EXPECT_EQ(state.sampled_col, ref_state.sampled_col)
        << "lanes=" << threads;
    EXPECT_EQ(state.demand, ref_state.demand) << "lanes=" << threads;
    EXPECT_EQ(state.cutoff, ref_state.cutoff) << "lanes=" << threads;
    EXPECT_EQ(state.catalog_revision, ref_state.catalog_revision);
  }
}

TEST(ParallelDeterminismTest, LpPackingEndToEndIdenticalAcrossThreadCounts) {
  const Instance instance = MakeSeededInstance(404);
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance, {});
  LpPackingOptions base;
  base.structured.max_iterations = 200;
  base.num_threads = 1;
  base.structured.num_threads = 1;
  Rng ref_rng(5);
  auto reference = LpPackingWithCatalog(instance, catalog, &ref_rng, base);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->CheckFeasible(instance).ok());
  for (int32_t threads : kThreadCounts) {
    LpPackingOptions options = base;
    options.num_threads = threads;
    options.structured.num_threads = threads;
    Rng rng(5);
    auto arrangement = LpPackingWithCatalog(instance, catalog, &rng, options);
    ASSERT_TRUE(arrangement.ok())
        << "threads=" << threads << ": " << arrangement.status();
    EXPECT_EQ(arrangement->pairs(), reference->pairs())
        << "threads=" << threads;
    EXPECT_EQ(arrangement->Utility(instance), reference->Utility(instance));
  }
}

}  // namespace
}  // namespace core
}  // namespace igepa
