// Warm-start behavior of the structured dual solver (DESIGN.md S15): a warm
// re-solve after a small delta must agree with a cold solve within the
// certified tolerance 2·target_gap, be bit-identical for every thread count,
// and cost far fewer iterations than the cold solve it replaces.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/instance_delta.h"
#include "gen/arrival_process.h"
#include "gen/delta_stream.h"
#include "gen/synthetic.h"
#include "util/rng.h"

namespace igepa {
namespace core {
namespace {

Instance MakeInstance(int32_t users, uint64_t seed) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_users = users;
  config.num_events = 50;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

/// Mutates ~1% of users and returns the warm start prepared for the re-solve.
DualWarmStart MutateAndPrepareWarm(Instance* instance,
                                   AdmissibleCatalog* catalog,
                                   DualWarmStart warm, int32_t touched_count,
                                   uint64_t seed) {
  Rng rng(seed);
  gen::DeltaStreamConfig config;
  config.num_ticks = 1;
  config.user_updates_per_tick = touched_count;
  config.event_updates_per_tick = 1;
  const auto stream = gen::GenerateDeltaStream(*instance, config, &rng);
  EXPECT_EQ(stream.size(), 1u);
  EXPECT_TRUE(ApplyDelta(instance, stream[0]).ok());
  CatalogDeltaOptions no_compact;
  no_compact.compact_min_dead_columns = 1 << 30;
  auto result = catalog->ApplyDelta(*instance, stream[0], no_compact);
  EXPECT_TRUE(result.ok());
  EXPECT_FALSE(result->compacted);
  warm.stale.assign(static_cast<size_t>(instance->num_users()), 0);
  for (UserId u : result->touched_users) {
    warm.stale[static_cast<size_t>(u)] = 1;
  }
  return warm;
}

TEST(WarmDualTest, WarmMatchesColdWithinCertifiedTolerance) {
  Instance instance = MakeInstance(500, 5);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  auto base = SolveBenchmarkLpStructured(instance, catalog, options, &warm);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->status, lp::SolveStatus::kApproximate);

  warm = MutateAndPrepareWarm(&instance, &catalog, std::move(warm), 5, 99);

  StructuredDualOptions warm_options = options;
  warm_options.warm = &warm;
  auto warmed = SolveBenchmarkLpStructured(instance, catalog, warm_options);
  auto cold = SolveBenchmarkLpStructured(instance, catalog, options);
  ASSERT_TRUE(warmed.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(warmed->status, lp::SolveStatus::kApproximate);
  EXPECT_EQ(cold->status, lp::SolveStatus::kApproximate);
  // Both primals are certified within target_gap of the LP optimum, so they
  // agree within 2·target_gap (the S15 warm-path tolerance).
  const double tolerance =
      2.0 * options.target_gap * std::max(1.0, std::abs(cold->upper_bound));
  EXPECT_NEAR(warmed->objective, cold->objective, tolerance);
  // The warm trajectory starts at the previous optimum: it must certify in
  // far fewer subgradient iterations than the cold restart.
  EXPECT_LT(warmed->iterations, cold->iterations);
  EXPECT_LE(warmed->iterations, kGapCheckEvery);
}

TEST(WarmDualTest, WarmRestartWithoutDeltaCertifiesImmediately) {
  Instance instance = MakeInstance(400, 21);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  auto base = SolveBenchmarkLpStructured(instance, catalog, options, &warm);
  ASSERT_TRUE(base.ok());
  ASSERT_EQ(base->status, lp::SolveStatus::kApproximate);
  StructuredDualOptions warm_options = options;
  warm_options.warm = &warm;
  auto again = SolveBenchmarkLpStructured(instance, catalog, warm_options);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->status, lp::SolveStatus::kApproximate);
  EXPECT_LE(again->iterations, kGapCheckEvery);
}

TEST(WarmDualTest, WarmSolveBitIdenticalForEveryThreadCount) {
  Instance instance = MakeInstance(600, 31);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  ASSERT_TRUE(
      SolveBenchmarkLpStructured(instance, catalog, options, &warm).ok());
  warm = MutateAndPrepareWarm(&instance, &catalog, std::move(warm), 6, 77);

  StructuredDualOptions warm_options = options;
  warm_options.warm = &warm;
  auto reference = SolveBenchmarkLpStructured(instance, catalog, warm_options);
  ASSERT_TRUE(reference.ok());
  for (int32_t threads : {2, 8}) {
    StructuredDualOptions threaded = warm_options;
    threaded.num_threads = threads;
    auto sol = SolveBenchmarkLpStructured(instance, catalog, threaded);
    ASSERT_TRUE(sol.ok());
    EXPECT_EQ(sol->objective, reference->objective) << "threads=" << threads;
    EXPECT_EQ(sol->upper_bound, reference->upper_bound);
    EXPECT_EQ(sol->iterations, reference->iterations);
    EXPECT_EQ(sol->x, reference->x);
    EXPECT_EQ(sol->duals, reference->duals);
  }
}

TEST(WarmDualTest, MissingStaleMaskDegradesToRescanForCachedChoices) {
  // The solver validates cached choices against the owner's current column
  // range, so a warm start whose stale mask was forgotten still rescans every
  // touched user that had a cached set (their ranges moved) — bit-identical
  // to the marked run here, where every touched user's cached choice is a
  // real column. (A cached -1 cannot be range-checked; the stale mask itself
  // is the contract.)
  Instance instance = MakeInstance(350, 41);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  ASSERT_TRUE(
      SolveBenchmarkLpStructured(instance, catalog, options, &warm).ok());
  warm = MutateAndPrepareWarm(&instance, &catalog, std::move(warm), 4, 55);

  DualWarmStart unmarked = warm;
  unmarked.stale.clear();
  StructuredDualOptions marked_options = options;
  marked_options.warm = &warm;
  StructuredDualOptions unmarked_options = options;
  unmarked_options.warm = &unmarked;
  auto marked = SolveBenchmarkLpStructured(instance, catalog, marked_options);
  auto loose = SolveBenchmarkLpStructured(instance, catalog, unmarked_options);
  ASSERT_TRUE(marked.ok());
  ASSERT_TRUE(loose.ok());
  EXPECT_EQ(marked->objective, loose->objective);
  EXPECT_EQ(marked->upper_bound, loose->upper_bound);
  EXPECT_EQ(marked->x, loose->x);
  EXPECT_EQ(marked->duals, loose->duals);
}

TEST(WarmDualTest, RemapKeepsWarmChoicesAliveAcrossCompaction) {
  Instance instance = MakeInstance(400, 61);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  ASSERT_TRUE(
      SolveBenchmarkLpStructured(instance, catalog, options, &warm).ok());
  warm = MutateAndPrepareWarm(&instance, &catalog, std::move(warm), 4, 91);

  // Warm solve on the dirty catalog…
  StructuredDualOptions warm_options = options;
  warm_options.warm = &warm;
  auto dirty = SolveBenchmarkLpStructured(instance, catalog, warm_options);
  ASSERT_TRUE(dirty.ok());

  // …must be bit-identical to the warm solve on its compacted twin once the
  // cached ids are remapped.
  const auto remap = catalog.Compact();
  DualWarmStart remapped = warm;
  remapped.Remap(remap, catalog.ids_revision());
  StructuredDualOptions remapped_options = options;
  remapped_options.warm = &remapped;
  auto compacted =
      SolveBenchmarkLpStructured(instance, catalog, remapped_options);
  ASSERT_TRUE(compacted.ok());
  EXPECT_EQ(dirty->objective, compacted->objective);
  EXPECT_EQ(dirty->upper_bound, compacted->upper_bound);
  EXPECT_EQ(dirty->iterations, compacted->iterations);
  EXPECT_EQ(dirty->duals, compacted->duals);
}

/// Serving-scale warm re-solves (DESIGN.md S15): a synthetic |U| × 200
/// instance, then 20 ticks that each coalesce `batch` arrivals of a
/// gen::GenerateArrivalProcess stream, apply them to the instance and the
/// catalog, mark the touched users stale and re-solve warm from the previous
/// tick's warm start. Every tick's warm objective must stay within
/// 2·target_gap of a cold solve of the same catalog. Returns the warm
/// iterations summed over the ticks.
int64_t WarmIterationsOverArrivalTicks(int32_t users, int32_t batch) {
  constexpr int32_t kTicks = 20;
  Rng rng(7);
  gen::SyntheticConfig config;
  config.num_users = users;
  config.num_events = 200;
  auto generated = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(generated.ok());
  Instance instance = std::move(generated).value();
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions options;
  options.num_threads = 1;
  DualWarmStart warm;
  EXPECT_TRUE(
      SolveBenchmarkLpStructured(instance, catalog, options, &warm).ok());

  gen::ArrivalProcessConfig stream;
  stream.num_arrivals = kTicks * batch;
  const auto arrivals = gen::GenerateArrivalProcess(instance, stream, &rng);
  EXPECT_EQ(arrivals.size(), static_cast<size_t>(kTicks * batch));
  int64_t warm_iterations = 0;
  for (int32_t tick = 0; tick < kTicks; ++tick) {
    InstanceDelta delta;
    for (int32_t i = tick * batch; i < (tick + 1) * batch; ++i) {
      const InstanceDelta& one = arrivals[static_cast<size_t>(i)].delta;
      delta.user_updates.insert(delta.user_updates.end(),
                                one.user_updates.begin(),
                                one.user_updates.end());
      delta.event_updates.insert(delta.event_updates.end(),
                                 one.event_updates.begin(),
                                 one.event_updates.end());
    }
    const std::vector<UserId> touched = WarmTouchedUsers(instance, delta);
    EXPECT_TRUE(ApplyDelta(&instance, delta).ok());
    auto result = catalog.ApplyDelta(instance, delta, {});
    EXPECT_TRUE(result.ok());
    if (result->compacted) {
      warm.Remap(result->column_remap, catalog.ids_revision());
    }
    warm.stale.assign(static_cast<size_t>(instance.num_users()), 0);
    for (UserId u : touched) warm.stale[static_cast<size_t>(u)] = 1;

    StructuredDualOptions warm_options = options;
    warm_options.warm = &warm;
    DualWarmStart next;
    auto warmed =
        SolveBenchmarkLpStructured(instance, catalog, warm_options, &next);
    auto cold = SolveBenchmarkLpStructured(instance, catalog, options);
    EXPECT_TRUE(warmed.ok());
    EXPECT_TRUE(cold.ok());
    EXPECT_EQ(warmed->status, lp::SolveStatus::kApproximate) << tick;
    EXPECT_NEAR(warmed->objective, cold->objective,
                2.0 * options.target_gap *
                    std::max(1.0, std::abs(cold->upper_bound)))
        << "tick " << tick;
    warm_iterations += warmed->iterations;
    warm = std::move(next);
  }
  return warm_iterations;
}

// The warm schedule at serving scale: the fine-step probe and the checks at
// every averaging-window end certify most ticks within a window or two
// (82 and 46 iterations in all). With the full cold step and checks only
// at t = 1 and every kGapCheckEvery iterations, these streams took 600 and 975.
TEST(WarmDualTest, ServingScaleTicksCertifyInFewIterations) {
  EXPECT_LE(WarmIterationsOverArrivalTicks(4000, 256), 250);
  EXPECT_LE(WarmIterationsOverArrivalTicks(8000, 27), 150);
}

}  // namespace
}  // namespace core
}  // namespace igepa
