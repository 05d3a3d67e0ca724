// Localized re-rounding equivalence (DESIGN.md S15): the delta re-round —
// resample only touched users, recompute cutoffs only at touched events —
// must equal the canonical full repair (RepairSampledColumns) on the same
// sample vector, exactly.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/instance_delta.h"
#include "core/lp_packing.h"
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
  config.num_events = 40;
  // Tight capacities so the repair path is actually exercised.
  config.max_event_capacity = 8;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

FractionalSolution Solve(const Instance& instance,
                         const AdmissibleCatalog& catalog,
                         const StructuredDualOptions& dual) {
  FractionalSolution fractional;
  auto sol = SolveBenchmarkLpStructured(instance, catalog, dual);
  EXPECT_TRUE(sol.ok());
  fractional.lp = std::move(*sol);
  return fractional;
}

TEST(RoundingDeltaTest, FullRoundMatchesCanonicalRepair) {
  const Instance instance = MakeInstance(400, 3);
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions dual;
  dual.num_threads = 1;
  const FractionalSolution fractional = Solve(instance, catalog, dual);
  Rng rng(17);
  RoundingState state;
  auto full = RoundFractional(instance, catalog, fractional, &rng, {},
                              nullptr, &state);
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(full->CheckFeasible(instance).ok());
  auto canonical = RepairSampledColumns(instance, catalog, state.sampled_col);
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(full->pairs(), canonical->pairs());
}

TEST(RoundingDeltaTest, DeltaRoundMatchesCanonicalRepairAcrossStream) {
  Instance instance = MakeInstance(300, 9);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions dual;
  dual.num_threads = 1;
  FractionalSolution fractional = Solve(instance, catalog, dual);
  Rng rng(29);
  RoundingState state;
  ASSERT_TRUE(RoundFractional(instance, catalog, fractional, &rng, {}, nullptr,
                              &state)
                  .ok());

  Rng stream_rng(31);
  gen::DeltaStreamConfig config;
  config.num_ticks = 5;
  config.user_updates_per_tick = 6;
  config.event_updates_per_tick = 2;
  const auto stream = gen::GenerateDeltaStream(instance, config, &stream_rng);
  CatalogDeltaOptions no_compact;
  no_compact.compact_min_dead_columns = 1 << 30;
  for (const InstanceDelta& delta : stream) {
    const auto touched = TouchedUsers(delta);
    std::vector<EventId> dirty_events =
        RetireSamples(catalog, touched, &state);
    const auto cap_events = TouchedEvents(delta);
    dirty_events.insert(dirty_events.end(), cap_events.begin(),
                        cap_events.end());
    ASSERT_TRUE(ApplyDelta(&instance, delta).ok());
    ASSERT_TRUE(catalog.ApplyDelta(instance, delta, no_compact).ok());
    fractional = Solve(instance, catalog, dual);
    LpPackingStats stats;
    auto localized =
        RoundFractionalDelta(instance, catalog, fractional, touched,
                             dirty_events, &rng, &state, {}, &stats);
    ASSERT_TRUE(localized.ok());
    ASSERT_TRUE(localized->CheckFeasible(instance).ok());
    // Pinned: event-local repair == full repair on the same samples.
    auto canonical =
        RepairSampledColumns(instance, catalog, state.sampled_col);
    ASSERT_TRUE(canonical.ok());
    EXPECT_EQ(localized->pairs(), canonical->pairs());
    EXPECT_EQ(stats.num_columns, catalog.num_live_columns());
  }
}

TEST(RoundingDeltaTest, StateRejectsNonUserIndexOrderAndStaleRevision) {
  Instance instance = MakeInstance(128, 7);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions dual;
  dual.num_threads = 1;
  const FractionalSolution fractional = Solve(instance, catalog, dual);
  Rng rng(5);
  RoundingState state;
  LpPackingOptions shuffled;
  shuffled.repair_order = RepairOrder::kRandom;
  EXPECT_FALSE(RoundFractional(instance, catalog, fractional, &rng, shuffled,
                               nullptr, &state)
                   .ok());
  ASSERT_TRUE(RoundFractional(instance, catalog, fractional, &rng, {}, nullptr,
                              &state)
                  .ok());
  EXPECT_FALSE(RoundFractionalDelta(instance, catalog, fractional, {}, {},
                                    &rng, &state, shuffled)
                   .ok());
  // Compaction without a remap invalidates the state's ids.
  catalog.Compact();
  auto stale = RoundFractionalDelta(instance, catalog, fractional, {}, {},
                                    &rng, &state);
  EXPECT_FALSE(stale.ok());
}

TEST(RoundingDeltaTest, RemapKeepsStateUsableAcrossCompaction) {
  Instance instance = MakeInstance(250, 43);
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  StructuredDualOptions dual;
  dual.num_threads = 1;
  FractionalSolution fractional = Solve(instance, catalog, dual);
  Rng rng(47);
  RoundingState state;
  ASSERT_TRUE(RoundFractional(instance, catalog, fractional, &rng, {}, nullptr,
                              &state)
                  .ok());

  Rng stream_rng(53);
  gen::DeltaStreamConfig config;
  config.num_ticks = 1;
  config.user_updates_per_tick = 8;
  const auto stream = gen::GenerateDeltaStream(instance, config, &stream_rng);
  const auto touched = TouchedUsers(stream[0]);
  std::vector<EventId> dirty_events =
      RetireSamples(catalog, touched, &state);
  ASSERT_TRUE(ApplyDelta(&instance, stream[0]).ok());
  CatalogDeltaOptions always_compact;
  always_compact.compact_tombstone_fraction = 0.0;
  always_compact.compact_min_dead_columns = 1;
  auto result = catalog.ApplyDelta(instance, stream[0], always_compact);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->compacted);
  state.Remap(result->column_remap, catalog.ids_revision());

  fractional = Solve(instance, catalog, dual);
  auto localized = RoundFractionalDelta(instance, catalog, fractional, touched,
                                        dirty_events, &rng, &state);
  ASSERT_TRUE(localized.ok());
  ASSERT_TRUE(localized->CheckFeasible(instance).ok());
  auto canonical = RepairSampledColumns(instance, catalog, state.sampled_col);
  ASSERT_TRUE(canonical.ok());
  EXPECT_EQ(localized->pairs(), canonical->pairs());
}

}  // namespace
}  // namespace core
}  // namespace igepa
