// The structured dual skips a user's oracle scan while the user's last scan
// certifies that its best set cannot have changed (DESIGN.md §5, S19). A
// wrong skip would leave a stale choice behind, so these tests recompute
// every user's oracle by brute force at the reported μ and compare bit for
// bit: on a Meetup-style solve long enough for most scans to be skipped, and
// on a warm re-solve of a delta-mutated (dirty) catalog.

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/instance_delta.h"
#include "gen/delta_stream.h"
#include "gen/meetup_sim.h"
#include "util/rng.h"

namespace igepa {
namespace core {
namespace {

/// Users per oracle shard in the solver's Lagrangian merge.
constexpr int32_t kShardUsers = 64;

/// A Table II-style Meetup simulation, scaled down: capacities 2–10 keep the
/// events contested, and at target gap 0.003 the cold solve runs several
/// hundred iterations, most of whose user scans are skipped.
Instance MakeMeetup() {
  gen::MeetupConfig config;
  config.num_users = 400;
  config.num_events = 60;
  config.min_capacity = 2;
  config.max_capacity = 10;
  Rng rng(1);
  auto instance = gen::GenerateMeetup(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

StructuredDualOptions TightOptions(int32_t threads) {
  StructuredDualOptions options;
  options.target_gap = 0.003;
  options.num_threads = threads;
  return options;
}

/// Checks the solver's reported oracle against a brute-force scan at the
/// reported μ: each user's choice is the first column with the strictly
/// largest w − Σμ (summed left to right over the set, as the solver does),
/// or −1 with value 0.0 when no set is positive; the user rows of `duals`
/// hold those values; and `upper_bound` is L(μ) summed in the solver's
/// documented order, Σ c_v·μ_v first, then the per-shard partials in shard
/// order.
void ExpectExactOracle(const Instance& instance,
                       const AdmissibleCatalog& catalog,
                       const lp::LpSolution& sol, const DualWarmStart& warm) {
  const int32_t nu = instance.num_users();
  const int32_t nv = instance.num_events();
  ASSERT_EQ(static_cast<int32_t>(warm.mu.size()), nv);
  ASSERT_EQ(static_cast<int32_t>(warm.choice.size()), nu);
  ASSERT_EQ(static_cast<int32_t>(warm.choice_value.size()), nu);
  for (EventId v = 0; v < nv; ++v) {
    EXPECT_EQ(sol.duals[static_cast<size_t>(nu + v)],
              warm.mu[static_cast<size_t>(v)]);
  }
  double lagrangian = 0.0;
  for (EventId v = 0; v < nv; ++v) {
    lagrangian += static_cast<double>(instance.event_capacity(v)) *
                  warm.mu[static_cast<size_t>(v)];
  }
  double shard_partial = 0.0;
  for (UserId u = 0; u < nu; ++u) {
    double best = 0.0;
    int32_t best_col = -1;
    for (int32_t j = catalog.user_columns_begin(u);
         j < catalog.user_columns_end(u); ++j) {
      double mu_sum = 0.0;
      for (const EventId v : catalog.set(j)) {
        mu_sum += warm.mu[static_cast<size_t>(v)];
      }
      const double reduced = catalog.weight(j) - mu_sum;
      if (reduced > best) {
        best = reduced;
        best_col = j;
      }
    }
    EXPECT_EQ(warm.choice[static_cast<size_t>(u)], best_col) << "user " << u;
    EXPECT_EQ(warm.choice_value[static_cast<size_t>(u)], best) << "user " << u;
    EXPECT_EQ(sol.duals[static_cast<size_t>(u)], best) << "user " << u;
    if (best_col >= 0) shard_partial += best;
    if ((u + 1) % kShardUsers == 0 || u + 1 == nu) {
      lagrangian += shard_partial;
      shard_partial = 0.0;
    }
  }
  EXPECT_EQ(sol.upper_bound, lagrangian);
}

TEST(CertifiedSkipTest, LongMeetupSolveReportsExactOracle) {
  const Instance instance = MakeMeetup();
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  DualWarmStart warm;
  auto sol =
      SolveBenchmarkLpStructured(instance, catalog, TightOptions(1), &warm);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // The skip only pays, and can only go wrong, over a long trajectory.
  EXPECT_GE(sol->iterations, 300);
  ExpectExactOracle(instance, catalog, *sol, warm);

  // The skip decisions depend on no thread count.
  DualWarmStart threaded_warm;
  auto threaded = SolveBenchmarkLpStructured(instance, catalog,
                                             TightOptions(3), &threaded_warm);
  ASSERT_TRUE(threaded.ok());
  EXPECT_EQ(threaded->iterations, sol->iterations);
  EXPECT_EQ(threaded->x, sol->x);
  EXPECT_EQ(threaded->duals, sol->duals);
  EXPECT_EQ(threaded->upper_bound, sol->upper_bound);
  EXPECT_EQ(threaded_warm.choice, warm.choice);
}

TEST(CertifiedSkipTest, WarmResolveOnDirtyCatalogReportsExactOracle) {
  Instance instance = MakeMeetup();
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  DualWarmStart warm;
  ASSERT_TRUE(
      SolveBenchmarkLpStructured(instance, catalog, TightOptions(1), &warm)
          .ok());

  // 60 re-registrations and two capacity changes, applied without
  // compaction so the re-solve walks tombstones and overflow lists.
  Rng rng(5);
  gen::DeltaStreamConfig config;
  config.num_ticks = 1;
  config.user_updates_per_tick = 60;
  config.event_updates_per_tick = 2;
  const auto stream = gen::GenerateDeltaStream(instance, config, &rng);
  ASSERT_EQ(stream.size(), 1u);
  ASSERT_TRUE(ApplyDelta(&instance, stream[0]).ok());
  CatalogDeltaOptions no_compact;
  no_compact.compact_min_dead_columns = 1 << 30;
  auto delta = catalog.ApplyDelta(instance, stream[0], no_compact);
  ASSERT_TRUE(delta.ok());
  ASSERT_FALSE(catalog.canonical());
  warm.stale.assign(static_cast<size_t>(instance.num_users()), 0);
  for (const UserId u : delta->touched_users) {
    warm.stale[static_cast<size_t>(u)] = 1;
  }

  StructuredDualOptions options = TightOptions(1);
  options.warm = &warm;
  DualWarmStart warm_out;
  auto sol = SolveBenchmarkLpStructured(instance, catalog, options, &warm_out);
  ASSERT_TRUE(sol.ok()) << sol.status();
  // Long enough for users scanned after the first iteration to be skipped.
  EXPECT_GE(sol->iterations, 10);
  ExpectExactOracle(instance, catalog, *sol, warm_out);
}

}  // namespace
}  // namespace core
}  // namespace igepa
