// ArrangementService: the deterministic-mode equivalence pin (an epoch over a
// coalesced batch is bit-identical to driving the incremental engine
// directly), plus queueing, backpressure, validation and lifecycle behavior.

#include "serve/arrangement_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "gen/arrival_process.h"
#include "gen/delta_stream.h"
#include "gen/synthetic.h"
#include "util/rng.h"

namespace igepa {
namespace serve {
namespace {

core::Instance MakeInstance(int32_t users, uint64_t seed) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_users = users;
  config.num_events = 30;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

std::vector<core::InstanceDelta> MakeDeltas(const core::Instance& instance,
                                            int32_t count, uint64_t seed) {
  Rng rng(seed);
  gen::ArrivalProcessConfig config;
  config.num_arrivals = count;
  std::vector<core::InstanceDelta> deltas;
  for (core::ArrivalEvent& arrival :
       gen::GenerateArrivalProcess(instance, config, &rng)) {
    deltas.push_back(std::move(arrival.delta));
  }
  EXPECT_EQ(static_cast<int32_t>(deltas.size()), count);
  return deltas;
}

/// The incremental engine driven by hand with the exact RNG fork discipline
/// the service documents: one master fork for the bootstrap re-round, one
/// more per non-empty epoch. This is the reference half of the acceptance
/// pin — the service must reproduce it bit for bit.
struct DirectEngine {
  core::Instance instance;
  core::AdmissibleCatalog catalog;
  core::DualWarmStart warm;
  core::RoundingState state;
  core::FractionalSolution fractional;
  core::StructuredDualOptions dual;
  core::CatalogDeltaOptions delta_options;
  core::LpPackingOptions round_options;
  Rng master;
  core::Arrangement arrangement;

  DirectEngine(core::Instance base, const ServeOptions& options)
      : instance(std::move(base)), master(options.seed) {
    dual = options.dual;
    dual.num_threads = options.num_threads;
    core::AdmissibleOptions admissible = options.admissible;
    admissible.num_threads = options.num_threads;
    delta_options.admissible = options.admissible;
    delta_options.compact_tombstone_fraction =
        options.compact_tombstone_fraction;
    delta_options.compact_min_dead_columns = options.compact_min_dead_columns;
    round_options.alpha = options.alpha;
    round_options.num_threads = options.num_threads;
    round_options.structured = dual;

    catalog = core::AdmissibleCatalog::Build(instance, admissible);
    auto sol = core::SolveBenchmarkLpStructured(instance, catalog, dual,
                                                &warm);
    EXPECT_TRUE(sol.ok());
    fractional.lp = std::move(*sol);
    Rng round_rng = master.Fork();
    auto arr = core::RoundFractional(instance, catalog, fractional,
                                     &round_rng, round_options,
                                     /*stats=*/nullptr, &state);
    EXPECT_TRUE(arr.ok());
    arrangement = std::move(*arr);
  }

  /// One epoch over an already-coalesced batch. `touched` mirrors
  /// core::ApplyWarmTick: WarmTouchedUsers against the pre-delta instance.
  void ApplyBatch(const core::InstanceDelta& batch) {
    const std::vector<core::UserId> touched =
        core::WarmTouchedUsers(instance, batch);
    const std::vector<core::EventId> cap_events = core::TouchedEvents(batch);
    std::vector<core::EventId> dirty =
        core::RetireSamples(catalog, touched, &state);
    dirty.insert(dirty.end(), cap_events.begin(), cap_events.end());
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());

    ASSERT_TRUE(core::ApplyDelta(&instance, batch).ok());
    auto delta_result = catalog.ApplyDelta(instance, batch, delta_options);
    ASSERT_TRUE(delta_result.ok());
    if (delta_result->compacted) {
      state.Remap(delta_result->column_remap, catalog.ids_revision());
      warm.Remap(delta_result->column_remap, catalog.ids_revision());
    }
    warm.stale.assign(static_cast<size_t>(instance.num_users()), 0);
    for (core::UserId u : touched) warm.stale[static_cast<size_t>(u)] = 1;

    core::StructuredDualOptions warm_dual = dual;
    warm_dual.warm = &warm;
    core::DualWarmStart warm_next;
    auto sol = core::SolveBenchmarkLpStructured(instance, catalog, warm_dual,
                                                &warm_next);
    ASSERT_TRUE(sol.ok());
    fractional.lp = std::move(*sol);
    Rng epoch_rng = master.Fork();
    auto arr = core::RoundFractionalDelta(instance, catalog, fractional,
                                          touched, dirty, &epoch_rng, &state,
                                          round_options);
    ASSERT_TRUE(arr.ok());
    arrangement = std::move(*arr);
    warm = std::move(warm_next);
  }
};

ServeOptions TestOptions() {
  ServeOptions options;
  options.num_threads = 1;
  options.seed = 777;
  return options;
}

TEST(ArrangementServiceTest, BootstrapPublishesFeasibleSnapshotV1) {
  auto service = ArrangementService::Create(MakeInstance(150, 3),
                                            TestOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  auto snapshot = (*service)->snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version(), 1);
  EXPECT_EQ(snapshot->epoch(), -1);
  EXPECT_GT(snapshot->lp_objective(), 0.0);
  EXPECT_TRUE(
      snapshot->arrangement().CheckFeasible((*service)->instance()).ok());
}

// The acceptance pin: N deltas submitted into one epoch produce a snapshot
// bit-identical to ApplyDelta + warm solve + RoundFractionalDelta applied to
// the coalesced batch directly.
TEST(ArrangementServiceTest, EpochMatchesDirectEngineBitForBit) {
  const core::Instance base = MakeInstance(220, 5);
  const auto deltas = MakeDeltas(base, 12, 9);
  const ServeOptions options = TestOptions();

  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  for (const auto& delta : deltas) {
    ASSERT_TRUE((*service)->Submit(delta).ok());
  }
  auto metrics = (*service)->RunEpoch();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->deltas_coalesced, 12);

  DirectEngine direct(base, options);
  core::InstanceDelta batch;
  for (const auto& delta : deltas) {
    batch.user_updates.insert(batch.user_updates.end(),
                              delta.user_updates.begin(),
                              delta.user_updates.end());
    batch.event_updates.insert(batch.event_updates.end(),
                               delta.event_updates.begin(),
                               delta.event_updates.end());
  }
  direct.ApplyBatch(batch);

  auto snapshot = (*service)->snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->version(), 2);
  EXPECT_EQ(snapshot->lp_objective(), direct.fractional.lp.objective);
  EXPECT_EQ(snapshot->utility(), direct.arrangement.Utility(direct.instance));
  EXPECT_EQ(snapshot->arrangement().pairs(), direct.arrangement.pairs());
}

// The weight-delta kinds (graph edges, interest drift) route through the
// same epoch path and stay pinned to the direct engine bit for bit.
TEST(ArrangementServiceTest, WeightDeltaEpochMatchesDirectEngineBitForBit) {
  const core::Instance base = MakeInstance(220, 15);
  Rng rng(21);
  gen::ArrivalProcessConfig config;
  config.num_arrivals = 12;
  config.p_graph_edge = 0.35;
  config.p_interest_drift = 0.35;
  std::vector<core::InstanceDelta> deltas;
  size_t weight_deltas = 0;
  for (core::ArrivalEvent& arrival :
       gen::GenerateArrivalProcess(base, config, &rng)) {
    weight_deltas += arrival.delta.has_weight_updates() ? 1 : 0;
    deltas.push_back(std::move(arrival.delta));
  }
  ASSERT_GT(weight_deltas, 0u);
  const ServeOptions options = TestOptions();

  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  for (const auto& delta : deltas) {
    ASSERT_TRUE((*service)->Submit(delta).ok());
  }
  auto metrics = (*service)->RunEpoch();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->deltas_coalesced, 12);

  DirectEngine direct(base, options);
  core::InstanceDelta batch;
  for (const auto& delta : deltas) {
    batch.user_updates.insert(batch.user_updates.end(),
                              delta.user_updates.begin(),
                              delta.user_updates.end());
    batch.event_updates.insert(batch.event_updates.end(),
                               delta.event_updates.begin(),
                               delta.event_updates.end());
    batch.graph_updates.insert(batch.graph_updates.end(),
                               delta.graph_updates.begin(),
                               delta.graph_updates.end());
    batch.interest_updates.insert(batch.interest_updates.end(),
                                  delta.interest_updates.begin(),
                                  delta.interest_updates.end());
  }
  direct.ApplyBatch(batch);

  auto snapshot = (*service)->snapshot();
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->lp_objective(), direct.fractional.lp.objective);
  EXPECT_EQ(snapshot->utility(), direct.arrangement.Utility(direct.instance));
  EXPECT_EQ(snapshot->arrangement().pairs(), direct.arrangement.pairs());
  EXPECT_TRUE(
      snapshot->arrangement().CheckFeasible(direct.instance).ok());
}

// Multiple epochs with interleaved batch sizes stay pinned, including across
// forced per-epoch compaction (column ids churn under the warm state).
TEST(ArrangementServiceTest, MultiEpochMatchesDirectEngineUnderCompaction) {
  const core::Instance base = MakeInstance(200, 7);
  const auto deltas = MakeDeltas(base, 15, 13);
  ServeOptions options = TestOptions();
  options.compact_tombstone_fraction = 0.0;
  options.compact_min_dead_columns = 1;  // compact every tombstoning epoch

  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  DirectEngine direct(base, options);

  // Epoch batches of 1, 2, 3, 4, 5 deltas.
  size_t next = 0;
  bool any_compacted = false;
  for (int32_t batch_size = 1; batch_size <= 5; ++batch_size) {
    core::InstanceDelta batch;
    for (int32_t i = 0; i < batch_size; ++i, ++next) {
      ASSERT_TRUE((*service)->Submit(deltas[next]).ok());
      batch.user_updates.insert(batch.user_updates.end(),
                                deltas[next].user_updates.begin(),
                                deltas[next].user_updates.end());
      batch.event_updates.insert(batch.event_updates.end(),
                                 deltas[next].event_updates.begin(),
                                 deltas[next].event_updates.end());
    }
    auto metrics = (*service)->RunEpoch();
    ASSERT_TRUE(metrics.ok());
    EXPECT_EQ(metrics->deltas_coalesced, batch_size);
    any_compacted = any_compacted || metrics->compacted;
    direct.ApplyBatch(batch);
    auto snapshot = (*service)->snapshot();
    EXPECT_EQ(snapshot->lp_objective(), direct.fractional.lp.objective)
        << "batch " << batch_size;
    EXPECT_EQ(snapshot->arrangement().pairs(), direct.arrangement.pairs())
        << "batch " << batch_size;
  }
  EXPECT_TRUE(any_compacted);
}

TEST(ArrangementServiceTest, RunToRunBitReproducible) {
  const core::Instance base = MakeInstance(150, 11);
  const auto deltas = MakeDeltas(base, 8, 17);
  std::vector<double> objectives[2];
  for (int run = 0; run < 2; ++run) {
    auto service = ArrangementService::Create(base, TestOptions());
    ASSERT_TRUE(service.ok());
    for (size_t i = 0; i < deltas.size(); i += 2) {
      ASSERT_TRUE((*service)->Submit(deltas[i]).ok());
      ASSERT_TRUE((*service)->Submit(deltas[i + 1]).ok());
      auto metrics = (*service)->RunEpoch();
      ASSERT_TRUE(metrics.ok());
      objectives[run].push_back(metrics->lp_objective);
      objectives[run].push_back(metrics->utility);
    }
  }
  EXPECT_EQ(objectives[0], objectives[1]);
}

TEST(ArrangementServiceTest, EmptyEpochIsNoOp) {
  const core::Instance base = MakeInstance(120, 13);
  const auto deltas = MakeDeltas(base, 4, 19);
  auto service = ArrangementService::Create(base, TestOptions());
  ASSERT_TRUE(service.ok());

  // No-op epochs: no publish, no epoch advance...
  auto noop = (*service)->RunEpoch();
  ASSERT_TRUE(noop.ok());
  EXPECT_EQ(noop->deltas_coalesced, 0);
  EXPECT_EQ((*service)->snapshot()->version(), 1);
  EXPECT_EQ((*service)->Stats().epochs, 0);

  // ...and no RNG consumption: a run with interleaved no-op epochs matches a
  // direct reference that never saw them.
  DirectEngine direct(base, TestOptions());
  for (const auto& delta : deltas) {
    ASSERT_TRUE((*service)->Submit(delta).ok());
    ASSERT_TRUE((*service)->RunEpoch().ok());
    ASSERT_TRUE((*service)->RunEpoch().ok());  // no-op in between
    direct.ApplyBatch(delta);
  }
  EXPECT_EQ((*service)->snapshot()->arrangement().pairs(),
            direct.arrangement.pairs());
}

TEST(ArrangementServiceTest, MaxBatchBoundsCoalescing) {
  const core::Instance base = MakeInstance(120, 17);
  const auto deltas = MakeDeltas(base, 7, 23);
  ServeOptions options = TestOptions();
  options.max_batch = 3;
  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  for (const auto& delta : deltas) {
    ASSERT_TRUE((*service)->Submit(delta).ok());
  }
  auto first = (*service)->RunEpoch();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->deltas_coalesced, 3);
  EXPECT_EQ((*service)->Stats().deltas_pending, 4);
  ASSERT_TRUE((*service)->RunEpoch().ok());
  auto last = (*service)->RunEpoch();
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->deltas_coalesced, 1);
  EXPECT_EQ((*service)->Stats().deltas_pending, 0);
  EXPECT_EQ((*service)->Stats().deltas_applied, 7);
}

TEST(ArrangementServiceTest, BackpressureRejectsWhenQueueFull) {
  const core::Instance base = MakeInstance(100, 19);
  const auto deltas = MakeDeltas(base, 4, 29);
  ServeOptions options = TestOptions();
  options.queue_capacity = 2;
  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  EXPECT_TRUE((*service)->Submit(deltas[0]).ok());
  EXPECT_TRUE((*service)->Submit(deltas[1]).ok());
  const Status rejected = (*service)->Submit(deltas[2]);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.deltas_submitted, 2);
  EXPECT_EQ(stats.deltas_rejected, 1);
  EXPECT_EQ(stats.deltas_pending, 2);
  // Draining reopens the queue.
  ASSERT_TRUE((*service)->RunEpoch().ok());
  EXPECT_TRUE((*service)->Submit(deltas[3]).ok());
}

TEST(ArrangementServiceTest, SubmitValidatesAgainstFixedIdSpace) {
  auto service = ArrangementService::Create(MakeInstance(50, 23),
                                            TestOptions());
  ASSERT_TRUE(service.ok());
  core::InstanceDelta bad_user;
  bad_user.user_updates.push_back({4999, 1, {0}});
  EXPECT_EQ((*service)->Submit(bad_user).code(),
            StatusCode::kInvalidArgument);
  core::InstanceDelta bad_bid;
  bad_bid.user_updates.push_back({0, 1, {999}});
  EXPECT_EQ((*service)->Submit(bad_bid).code(), StatusCode::kInvalidArgument);
  core::InstanceDelta bad_event;
  bad_event.event_updates.push_back({999, 3});
  EXPECT_EQ((*service)->Submit(bad_event).code(),
            StatusCode::kInvalidArgument);
  core::InstanceDelta bad_capacity;
  bad_capacity.user_updates.push_back({0, -1, {}});
  EXPECT_EQ((*service)->Submit(bad_capacity).code(),
            StatusCode::kInvalidArgument);
  // Nothing slipped into the queue or the counters.
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.deltas_submitted, 0);
  EXPECT_EQ(stats.deltas_pending, 0);
}

TEST(ArrangementServiceTest, CoalescingAppliesLaterWinsSemantics) {
  const core::Instance base = MakeInstance(80, 29);
  auto service = ArrangementService::Create(base, TestOptions());
  ASSERT_TRUE(service.ok());
  // Two updates to the same user in one epoch: the later one wins.
  const core::UserId user = 5;
  core::InstanceDelta first, second;
  first.user_updates.push_back({user, 0, {}});  // cancel
  second.user_updates.push_back({user, 2, {0, 1}});
  ASSERT_TRUE((*service)->Submit(first).ok());
  ASSERT_TRUE((*service)->Submit(second).ok());
  ASSERT_TRUE((*service)->RunEpoch().ok());
  EXPECT_EQ((*service)->instance().user_capacity(user), 2);
  EXPECT_EQ((*service)->instance().bids(user),
            (std::vector<core::EventId>{0, 1}));
}

TEST(ArrangementServiceTest, SnapshotReadsAreConsistentViews) {
  const core::Instance base = MakeInstance(120, 31);
  const auto deltas = MakeDeltas(base, 6, 37);
  auto service = ArrangementService::Create(base, TestOptions());
  ASSERT_TRUE(service.ok());
  auto old_snapshot = (*service)->snapshot();
  for (const auto& delta : deltas) {
    ASSERT_TRUE((*service)->Submit(delta).ok());
  }
  ASSERT_TRUE((*service)->RunEpoch().ok());
  auto new_snapshot = (*service)->snapshot();
  EXPECT_EQ(new_snapshot->version(), old_snapshot->version() + 1);
  // The old snapshot a reader held across the publish is intact and coherent.
  for (const auto& [v, u] : old_snapshot->arrangement().pairs()) {
    const auto& events = old_snapshot->GetAssignment(u);
    EXPECT_TRUE(std::find(events.begin(), events.end(), v) != events.end());
    const auto& roster = old_snapshot->GetEventRoster(v);
    EXPECT_TRUE(std::find(roster.begin(), roster.end(), u) != roster.end());
  }
}

TEST(ArrangementServiceTest, RunEpochRefusedWhileBackgroundLoopRuns) {
  const core::Instance base = MakeInstance(80, 37);
  ServeOptions options = TestOptions();
  options.epoch_ms = 5;
  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  EXPECT_EQ((*service)->Start().code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ((*service)->RunEpoch().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE((*service)->Stop().ok());
  // Deterministic driving works again after Stop.
  EXPECT_TRUE((*service)->RunEpoch().ok());
}

TEST(ArrangementServiceTest, StopDrainsQueuedDeltas) {
  const core::Instance base = MakeInstance(100, 41);
  const auto deltas = MakeDeltas(base, 10, 43);
  ServeOptions options = TestOptions();
  options.epoch_ms = 1000;  // the loop would idle; Stop must force the drain
  options.max_batch = 4;
  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  ASSERT_TRUE((*service)->Start().ok());
  for (const auto& delta : deltas) {
    ASSERT_TRUE((*service)->Submit(delta).ok());
  }
  ASSERT_TRUE((*service)->Stop().ok());
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.deltas_applied, 10);
  EXPECT_EQ(stats.deltas_pending, 0);
  EXPECT_TRUE((*service)
                  ->snapshot()
                  ->arrangement()
                  .CheckFeasible((*service)->instance())
                  .ok());
}

TEST(ArrangementServiceTest, MetricsHistoryIsBounded) {
  const core::Instance base = MakeInstance(80, 47);
  const auto deltas = MakeDeltas(base, 6, 53);
  ServeOptions options = TestOptions();
  options.metrics_history_limit = 2;
  auto service = ArrangementService::Create(base, options);
  ASSERT_TRUE(service.ok());
  for (const auto& delta : deltas) {
    ASSERT_TRUE((*service)->Submit(delta).ok());
    ASSERT_TRUE((*service)->RunEpoch().ok());
  }
  const auto history = (*service)->MetricsHistory();
  ASSERT_EQ(history.size(), 2u);
  // The most recent epochs survive; lifetime counters keep the full story.
  EXPECT_EQ(history.back().epoch, 5);
  EXPECT_EQ(history.front().epoch, 4);
  const ServiceStats stats = (*service)->Stats();
  EXPECT_EQ(stats.epochs, 6);
  EXPECT_EQ(stats.deltas_applied, 6);
  EXPECT_GT(stats.total_epoch_seconds, 0.0);
}

TEST(ArrangementServiceTest, CreateRejectsBadOptions) {
  ServeOptions bad = TestOptions();
  bad.max_batch = 0;
  EXPECT_FALSE(ArrangementService::Create(MakeInstance(30, 43), bad).ok());
  bad = TestOptions();
  bad.queue_capacity = 0;
  EXPECT_FALSE(ArrangementService::Create(MakeInstance(30, 43), bad).ok());
  bad = TestOptions();
  bad.epoch_ms = -1;
  EXPECT_FALSE(ArrangementService::Create(MakeInstance(30, 43), bad).ok());
}

}  // namespace
}  // namespace serve
}  // namespace igepa
