// The pluggable utility-kernel subsystem: registry semantics, per-kernel
// scoring contracts, objective divergence between kernels on the same
// instance, and the catalog's touched-column-only re-score path for
// weight deltas (graph edges, interest drift).

#include "core/utility_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/instance_delta.h"
#include "core/lp_packing.h"
#include "core/warm_tick.h"
#include "gen/synthetic.h"
#include "tests/core/test_instances.h"
#include "util/rng.h"

namespace igepa {
namespace core {
namespace {

Result<Instance> MediumInstance(uint64_t seed) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_events = 30;
  config.num_users = 80;
  config.p_conflict = 0.3;
  return gen::GenerateSynthetic(config, &rng);
}

// ---- registry --------------------------------------------------------------

TEST(UtilityKernelTest, RegistryResolvesEveryIdAndRejectsUnknown) {
  for (const std::string& id : UtilityKernelIds()) {
    auto kernel = MakeUtilityKernel(id);
    ASSERT_TRUE(kernel.ok()) << id;
    EXPECT_EQ((*kernel)->id(), id);
  }
  auto bad = MakeUtilityKernel("no-such-kernel");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The error names the known ids, so a CLI typo is self-explaining.
  for (const std::string& id : UtilityKernelIds()) {
    EXPECT_NE(bad.status().message().find(id), std::string::npos) << id;
  }
  // The empty id is malformed, not an alias of the default ("no kernel
  // requested" is the caller's branch, e.g. a truncated v2 kernel record
  // must be rejected).
  EXPECT_FALSE(MakeUtilityKernel("").ok());
  // Parameterized cohesion: the gamma is part of the id and round-trips.
  auto parameterized = MakeUtilityKernel("cohesion:0.5");
  ASSERT_TRUE(parameterized.ok());
  const auto* cohesion =
      dynamic_cast<const CohesionKernel*>(parameterized->get());
  ASSERT_NE(cohesion, nullptr);
  EXPECT_EQ(cohesion->gamma(), 0.5);
  auto reparsed = MakeUtilityKernel((*parameterized)->id());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(dynamic_cast<const CohesionKernel*>(reparsed->get())->gamma(),
            0.5);
  EXPECT_FALSE(MakeUtilityKernel("cohesion:-1").ok());
  EXPECT_FALSE(MakeUtilityKernel("cohesion:nan").ok());
  EXPECT_FALSE(MakeUtilityKernel("cohesion:").ok());
}

TEST(UtilityKernelTest, InstanceDefaultsToInteractionInterest) {
  const Instance instance = MakeTinyInstance();
  EXPECT_EQ(instance.kernel().id(), "interaction_interest");
  // set_kernel(nullptr) must not clear the kernel.
  Instance copy = MakeTinyInstance();
  copy.set_kernel(nullptr);
  EXPECT_EQ(copy.kernel().id(), "interaction_interest");
}

// ---- per-kernel scoring contracts ------------------------------------------

TEST(UtilityKernelTest, DefaultKernelMatchesDefinitionSixBits) {
  auto instance = MediumInstance(3);
  ASSERT_TRUE(instance.ok());
  const InteractionInterestKernel kernel;
  for (UserId u = 0; u < instance->num_users(); ++u) {
    for (EventId v : instance->bids(u)) {
      EXPECT_EQ(kernel.PairWeight(*instance, v, u), instance->Weight(v, u));
      EXPECT_EQ(instance->PairWeight(v, u), instance->Weight(v, u));
    }
  }
}

TEST(UtilityKernelTest, InterestOnlyIsThePureInterestObjective) {
  auto instance = MediumInstance(5);
  ASSERT_TRUE(instance.ok());
  const InterestOnlyKernel kernel;
  for (UserId u = 0; u < instance->num_users(); ++u) {
    for (EventId v : instance->bids(u)) {
      EXPECT_EQ(kernel.PairWeight(*instance, v, u), instance->Interest(v, u));
    }
  }
}

TEST(UtilityKernelTest, BatchScoreColumnsMatchesPairSumForDefault) {
  const Instance instance = MakeTinyInstance();
  const std::vector<EventId> s0 = {0, 2};
  const std::vector<EventId> s1 = {1};
  const std::vector<EventId> s2 = {};
  const std::vector<std::span<const EventId>> sets = {
      std::span<const EventId>(s0), std::span<const EventId>(s1),
      std::span<const EventId>(s2)};
  std::vector<double> weights(3);
  instance.kernel().ScoreColumns(instance, 0, sets,
                                 std::span<double>(weights));
  EXPECT_EQ(weights[0], instance.Weight(0, 0) + instance.Weight(2, 0));
  EXPECT_EQ(weights[1], instance.Weight(1, 0));
  EXPECT_EQ(weights[2], 0.0);
}

TEST(UtilityKernelTest, CohesionAppliesSuperadditiveSizeBonus) {
  const Instance instance = MakeTinyInstance();
  const CohesionKernel kernel(0.25);
  const std::vector<EventId> pair_set = {1, 2};
  const std::vector<EventId> single = {1};
  const std::vector<EventId> empty = {};
  const std::vector<std::span<const EventId>> sets = {
      std::span<const EventId>(pair_set), std::span<const EventId>(single),
      std::span<const EventId>(empty)};
  std::vector<double> weights(3);
  kernel.ScoreColumns(instance, 2, sets, std::span<double>(weights));
  const double pair_sum = instance.Weight(1, 2) + instance.Weight(2, 2);
  EXPECT_DOUBLE_EQ(weights[0], pair_sum * 1.25);  // k=2: 1 + 0.25·(2-1)
  EXPECT_DOUBLE_EQ(weights[1], instance.Weight(1, 2));  // k=1: no bonus
  EXPECT_EQ(weights[2], 0.0);
}

// ---- catalogs under swapped kernels ----------------------------------------

TEST(UtilityKernelTest, CatalogWeightsFollowTheInstanceKernel) {
  auto instance = MediumInstance(7);
  ASSERT_TRUE(instance.ok());
  const auto default_catalog = AdmissibleCatalog::Build(*instance, {});

  Instance ablated = *instance;
  ablated.set_kernel(std::make_shared<InterestOnlyKernel>());
  const auto ablated_catalog = AdmissibleCatalog::Build(ablated, {});

  // Same column structure (admissibility is kernel-independent when the
  // per-user cap does not bind)…
  ASSERT_EQ(default_catalog.num_columns(), ablated_catalog.num_columns());
  ASSERT_FALSE(default_catalog.any_truncated());
  // …but weights scored by the respective objective: every ablated weight is
  // exactly the interest sum of its (identically-labelled) span.
  bool any_differs = false;
  for (int32_t j = 0; j < ablated_catalog.num_columns(); ++j) {
    const UserId u = ablated_catalog.user_of(j);
    double interest_sum = 0.0;
    for (EventId v : ablated_catalog.set(j)) {
      interest_sum += ablated.Interest(v, u);
    }
    EXPECT_EQ(ablated_catalog.weight(j), interest_sum) << "column " << j;
    any_differs = any_differs ||
                  ablated_catalog.weight(j) != default_catalog.weight(j);
  }
  EXPECT_TRUE(any_differs) << "ablation must actually move the objective";
}

TEST(UtilityKernelTest, RescoreSwapsTheObjectiveInPlace) {
  auto instance = MediumInstance(9);
  ASSERT_TRUE(instance.ok());
  auto catalog = AdmissibleCatalog::Build(*instance, {});
  const uint64_t ids_before = catalog.ids_revision();
  ASSERT_EQ(catalog.weight_revision(), 0u);

  instance->set_kernel(std::make_shared<InterestOnlyKernel>());
  const int32_t rescored = catalog.Rescore(*instance);
  EXPECT_EQ(rescored, catalog.num_columns());
  EXPECT_EQ(catalog.weight_revision(), 1u);
  EXPECT_EQ(catalog.ids_revision(), ids_before);

  // Bit-identical to building fresh under the swapped kernel (no cap binds,
  // so emit order is unchanged).
  const auto rebuilt = AdmissibleCatalog::Build(*instance, {});
  EXPECT_EQ(catalog.weights(), rebuilt.weights());
  EXPECT_EQ(catalog.pool(), rebuilt.pool());
}

// ---- objective divergence on the same instance -----------------------------

/// Two events (capacity 1 each), two users:
///   u0: capacity 2, bids {0, 1}, w(0,u0) = w(1,u0) = 0.5
///   u1: capacity 1, bids {0},    w(0,u1) = 0.6
/// Default objective: split {(1,u0), (0,u1)} = 1.1 beats combo {0,1}→u0 =
/// 1.0. Cohesion (γ=0.25): combo scores 1.0·1.25 = 1.25 and wins. The two
/// kernels must therefore produce different arrangements.
Instance MakeCohesionDivergenceInstance() {
  std::vector<EventDef> events(2);
  events[0].capacity = 1;
  events[1].capacity = 1;
  std::vector<UserDef> users(2);
  users[0].capacity = 2;
  users[0].bids = {0, 1};
  users[1].capacity = 1;
  users[1].bids = {0};
  auto interest = std::make_shared<interest::TableInterest>(2, 2);
  interest->Set(0, 0, 1.0);
  interest->Set(1, 0, 1.0);
  interest->Set(0, 1, 1.0);
  auto interaction = std::make_shared<graph::TableInteractionModel>(
      std::vector<double>{0.0, 0.2});
  Instance instance(std::move(events), std::move(users),
                    std::make_shared<conflict::NoConflict>(2),
                    std::move(interest), std::move(interaction), 0.5);
  IGEPA_CHECK(instance.Validate().ok());
  return instance;
}

TEST(UtilityKernelTest, CohesionKernelChangesTheArrangement) {
  Instance by_default = MakeCohesionDivergenceInstance();
  Instance by_cohesion = MakeCohesionDivergenceInstance();
  by_cohesion.set_kernel(std::make_shared<CohesionKernel>(0.25));

  LpPackingOptions options;
  Rng rng_a(1);
  Rng rng_b(1);
  auto default_arr = LpPacking(by_default, &rng_a, options);
  auto cohesion_arr = LpPacking(by_cohesion, &rng_b, options);
  ASSERT_TRUE(default_arr.ok());
  ASSERT_TRUE(cohesion_arr.ok());
  EXPECT_TRUE(default_arr->CheckFeasible(by_default).ok());
  EXPECT_TRUE(cohesion_arr->CheckFeasible(by_cohesion).ok());

  // Default splits the events across the users, cohesion bundles both onto
  // u0 (compare as sets — emission order is a rounding detail).
  auto sorted_pairs = [](const Arrangement& arr) {
    auto pairs = arr.pairs();
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  };
  const std::vector<std::pair<EventId, UserId>> split = {{0, 1}, {1, 0}};
  EXPECT_EQ(sorted_pairs(*default_arr), split);
  const std::vector<std::pair<EventId, UserId>> combo = {{0, 0}, {1, 0}};
  EXPECT_EQ(sorted_pairs(*cohesion_arr), combo);
}

TEST(UtilityKernelTest, InterestOnlyKernelDivergesOnSyntheticInstance) {
  auto base = MediumInstance(11);
  ASSERT_TRUE(base.ok());
  Instance ablated = *base;
  ablated.set_kernel(std::make_shared<InterestOnlyKernel>());

  Rng rng_a(77);
  Rng rng_b(77);
  auto default_arr = LpPacking(*base, &rng_a, {});
  auto ablated_arr = LpPacking(ablated, &rng_b, {});
  ASSERT_TRUE(default_arr.ok());
  ASSERT_TRUE(ablated_arr.ok());
  EXPECT_TRUE(default_arr->CheckFeasible(*base).ok());
  EXPECT_TRUE(ablated_arr->CheckFeasible(ablated).ok());
  // Dropping the interaction term must actually move the solution on a
  // generic synthetic instance (non-trivial degrees).
  EXPECT_NE(default_arr->pairs(), ablated_arr->pairs());
}

// ---- weight deltas: touched-column-only re-scoring -------------------------

/// u's bids in enumeration order: heaviest pair weight first, ties by the
/// lower event id (the catalog's canonical bid order).
std::vector<EventId> BidsByWeight(const Instance& instance, UserId u) {
  std::vector<EventId> bids = instance.bids(u);
  std::stable_sort(bids.begin(), bids.end(), [&](EventId a, EventId b) {
    return instance.PairWeight(a, u) > instance.PairWeight(b, u);
  });
  return bids;
}

/// The raw arrays of two canonical catalogs are identical.
void ExpectSameCatalog(const AdmissibleCatalog& a, const AdmissibleCatalog& b) {
  EXPECT_EQ(a.pool(), b.pool());
  EXPECT_EQ(a.col_begin(), b.col_begin());
  EXPECT_EQ(a.user_begin(), b.user_begin());
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.col_users(), b.col_users());
  ASSERT_EQ(a.num_events(), b.num_events());
  for (EventId v = 0; v < a.num_events(); ++v) {
    const auto ca = a.columns_of_event(v);
    const auto cb = b.columns_of_event(v);
    EXPECT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()))
        << "event " << v;
  }
}

TEST(UtilityKernelTest, InterestDriftRescoresOnlyColumnsContainingTheEvent) {
  auto instance = MediumInstance(13);
  ASSERT_TRUE(instance.ok());
  auto catalog = AdmissibleCatalog::Build(*instance, {});
  const auto weights_before = catalog.weights();
  const uint64_t ids_before = catalog.ids_revision();

  // Pick a user with two or more bids and raise the interest of the bid
  // that is already heaviest: the bid order, hence the enumeration, stays.
  UserId u = -1;
  EventId v = -1;
  for (UserId cand = 0; cand < instance->num_users(); ++cand) {
    if (instance->bids(cand).size() < 2) continue;
    const EventId top = BidsByWeight(*instance, cand).front();
    if (instance->Interest(top, cand) < 1.0) {
      u = cand;
      v = top;
      break;
    }
  }
  ASSERT_GE(u, 0);
  const std::vector<EventId> order_before = BidsByWeight(*instance, u);

  InstanceDelta delta;
  delta.interest_updates.push_back(
      {v, u, (instance->Interest(v, u) + 1.0) / 2.0});
  ASSERT_TRUE(ApplyDelta(&*instance, delta).ok());
  ASSERT_EQ(BidsByWeight(*instance, u), order_before);
  auto result = catalog.ApplyDelta(*instance, delta, {});
  ASSERT_TRUE(result.ok());

  // Exactly u's columns containing v were re-scored; nothing structural
  // happened and ids stayed put.
  int32_t expected = 0;
  for (int32_t j = catalog.user_columns_begin(u);
       j < catalog.user_columns_end(u); ++j) {
    const auto span = catalog.set(j);
    if (std::binary_search(span.begin(), span.end(), v)) ++expected;
  }
  ASSERT_GT(expected, 0);
  EXPECT_EQ(result->columns_rescored, expected);
  EXPECT_EQ(result->rescored_users, std::vector<UserId>{u});
  EXPECT_TRUE(result->touched_users.empty());
  EXPECT_EQ(result->columns_appended, 0);
  EXPECT_EQ(result->columns_tombstoned, 0);
  EXPECT_FALSE(result->compacted);
  EXPECT_TRUE(catalog.canonical());
  EXPECT_EQ(catalog.ids_revision(), ids_before);
  EXPECT_EQ(catalog.weight_revision(), 1u);

  // Every re-scored weight is exactly the kernel's score of its span against
  // the mutated instance, and the whole catalog is the one Build emits.
  for (int32_t j = 0; j < catalog.num_columns(); ++j) {
    double direct = 0.0;
    for (EventId e : catalog.set(j)) {
      direct += instance->PairWeight(e, catalog.user_of(j));
    }
    EXPECT_EQ(catalog.weight(j), direct) << "column " << j;
  }
  ExpectSameCatalog(catalog, AdmissibleCatalog::Build(*instance, {}));
  // Untouched weights are bit-identical to before.
  int32_t changed = 0;
  for (int32_t j = 0; j < catalog.num_columns(); ++j) {
    if (catalog.weight(j) != weights_before[static_cast<size_t>(j)]) {
      ++changed;
      EXPECT_EQ(catalog.user_of(j), u);
    }
  }
  EXPECT_LE(changed, expected);
}

TEST(UtilityKernelTest, InterestDriftThatReordersBidsReenumeratesTheUser) {
  auto instance = MediumInstance(13);
  ASSERT_TRUE(instance.ok());
  auto catalog = AdmissibleCatalog::Build(*instance, {});

  // Raise the lightest bid of a user with two or more bids to full
  // interest: it becomes the heaviest, so the user's bid order changes.
  UserId u = -1;
  EventId v = -1;
  for (UserId cand = 0; cand < instance->num_users(); ++cand) {
    if (instance->bids(cand).size() >= 2) {
      u = cand;
      v = BidsByWeight(*instance, cand).back();
      break;
    }
  }
  ASSERT_GE(u, 0);
  const std::vector<EventId> order_before = BidsByWeight(*instance, u);
  const int32_t sets_before = catalog.num_sets(u);

  InstanceDelta delta;
  delta.interest_updates.push_back({v, u, 1.0});
  ASSERT_TRUE(ApplyDelta(&*instance, delta).ok());
  ASSERT_NE(BidsByWeight(*instance, u), order_before);
  auto result = catalog.ApplyDelta(*instance, delta, {});
  ASSERT_TRUE(result.ok());

  // The user is re-enumerated like a registration, not re-scored in place.
  EXPECT_EQ(result->touched_users, std::vector<UserId>{u});
  EXPECT_TRUE(result->rescored_users.empty());
  EXPECT_EQ(result->columns_rescored, 0);
  EXPECT_EQ(result->columns_tombstoned, sets_before);
  EXPECT_EQ(result->columns_appended, catalog.num_sets(u));
  EXPECT_FALSE(catalog.canonical());

  // Compacted, the catalog is the one Build emits for the mutated instance,
  // so column ids stored against it mean the same sets after a rebuild.
  catalog.Compact();
  ExpectSameCatalog(catalog, AdmissibleCatalog::Build(*instance, {}));
}

TEST(UtilityKernelTest, WeightDeltasOnTruncatedUsersStillMatchRebuild) {
  // Under a set cap most users are truncated: their blocks lack the
  // singletons of their lighter bids, so the catalog compares such a user
  // against a fresh enumeration to decide between re-scoring and
  // re-enumerating.
  auto instance = MediumInstance(19);
  ASSERT_TRUE(instance.ok());
  CatalogDeltaOptions options;
  options.admissible.max_sets_per_user = 2;
  auto catalog = AdmissibleCatalog::Build(*instance, options.admissible);
  UserId u = -1;
  for (UserId cand = 0; cand < instance->num_users(); ++cand) {
    if (catalog.truncated(cand) && instance->bids(cand).size() >= 3 &&
        instance->Interest(BidsByWeight(*instance, cand).front(), cand) <
            1.0) {
      u = cand;
      break;
    }
  }
  ASSERT_GE(u, 0);

  // Raising the heaviest bid keeps the order: re-scored in place.
  const EventId top = BidsByWeight(*instance, u).front();
  InstanceDelta keep;
  keep.interest_updates.push_back(
      {top, u, (instance->Interest(top, u) + 1.0) / 2.0});
  ASSERT_TRUE(ApplyDelta(&*instance, keep).ok());
  auto kept = catalog.ApplyDelta(*instance, keep, options);
  ASSERT_TRUE(kept.ok());
  EXPECT_TRUE(kept->touched_users.empty());
  EXPECT_EQ(kept->rescored_users, std::vector<UserId>{u});
  EXPECT_TRUE(catalog.canonical());
  ExpectSameCatalog(catalog, AdmissibleCatalog::Build(*instance,
                                                      options.admissible));

  // The lightest bid, which the cap left without a column, becomes the
  // heaviest: no column changes weight, yet the block must be re-enumerated.
  const EventId bottom = BidsByWeight(*instance, u).back();
  bool in_block = false;
  for (int32_t j = catalog.user_columns_begin(u);
       j < catalog.user_columns_end(u); ++j) {
    const auto span = catalog.set(j);
    in_block |= std::binary_search(span.begin(), span.end(), bottom);
  }
  EXPECT_FALSE(in_block);
  InstanceDelta reorder;
  reorder.interest_updates.push_back({bottom, u, 1.0});
  ASSERT_TRUE(ApplyDelta(&*instance, reorder).ok());
  auto moved = catalog.ApplyDelta(*instance, reorder, options);
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->touched_users, std::vector<UserId>{u});
  EXPECT_TRUE(moved->rescored_users.empty());
  catalog.Compact();
  ExpectSameCatalog(catalog, AdmissibleCatalog::Build(*instance,
                                                      options.admissible));
}

TEST(UtilityKernelTest, GraphEdgeRescoresBothEndpointsEntirely) {
  auto instance = MediumInstance(17);
  ASSERT_TRUE(instance.ok());
  auto catalog = AdmissibleCatalog::Build(*instance, {});

  const UserId a = 2, b = 5;
  const double deg_a = instance->Degree(a);
  const double step = 1.0 / (instance->num_users() - 1);

  InstanceDelta delta;
  delta.graph_updates.push_back({a, b, /*add=*/true});
  ASSERT_TRUE(ApplyDelta(&*instance, delta).ok());
  EXPECT_DOUBLE_EQ(instance->Degree(a), std::min(1.0, deg_a + step));

  auto result = catalog.ApplyDelta(*instance, delta, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->columns_rescored,
            catalog.num_sets(a) + catalog.num_sets(b));
  EXPECT_EQ(result->rescored_users, (std::vector<UserId>{a, b}));
  EXPECT_EQ(result->columns_appended, 0);
  EXPECT_TRUE(catalog.canonical());

  const auto rebuilt = AdmissibleCatalog::Build(*instance, {});
  EXPECT_EQ(catalog.weights(), rebuilt.weights());
}

TEST(UtilityKernelTest, ReenumeratedUserIsNotDoubleRescored) {
  auto instance = MediumInstance(19);
  ASSERT_TRUE(instance.ok());
  auto catalog = AdmissibleCatalog::Build(*instance, {});

  // One delta that both re-registers user 3 and drifts one of their pairs:
  // the re-enumeration scores the fresh columns against the already-mutated
  // instance, so the re-score pass must skip the user.
  InstanceDelta delta;
  UserUpdate up;
  up.user = 3;
  up.capacity = 2;
  up.bids = {0, 1, 2};
  delta.user_updates.push_back(up);
  delta.interest_updates.push_back({1, 3, 0.5});
  ASSERT_TRUE(ApplyDelta(&*instance, delta).ok());
  auto result = catalog.ApplyDelta(*instance, delta, {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->touched_users, std::vector<UserId>{3});
  EXPECT_TRUE(result->rescored_users.empty());
  EXPECT_EQ(result->columns_rescored, 0);
  EXPECT_GT(result->columns_appended, 0);

  // The appended block already reflects the drifted interest.
  const auto rebuilt = AdmissibleCatalog::Build(*instance, {});
  for (int32_t j = catalog.user_columns_begin(3), k = 0;
       j < catalog.user_columns_end(3); ++j, ++k) {
    const int32_t rj = rebuilt.user_columns_begin(3) + k;
    EXPECT_EQ(catalog.weight(j), rebuilt.weight(rj));
  }
}

TEST(UtilityKernelTest, GraphEdgeRemoveUndoesAddExactly) {
  auto instance = MediumInstance(23);
  ASSERT_TRUE(instance.ok());
  const double before_a = instance->Degree(4);
  const double before_b = instance->Degree(9);
  ASSERT_TRUE(instance->ApplyGraphEdge(4, 9, /*add=*/true).ok());
  ASSERT_TRUE(instance->ApplyGraphEdge(4, 9, /*add=*/false).ok());
  // Clamping cannot bite here (degrees strictly inside (0,1) shift by one
  // representable step and back), so the round trip is exact.
  EXPECT_DOUBLE_EQ(instance->Degree(4), before_a);
  EXPECT_DOUBLE_EQ(instance->Degree(9), before_b);
}

TEST(UtilityKernelTest, DeltaValidationRejectsBadWeightUpdates) {
  auto instance = MediumInstance(29);
  ASSERT_TRUE(instance.ok());
  {
    InstanceDelta delta;
    delta.graph_updates.push_back({1, 1, true});  // self edge
    EXPECT_EQ(ApplyDelta(&*instance, delta).code(),
              StatusCode::kInvalidArgument);
  }
  {
    InstanceDelta delta;
    delta.graph_updates.push_back({0, instance->num_users(), true});
    EXPECT_EQ(ApplyDelta(&*instance, delta).code(),
              StatusCode::kInvalidArgument);
  }
  {
    InstanceDelta delta;
    delta.interest_updates.push_back({0, 0, 1.5});  // outside [0,1]
    EXPECT_EQ(ApplyDelta(&*instance, delta).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(UtilityKernelTest, WarmTickRejectsBadWeightDeltaWithoutMutatingState) {
  // The warm tick must validate the WHOLE delta before RetireSamples runs:
  // a weight update core::ApplyDelta would reject (here an out-of-range
  // interest value) may not leave the rounding state half-mutated.
  auto instance = MediumInstance(31);
  ASSERT_TRUE(instance.ok());
  auto catalog = AdmissibleCatalog::Build(*instance, {});
  DualWarmStart warm;
  auto sol = SolveBenchmarkLpStructured(*instance, catalog, {}, &warm);
  ASSERT_TRUE(sol.ok());
  FractionalSolution fractional;
  fractional.lp = std::move(*sol);
  Rng rng(5);
  RoundingState state;
  auto arr = RoundFractional(*instance, catalog, fractional, &rng, {},
                             nullptr, &state);
  ASSERT_TRUE(arr.ok());
  const std::vector<int32_t> sampled_before = state.sampled_col;

  InstanceDelta bad;
  bad.interest_updates.push_back({0, 0, 1.5});  // value outside [0,1]
  auto tick = ApplyWarmTick(&*instance, &catalog, &warm, &state, &fractional,
                            bad, &rng, {}, {}, {});
  ASSERT_FALSE(tick.ok());
  EXPECT_EQ(tick.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(state.sampled_col, sampled_before);
  EXPECT_EQ(catalog.weight_revision(), 0u);
}

TEST(UtilityKernelTest, TouchedUserHelpersPartitionTheDelta) {
  InstanceDelta delta;
  UserUpdate up;
  up.user = 7;
  delta.user_updates.push_back(up);
  delta.graph_updates.push_back({2, 5, true});
  delta.interest_updates.push_back({0, 5, 0.3});
  delta.interest_updates.push_back({1, 9, 0.4});
  EXPECT_EQ(TouchedUsers(delta), std::vector<UserId>{7});
  EXPECT_EQ(WeightTouchedUsers(delta), (std::vector<UserId>{2, 5, 9}));
  EXPECT_EQ(AllTouchedUsers(delta), (std::vector<UserId>{2, 5, 7, 9}));
  EXPECT_TRUE(delta.has_weight_updates());
  EXPECT_FALSE(delta.empty());
}

}  // namespace
}  // namespace core
}  // namespace igepa
