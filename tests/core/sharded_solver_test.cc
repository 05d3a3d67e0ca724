#include "core/sharded_solver.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "conflict/conflict.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "graph/interaction_model.h"
#include "interest/interest.h"
#include "io/binary_instance.h"
#include "tests/core/test_instances.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace igepa {
namespace core {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

Instance MakeSynthetic(uint64_t seed, int32_t events, int32_t users) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_events = events;
  config.num_users = users;
  auto instance = gen::GenerateSynthetic(config, &rng);
  IGEPA_CHECK(instance.ok()) << instance.status();
  return std::move(*instance);
}

TEST(ShardUserBoundsTest, PartitionIsBalancedAndExhaustive) {
  ShardedSolveOptions options;
  for (int32_t nu : {1, 7, 100, 8193}) {
    for (int32_t shards : {0, 1, 3, 16}) {
      options.num_shards = shards;
      const std::vector<UserId> bounds = ShardUserBounds(nu, options);
      ASSERT_GE(bounds.size(), 2u);
      EXPECT_EQ(bounds.front(), 0);
      EXPECT_EQ(bounds.back(), nu);
      const auto k = static_cast<int32_t>(bounds.size()) - 1;
      EXPECT_LE(k, nu);  // never an empty shard
      int32_t smallest = nu, largest = 0;
      for (int32_t s = 0; s < k; ++s) {
        const int32_t width = bounds[s + 1] - bounds[s];
        EXPECT_GE(width, 1);
        smallest = std::min(smallest, width);
        largest = std::max(largest, width);
      }
      // Balanced: contiguous shards never differ by more than one user.
      EXPECT_LE(largest - smallest, 1) << "nu=" << nu << " shards=" << shards;
    }
  }
  // num_shards pins the count exactly (clamped to the user count).
  options.num_shards = 5;
  EXPECT_EQ(ShardUserBounds(100, options).size(), 6u);
  EXPECT_EQ(ShardUserBounds(3, options).size(), 4u);
}

TEST(ShardedSolverTest, ArrangementIsFeasibleAndStatsArePopulated) {
  const Instance instance = MakeSynthetic(31, 40, 1500);
  Rng rng(7);
  ShardedSolveOptions options;
  options.num_shards = 3;
  ShardedSolveStats stats;
  auto arrangement = ShardedSolve(instance, &rng, options, &stats);
  ASSERT_TRUE(arrangement.ok()) << arrangement.status();
  EXPECT_TRUE(arrangement->CheckFeasible(instance).ok());
  EXPECT_GT(arrangement->Utility(instance), 0.0);
  EXPECT_EQ(stats.num_shards, 3);
  EXPECT_GT(stats.num_columns, 0);
  EXPECT_GT(stats.lp_objective, 0.0);
  EXPECT_GE(stats.lp_upper_bound, stats.lp_objective);
  EXPECT_GT(stats.coordination_iterations, 0);
  EXPECT_GT(stats.level1_iterations, 0);
}

TEST(ShardedSolverTest, ThreadCountNeverChangesABit) {
  // The acceptance pin: at a fixed shard count the arrangement is a pure
  // function of (instance, seed, options) — per-shard partials always merge
  // in shard index order, so 1, 2 and 8 workers are bit-identical.
  const Instance instance = MakeSynthetic(11, 30, 1200);
  ShardedSolveOptions options;
  options.num_shards = 4;

  options.num_threads = 1;
  Rng rng_serial(5);
  ShardedSolveStats stats_serial;
  auto serial = ShardedSolve(instance, &rng_serial, options, &stats_serial);
  ASSERT_TRUE(serial.ok()) << serial.status();

  for (int32_t threads : {2, 8}) {
    options.num_threads = threads;
    Rng rng(5);
    ShardedSolveStats stats;
    auto parallel = ShardedSolve(instance, &rng, options, &stats);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    EXPECT_EQ(parallel->pairs(), serial->pairs()) << "threads=" << threads;
    EXPECT_EQ(parallel->Utility(instance), serial->Utility(instance));
    EXPECT_EQ(stats.lp_objective, stats_serial.lp_objective);
    EXPECT_EQ(stats.lp_upper_bound, stats_serial.lp_upper_bound);
    EXPECT_EQ(stats.coordination_iterations, stats_serial.coordination_iterations);
  }
}

TEST(ShardedSolverTest, RepeatedRunsWithTheSameSeedAreIdentical) {
  const Instance instance = MakeSynthetic(23, 25, 900);
  ShardedSolveOptions options;
  options.num_shards = 3;
  Rng rng_a(9);
  Rng rng_b(9);
  auto a = ShardedSolve(instance, &rng_a, options);
  auto b = ShardedSolve(instance, &rng_b, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pairs(), b->pairs());
}

TEST(ShardedSolverTest, ObjectiveAgreesWithTheMonolithicSolver) {
  // Sharding is a decomposition of the same benchmark LP, not a different
  // objective: the coordinated fractional optimum must certify a small gap
  // and the legalized arrangement must land within a modest factor of the
  // monolithic LP-packing arrangement on the same instance.
  const Instance instance = MakeSynthetic(41, 40, 2000);

  Rng rng_mono(3);
  LpPackingStats mono_stats;
  auto mono = LpPacking(instance, &rng_mono, {}, &mono_stats);
  ASSERT_TRUE(mono.ok()) << mono.status();

  Rng rng_shard(3);
  ShardedSolveOptions options;
  options.num_shards = 4;
  ShardedSolveStats stats;
  auto sharded = ShardedSolve(instance, &rng_shard, options, &stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_TRUE(sharded->CheckFeasible(instance).ok());

  // The certified coordination gap reached its target (or the iteration
  // budget — either way it must be small on this easy instance).
  EXPECT_LE(stats.gap, 0.05);
  // Fractional objectives of the two decompositions agree within the
  // certified gaps; the rounded utilities then agree within the sampling
  // slack. 10% is far looser than observed (<1%) but stays flake-proof.
  const double mono_utility = mono->Utility(instance);
  const double sharded_utility = sharded->Utility(instance);
  EXPECT_GT(sharded_utility, 0.9 * mono_utility)
      << "sharded " << sharded_utility << " vs monolithic " << mono_utility;
  EXPECT_NEAR(stats.lp_objective, mono_stats.lp_objective,
              0.1 * mono_stats.lp_objective);
}

TEST(ShardedSolverTest, SingleShardStillLegalizesFeasibly) {
  // K = 1 collapses level 2 to the classic path; the sweep must still run.
  const Instance instance = MakeTinyInstance();
  Rng rng(1);
  ShardedSolveOptions options;
  options.num_shards = 1;
  ShardedSolveStats stats;
  auto arrangement = ShardedSolve(instance, &rng, options, &stats);
  ASSERT_TRUE(arrangement.ok()) << arrangement.status();
  EXPECT_TRUE(arrangement->CheckFeasible(instance).ok());
  EXPECT_EQ(stats.num_shards, 1);
  // LP* = OPT = 2.25 on the tiny instance; the certified bound can only be
  // above it, and the fractional objective cannot beat it by more than the
  // scaling slack.
  EXPECT_GE(stats.lp_upper_bound, stats.lp_objective);
  EXPECT_LE(stats.lp_objective, kTinyOptimum * 1.01);
}

TEST(ShardedSolverTest, MoreShardsThanUsersClampsToOnePerUser) {
  // Asking for 64 shards over 3 users must clamp to 3 single-user shards and
  // solve exactly as num_shards=3 would: the layout — and therefore the
  // arrangement — is a pure function of the CLAMPED count.
  const Instance instance = MakeTinyInstance();
  ShardedSolveOptions options;
  options.num_shards = 64;
  Rng rng_clamped(13);
  ShardedSolveStats stats;
  auto clamped = ShardedSolve(instance, &rng_clamped, options, &stats);
  ASSERT_TRUE(clamped.ok()) << clamped.status();
  EXPECT_EQ(stats.num_shards, 3);
  EXPECT_TRUE(clamped->CheckFeasible(instance).ok());

  options.num_shards = 3;
  Rng rng_exact(13);
  auto exact = ShardedSolve(instance, &rng_exact, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(clamped->pairs(), exact->pairs());
}

TEST(ShardedSolverTest, SingleShardEqualsLpPacking) {
  // K = 1 has nothing to coordinate: level 1 is skipped and level 2 is a
  // cold structured solve over the one shard catalog, which equals the
  // monolithic catalog, and the legalize sweep is RoundFractional's. So the
  // sharded solve returns LpPacking's arrangement and LP state bit for bit,
  // in memory and under a one-shard budget.
  const Instance instance = MakeSynthetic(53, 25, 800);
  Rng rng_mono(17);
  LpPackingStats mono_stats;
  auto mono = LpPacking(instance, &rng_mono, {}, &mono_stats);
  ASSERT_TRUE(mono.ok()) << mono.status();

  ShardedSolveOptions options;
  options.num_shards = 1;
  Rng rng_shard(17);
  ShardedSolveStats stats;
  auto sharded = ShardedSolve(instance, &rng_shard, options, &stats);
  ASSERT_TRUE(sharded.ok()) << sharded.status();
  EXPECT_EQ(stats.num_shards, 1);
  EXPECT_EQ(stats.level1_iterations, 0);
  EXPECT_EQ(sharded->pairs(), mono->pairs());
  EXPECT_EQ(stats.lp_objective, mono_stats.lp_objective);
  EXPECT_EQ(stats.lp_upper_bound, mono_stats.lp_upper_bound);
  EXPECT_EQ(stats.coordination_iterations, mono_stats.lp_iterations);
  EXPECT_EQ(stats.pairs_repaired, mono_stats.pairs_repaired);

  ShardedSolveOptions budgeted = options;
  budgeted.memory_budget_bytes = uint64_t{1} << 30;
  Rng rng_probe(17);
  ShardedSolveStats probe;
  ASSERT_TRUE(ShardedSolve(instance, &rng_probe, budgeted, &probe).ok());
  budgeted.memory_budget_bytes = probe.shard_footprint_bytes;
  Rng rng_spill(17);
  ShardedSolveStats spill_stats;
  auto spilled = ShardedSolve(instance, &rng_spill, budgeted, &spill_stats);
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_GT(spill_stats.page_ins, 0u);
  EXPECT_EQ(spilled->pairs(), mono->pairs());
  EXPECT_EQ(spill_stats.lp_objective, mono_stats.lp_objective);
  EXPECT_EQ(spill_stats.lp_upper_bound, mono_stats.lp_upper_bound);
}

TEST(ShardedSolverTest, LevelTwoCertifiesFromLevelOnePrices) {
  // Level 2 is a warm solve from the shard-average of the level-1 duals.
  // Its fine-step probe keeps those prices, so it certifies within its
  // first averaging windows instead of re-deriving them cold.
  const Instance instance = MakeSynthetic(71, 200, 20000);
  ShardedSolveOptions options;
  options.num_shards = 4;
  Rng rng(7);
  ShardedSolveStats stats;
  auto arrangement = ShardedSolve(instance, &rng, options, &stats);
  ASSERT_TRUE(arrangement.ok()) << arrangement.status();
  EXPECT_TRUE(arrangement->CheckFeasible(instance).ok());
  EXPECT_GT(stats.level1_iterations, 0);
  EXPECT_LE(stats.coordination_iterations, 7);
  EXPECT_LE(stats.gap, 0.01);
}

TEST(ShardedSolverTest, ShardOfEmptyBidUsersContributesNothingAndBreaksNothing) {
  // 12 users over 4 events where the LAST four users bid on nothing: with 3
  // contiguous shards the third shard's oracle has no admissible column for
  // any of its users. Its level-1 LP and every coordination oracle pass must
  // degenerate to zero without tripping the solver, and the legalize sweep
  // must leave those users unassigned.
  std::vector<EventDef> events(4);
  for (EventDef& event : events) event.capacity = 3;
  std::vector<UserDef> users(12);
  auto interest = std::make_shared<interest::TableInterest>(4, 12);
  std::vector<double> degrees(12, 0.25);
  for (int32_t u = 0; u < 8; ++u) {
    users[static_cast<size_t>(u)].capacity = 2;
    users[static_cast<size_t>(u)].bids = {u % 4, (u + 1) % 4};
    interest->Set(u % 4, u, 0.6 + 0.05 * u);
    interest->Set((u + 1) % 4, u, 0.3);
  }
  for (int32_t u = 8; u < 12; ++u) {
    users[static_cast<size_t>(u)].capacity = 2;  // capacity but no bids
  }
  Instance instance(std::move(events), std::move(users),
                    std::make_shared<conflict::MatrixConflict>(4),
                    std::move(interest),
                    std::make_shared<graph::TableInteractionModel>(degrees),
                    0.5);
  ASSERT_TRUE(instance.Validate().ok());

  ShardedSolveOptions options;
  options.num_shards = 3;  // shard 2 = users [8, 12): all empty-bid
  Rng rng(29);
  ShardedSolveStats stats;
  auto arrangement = ShardedSolve(instance, &rng, options, &stats);
  ASSERT_TRUE(arrangement.ok()) << arrangement.status();
  EXPECT_EQ(stats.num_shards, 3);
  EXPECT_TRUE(arrangement->CheckFeasible(instance).ok());
  EXPECT_GT(arrangement->Utility(instance), 0.0);
  for (UserId u = 8; u < 12; ++u) {
    EXPECT_TRUE(arrangement->EventsOf(u).empty()) << "user " << u;
  }
}

TEST(ShardedSolverTest, BinaryBackedInstanceMatchesInMemoryBitForBit) {
  // The mmap path (WriteInstanceBinary -> InstanceView -> Materialize) feeds
  // the same weights through adapters instead of in-memory tables; the
  // sharded solve over it must be indistinguishable — pairs, objective,
  // bound and iteration counts.
  const Instance in_memory = MakeSynthetic(61, 20, 600);
  const std::string path =
      testing::TempDir() + "/sharded_binary_instance.bin";
  std::remove(path.c_str());
  ASSERT_TRUE(io::WriteInstanceBinary(in_memory, path).ok());
  auto view = io::InstanceView::Open(path);
  ASSERT_TRUE(view.ok()) << view.status();
  auto materialized = io::MaterializeInstance(
      std::make_shared<io::InstanceView>(std::move(*view)));
  ASSERT_TRUE(materialized.ok()) << materialized.status();

  ShardedSolveOptions options;
  options.num_shards = 3;
  Rng rng_mem(41);
  ShardedSolveStats stats_mem;
  auto from_memory = ShardedSolve(in_memory, &rng_mem, options, &stats_mem);
  ASSERT_TRUE(from_memory.ok()) << from_memory.status();
  Rng rng_bin(41);
  ShardedSolveStats stats_bin;
  auto from_binary =
      ShardedSolve(*materialized, &rng_bin, options, &stats_bin);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status();

  EXPECT_EQ(from_memory->pairs(), from_binary->pairs());
  EXPECT_EQ(stats_mem.lp_objective, stats_bin.lp_objective);
  EXPECT_EQ(stats_mem.lp_upper_bound, stats_bin.lp_upper_bound);
  EXPECT_EQ(stats_mem.coordination_iterations,
            stats_bin.coordination_iterations);
  EXPECT_EQ(from_memory->Utility(in_memory),
            from_binary->Utility(*materialized));
}

TEST(ShardedSolverTest, InvalidOptionsAreRejected) {
  const Instance instance = MakeTinyInstance();
  Rng rng(1);
  ShardedSolveOptions options;
  options.alpha = 0.0;
  EXPECT_FALSE(ShardedSolve(instance, &rng, options).ok());
  options.alpha = 1.5;
  EXPECT_FALSE(ShardedSolve(instance, &rng, options).ok());
  options = {};
  options.num_shards = -1;
  EXPECT_FALSE(ShardedSolve(instance, &rng, options).ok());
  options = {};
  options.users_per_shard = 0;
  EXPECT_FALSE(ShardedSolve(instance, &rng, options).ok());
  options = {};
  EXPECT_FALSE(ShardedSolve(instance, nullptr, options).ok());
}

TEST(ShardedSolverTest, SpilledSolveMatchesInMemoryBitForBit) {
  const Instance instance = MakeSynthetic(23, 40, 600);
  ShardedSolveOptions options;
  options.num_shards = 4;

  Rng rng_mem(9);
  ShardedSolveStats stats_mem;
  auto in_memory = ShardedSolve(instance, &rng_mem, options, &stats_mem);
  ASSERT_TRUE(in_memory.ok()) << in_memory.status();
  EXPECT_EQ(stats_mem.spill_bytes, 0u);
  EXPECT_EQ(stats_mem.page_ins, 0u);

  // A generous budget (everything resident) and the pathological minimum
  // (exactly one shard's footprint, forcing an eviction on nearly every
  // acquisition) must both reproduce the in-memory arrangement and LP state
  // byte for byte — eviction/repage only remaps identical read-only bytes.
  ShardedSolveOptions generous = options;
  generous.memory_budget_bytes = uint64_t{1} << 30;
  Rng rng_gen(9);
  ShardedSolveStats stats_gen;
  auto spilled = ShardedSolve(instance, &rng_gen, generous, &stats_gen);
  ASSERT_TRUE(spilled.ok()) << spilled.status();
  EXPECT_EQ(in_memory->pairs(), spilled->pairs());
  EXPECT_EQ(stats_mem.lp_objective, stats_gen.lp_objective);
  EXPECT_EQ(stats_mem.lp_upper_bound, stats_gen.lp_upper_bound);
  EXPECT_EQ(stats_mem.gap, stats_gen.gap);
  EXPECT_EQ(stats_mem.coordination_iterations,
            stats_gen.coordination_iterations);
  EXPECT_EQ(stats_mem.pairs_repaired, stats_gen.pairs_repaired);
  EXPECT_GT(stats_gen.spill_bytes, 0u);
  EXPECT_GT(stats_gen.shard_footprint_bytes, 0u);
  EXPECT_GT(stats_gen.page_ins, 0u);
  EXPECT_EQ(stats_gen.evictions, 0u);  // budget holds every shard
  EXPECT_EQ(stats_gen.peak_resident_shards, stats_gen.num_shards);

  ShardedSolveOptions pathological = options;
  pathological.memory_budget_bytes = stats_gen.shard_footprint_bytes;
  Rng rng_path(9);
  ShardedSolveStats stats_path;
  auto evicting = ShardedSolve(instance, &rng_path, pathological, &stats_path);
  ASSERT_TRUE(evicting.ok()) << evicting.status();
  EXPECT_EQ(in_memory->pairs(), evicting->pairs());
  EXPECT_EQ(stats_mem.lp_objective, stats_path.lp_objective);
  EXPECT_EQ(stats_mem.lp_upper_bound, stats_path.lp_upper_bound);
  EXPECT_EQ(stats_mem.gap, stats_path.gap);
  EXPECT_EQ(stats_mem.coordination_iterations,
            stats_path.coordination_iterations);
  EXPECT_EQ(stats_mem.pairs_repaired, stats_path.pairs_repaired);
  EXPECT_GT(stats_path.evictions, 0u);
  EXPECT_GT(stats_path.page_ins, stats_gen.page_ins);
  // The residency bound: never more resident bytes than budget + one shard.
  EXPECT_LE(stats_path.peak_resident_bytes,
            pathological.memory_budget_bytes +
                stats_path.shard_footprint_bytes);
  EXPECT_EQ(in_memory->Utility(instance), evicting->Utility(instance));
}

TEST(ShardedSolverTest, SpilledSolveIsThreadCountInvariant) {
  const Instance instance = MakeSynthetic(29, 30, 400);
  ShardedSolveOptions options;
  options.num_shards = 5;
  ShardedSolveStats want_stats;
  Arrangement want(0, 0);
  {
    Rng rng(5);
    auto solved = ShardedSolve(instance, &rng, options, &want_stats);
    ASSERT_TRUE(solved.ok()) << solved.status();
    want = std::move(*solved);
  }
  for (int32_t threads : {1, 2, 7}) {
    ShardedSolveOptions budgeted = options;
    budgeted.num_threads = threads;
    // Tight enough that workers contend for pin slots.
    budgeted.memory_budget_bytes = uint64_t{2} << 20;
    Rng rng(5);
    ShardedSolveStats stats;
    auto solved = ShardedSolve(instance, &rng, budgeted, &stats);
    ASSERT_TRUE(solved.ok()) << solved.status();
    EXPECT_EQ(want.pairs(), solved->pairs()) << "threads=" << threads;
    EXPECT_EQ(want_stats.lp_objective, stats.lp_objective);
    EXPECT_EQ(want_stats.coordination_iterations,
              stats.coordination_iterations);
  }
}

TEST(ShardedSolverTest, BudgetBelowOneShardIsRejectedNamingTheMinimum) {
  const Instance instance = MakeSynthetic(31, 30, 300);
  ShardedSolveOptions options;
  options.num_shards = 3;
  options.memory_budget_bytes = 1;  // below any real catalog footprint
  Rng rng(3);
  auto solved = ShardedSolve(instance, &rng, options);
  ASSERT_FALSE(solved.ok());
  EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument);
  // The error names the measured minimum, in bytes and as a flag value.
  EXPECT_NE(solved.status().message().find("needs at least"),
            std::string::npos)
      << solved.status();
  EXPECT_NE(solved.status().message().find("--memory-budget-mb"),
            std::string::npos)
      << solved.status();

  // The named minimum is real: a budget of exactly one shard's measured
  // footprint is accepted.
  ShardedSolveOptions generous = options;
  generous.memory_budget_bytes = uint64_t{1} << 30;
  Rng rng_probe(3);
  ShardedSolveStats probe_stats;
  ASSERT_TRUE(ShardedSolve(instance, &rng_probe, generous, &probe_stats).ok());
  ShardedSolveOptions minimum = options;
  minimum.memory_budget_bytes = probe_stats.shard_footprint_bytes;
  Rng rng_min(3);
  EXPECT_TRUE(ShardedSolve(instance, &rng_min, minimum).ok());
}

// Runs a budgeted four-shard solve on two workers under an address-space
// cap a few MiB above what the process maps at the start, and exits 0 iff
// the solve returned a non-OK Status.
void SolveUnderAddressSpaceCap() {
  const Instance instance = MakeSynthetic(37, 200, 20000);
  ThreadPool workers(2);
  ShardedSolveOptions options;
  options.num_shards = 4;
  options.workers = &workers;
  options.memory_budget_bytes = uint64_t{64} << 20;
  std::ifstream statm("/proc/self/statm");
  uint64_t pages = 0;
  statm >> pages;
  rlimit cap{};
  cap.rlim_cur = pages * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE)) +
                 (uint64_t{6} << 20);
  cap.rlim_max = RLIM_INFINITY;
  if (pages == 0 || ::setrlimit(RLIMIT_AS, &cap) != 0) std::_Exit(2);
  Rng rng(3);
  const auto solved = ShardedSolve(instance, &rng, options);
  std::fprintf(stderr, "%s\n", solved.status().ToString().c_str());
  std::_Exit(solved.ok() ? 1 : 0);
}

TEST(ShardedSolverTest, AllocationFailureIsAStatusNotAnAbort) {
  // An exception that escapes a pool task calls std::terminate, so every
  // task catches std::bad_alloc and ShardedSolve catches the caller's: the
  // capped child must exit normally with a non-OK Status.
  if (kSanitized) {
    GTEST_SKIP() << "sanitizer runtimes reserve address space past any cap";
  }
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(SolveUnderAddressSpaceCap(), testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace core
}  // namespace igepa
