// End-to-end integration and property tests: generator -> admissible sets ->
// benchmark LP -> Algorithm 1 rounding -> validator, plus cross-algorithm
// feasibility sweeps on synthetic and Meetup-sim data.

#include <gtest/gtest.h>

#include "algo/baselines.h"
#include "core/lp_packing.h"
#include "exp/harness.h"
#include "gen/meetup_sim.h"
#include "gen/synthetic.h"
#include "io/instance_io.h"

namespace igepa {
namespace {

using core::Instance;

/// Sweep over seeds: every algorithm's output must be feasible on instances
/// with varied shapes (property test for the Definition-4 constraints).
class FeasibilityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FeasibilityProperty, AllAlgorithmsFeasibleOnVariedShapes) {
  Rng master(GetParam());
  gen::SyntheticConfig config;
  // Shape varies with the seed: small/large capacities, dense/sparse
  // conflicts.
  config.num_events = 10 + static_cast<int32_t>(master.NextIndex(40));
  config.num_users = 20 + static_cast<int32_t>(master.NextIndex(100));
  config.max_event_capacity = 1 + static_cast<int32_t>(master.NextIndex(12));
  config.max_user_capacity = 1 + static_cast<int32_t>(master.NextIndex(5));
  config.p_conflict = 0.1 + 0.6 * master.NextDouble();
  config.p_friend = master.NextDouble();
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(config, &gen_rng);
  ASSERT_TRUE(instance.ok()) << instance.status();

  for (exp::Algorithm a : exp::PaperAlgorithms()) {
    Rng rng = master.Fork();
    auto outcome = exp::RunOnInstance(*instance, a, &rng, {});
    ASSERT_TRUE(outcome.ok())
        << exp::AlgorithmName(a) << " failed: " << outcome.status();
    // RunOnInstance validates feasibility internally (check_feasibility on).
    EXPECT_GE(outcome->utility, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FeasibilityProperty,
                         ::testing::Values(1, 7, 13, 42, 99, 123, 500, 777,
                                           2024, 31337));

TEST(PipelineTest, MeetupSimFullComparison) {
  // Scaled-down Meetup-sim through the full four-algorithm comparison.
  gen::MeetupConfig config;
  config.num_events = 50;
  config.num_users = 250;
  config.num_groups = 20;
  auto factory = [config](Rng* rng) {
    return gen::GenerateMeetup(config, rng);
  };
  exp::HarnessOptions options;
  options.repeats = 3;
  options.reuse_instance = true;  // the real-dataset protocol
  auto summaries =
      exp::RunComparison(factory, exp::PaperAlgorithms(), options);
  ASSERT_TRUE(summaries.ok()) << summaries.status();
  for (const auto& s : *summaries) {
    EXPECT_GT(s.utility.mean(), 0.0) << exp::AlgorithmName(s.algorithm);
  }
}

TEST(PipelineTest, SerializedInstanceReproducesLpPacking) {
  // Write -> read -> identical LP-packing trajectory under the same seed.
  Rng master(17);
  gen::SyntheticConfig config;
  config.num_events = 15;
  config.num_users = 30;
  Rng gen_rng = master.Fork();
  auto original = gen::GenerateSynthetic(config, &gen_rng);
  ASSERT_TRUE(original.ok());
  const std::string path = testing::TempDir() + "/pipeline_roundtrip.csv";
  ASSERT_TRUE(io::WriteInstanceCsv(*original, path).ok());
  auto loaded = io::ReadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok());

  Rng rng_a(424242), rng_b(424242);
  auto a = core::LpPacking(*original, &rng_a, {});
  auto b = core::LpPacking(*loaded, &rng_b, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->pairs(), b->pairs());
}

TEST(PipelineTest, UtilityIdentityAcrossBreakdown) {
  // Utility == β·ΣSI + (1-β)·ΣD for every algorithm's output (accounting
  // identity of Definition 7).
  Rng master(19);
  gen::SyntheticConfig config;
  config.num_events = 20;
  config.num_users = 40;
  config.beta = 0.3;
  Rng gen_rng = master.Fork();
  auto instance = gen::GenerateSynthetic(config, &gen_rng);
  ASSERT_TRUE(instance.ok());
  for (exp::Algorithm algorithm : exp::PaperAlgorithms()) {
    Rng rng = master.Fork();
    auto outcome = exp::RunOnInstance(*instance, algorithm, &rng, {});
    ASSERT_TRUE(outcome.ok());
  }
  auto greedy = algo::GreedyGg(*instance);
  ASSERT_TRUE(greedy.ok());
  const auto breakdown = greedy->Breakdown(*instance);
  EXPECT_NEAR(breakdown.total,
              0.3 * breakdown.interest_total + 0.7 * breakdown.degree_total,
              1e-9);
  EXPECT_NEAR(breakdown.total, greedy->Utility(*instance), 1e-9);
}

}  // namespace
}  // namespace igepa
