// Every entry point that pairs an admissible catalog with an instance must
// reject a catalog built on an instance of another shape with
// InvalidArgument: a catalog built on 40 events, handed in with a 5-event
// instance, would index the solvers' 5-slot per-event arrays with event ids
// up to 39.

#include <gtest/gtest.h>

#include <functional>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "algo/baselines.h"
#include "algo/online.h"
#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "util/rng.h"

namespace igepa {
namespace core {
namespace {

Instance MakeInstance(int32_t events, uint64_t seed) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_users = 300;
  config.num_events = events;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

/// One entry point, called with `instance` and a catalog that may belong to
/// another instance; returns the call's status.
struct EntryPoint {
  std::string name;
  std::function<Status(const Instance&, const AdmissibleCatalog&)> call;
};

void PrintTo(const EntryPoint& entry, std::ostream* os) { *os << entry.name; }

/// A fractional solution over the catalog's columns: all zero.
FractionalSolution ZeroFractional(const AdmissibleCatalog& catalog) {
  FractionalSolution fractional;
  fractional.lp.x.assign(static_cast<size_t>(catalog.num_columns()), 0.0);
  return fractional;
}

/// A rounding state with nothing sampled, shaped for `instance`.
RoundingState EmptyRoundingState(const Instance& instance,
                                 const AdmissibleCatalog& catalog) {
  RoundingState state;
  state.sampled_col.assign(static_cast<size_t>(instance.num_users()), -1);
  state.demand.assign(static_cast<size_t>(instance.num_events()), 0);
  state.cutoff.assign(static_cast<size_t>(instance.num_events()), 0);
  state.catalog_revision = catalog.ids_revision();
  return state;
}

std::vector<EntryPoint> EntryPoints() {
  return {
      {"SolveBenchmarkLpStructured",
       [](const Instance& instance, const AdmissibleCatalog& catalog) {
         return SolveBenchmarkLpStructured(instance, catalog).status();
       }},
      {"SolveBenchmarkLpForPacking",
       [](const Instance& instance, const AdmissibleCatalog& catalog) {
         return SolveBenchmarkLpForPacking(instance, catalog).status();
       }},
      {"RoundFractional",
       [](const Instance& instance, const AdmissibleCatalog& catalog) {
         Rng rng(3);
         return RoundFractional(instance, catalog, ZeroFractional(catalog),
                                &rng)
             .status();
       }},
      {"RepairSampledColumns",
       [](const Instance& instance, const AdmissibleCatalog& catalog) {
         return RepairSampledColumns(
                    instance, catalog,
                    std::vector<int32_t>(
                        static_cast<size_t>(instance.num_users()), -1))
             .status();
       }},
      {"RoundFractionalDelta",
       [](const Instance& instance, const AdmissibleCatalog& catalog) {
         Rng rng(3);
         RoundingState state = EmptyRoundingState(instance, catalog);
         return RoundFractionalDelta(instance, catalog,
                                     ZeroFractional(catalog), {0, 1}, {0},
                                     &rng, &state)
             .status();
       }},
      {"OnlineArrange",
       [](const Instance& instance, const AdmissibleCatalog& catalog) {
         std::vector<UserId> order(static_cast<size_t>(instance.num_users()));
         std::iota(order.begin(), order.end(), 0);
         return algo::OnlineArrange(instance, catalog, order).status();
       }},
      {"GreedyBestSet",
       [](const Instance& instance, const AdmissibleCatalog& catalog) {
         return algo::GreedyBestSet(instance, catalog).status();
       }},
  };
}

class CatalogShapeTest : public ::testing::TestWithParam<EntryPoint> {};

TEST_P(CatalogShapeTest, RejectsCatalogOfAnotherInstance) {
  const Instance wide = MakeInstance(40, 11);
  const Instance narrow = MakeInstance(5, 12);
  ASSERT_EQ(wide.num_users(), narrow.num_users());
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(wide);
  ASSERT_GT(catalog.num_live_columns(), 0);

  // The same arguments are valid with the instance the catalog was built on.
  EXPECT_TRUE(GetParam().call(wide, catalog).ok());
  const Status mismatch = GetParam().call(narrow, catalog);
  EXPECT_EQ(mismatch.code(), StatusCode::kInvalidArgument) << mismatch;
}

INSTANTIATE_TEST_SUITE_P(
    EntryPoints, CatalogShapeTest, ::testing::ValuesIn(EntryPoints()),
    [](const ::testing::TestParamInfo<EntryPoint>& info) {
      return info.param.name;
    });

TEST(CatalogShapeTest, CheckShapeComparesUsersAndEvents) {
  const Instance instance = MakeInstance(40, 11);
  const AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance);
  EXPECT_TRUE(catalog.CheckShape(instance).ok());
  EXPECT_EQ(catalog.CheckShape(MakeInstance(5, 12)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(AdmissibleCatalog().CheckShape(instance).code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace core
}  // namespace igepa
