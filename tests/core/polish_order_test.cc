// The greedy-polish order helper (core/polish_order.h): a stable radix sort
// by descending weight must reproduce, permutation for permutation, the
// (weight desc, owner, column) comparison sort it replaces in the structured
// dual and in ShardedSolve, on ties, signed zeros, negative and subnormal
// weights, and on a dirty catalog whose appended columns break id order.

#include "core/polish_order.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/instance_delta.h"
#include "gen/delta_stream.h"
#include "gen/synthetic.h"
#include "util/rng.h"

namespace igepa {
namespace core {
namespace {

/// The comparison sort the helper replaces: heaviest first, ties by owner,
/// then by column id.
std::vector<int32_t> ComparatorOrder(std::vector<int32_t> ids,
                                     const std::vector<double>& weight,
                                     const std::vector<UserId>& owner) {
  std::sort(ids.begin(), ids.end(), [&](int32_t a, int32_t b) {
    const double wa = weight[static_cast<size_t>(a)];
    const double wb = weight[static_cast<size_t>(b)];
    if (wa != wb) return wa > wb;
    const UserId ua = owner[static_cast<size_t>(a)];
    const UserId ub = owner[static_cast<size_t>(b)];
    if (ua != ub) return ua < ub;
    return a < b;
  });
  return ids;
}

std::vector<int32_t> HelperOrder(std::vector<int32_t> ids,
                                 const std::vector<double>& weight) {
  SortByWeightDescending(&ids, [&](int32_t j) {
    return weight[static_cast<size_t>(j)];
  });
  return ids;
}

TEST(PolishOrderTest, MatchesTheComparatorOnRandomColumns) {
  // Few distinct weights, so ties within and across users are common; the
  // pool mixes both zeros, negatives, subnormals and the extremes.
  const std::vector<double> pool = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      2.75,
      -3.25,
      1e300,
      -1e300,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min() / 4.0,
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
  };
  Rng rng(20190408);
  for (int trial = 0; trial < 200; ++trial) {
    const int32_t users = 1 + static_cast<int32_t>(rng.UniformInt(0, 40));
    std::vector<double> weight;
    std::vector<UserId> owner;
    std::vector<int32_t> ids;  // user-major, ascending ids within a user
    for (UserId u = 0; u < users; ++u) {
      const int32_t cols = static_cast<int32_t>(rng.UniformInt(0, 12));
      for (int32_t k = 0; k < cols; ++k) {
        const bool from_pool = rng.UniformInt(0, 3) != 0;
        weight.push_back(
            from_pool ? pool[static_cast<size_t>(rng.UniformInt(
                            0, static_cast<int64_t>(pool.size()) - 1))]
                      : rng.UniformDouble(-4.0, 4.0));
        owner.push_back(u);
        ids.push_back(static_cast<int32_t>(ids.size()));
      }
    }
    EXPECT_EQ(HelperOrder(ids, weight), ComparatorOrder(ids, weight, owner))
        << "trial " << trial;
  }
}

TEST(PolishOrderTest, KeepsInputOrderOnTiesAndHandlesTrivialInputs) {
  // Equal weights keep their input order, not their id order: ShardedSolve
  // sorts positions into its refs this way.
  const std::vector<double> weight = {1.0, -0.0, 3.0, 0.0,
                                      1.0, -2.0, 3.0, -0.0};
  EXPECT_EQ(HelperOrder({7, 6, 5, 4, 3, 2, 1, 0}, weight),
            (std::vector<int32_t>{6, 2, 4, 0, 7, 3, 1, 5}));

  // Every digit shared by every key: nothing moves.
  const std::vector<int32_t> same = {4, 2, 9, 0};
  const std::vector<double> flat(10, 0.25);
  EXPECT_EQ(HelperOrder(same, flat), same);
  EXPECT_TRUE(HelperOrder({}, flat).empty());
  EXPECT_EQ(HelperOrder({3}, flat), std::vector<int32_t>{3});
}

TEST(PolishOrderTest, MatchesTheComparatorOnADirtyCatalog) {
  Rng rng(5);
  gen::SyntheticConfig config;
  config.num_users = 300;
  config.num_events = 40;
  auto instance = gen::GenerateSynthetic(config, &rng);
  ASSERT_TRUE(instance.ok());
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(*instance);
  gen::DeltaStreamConfig stream;
  stream.num_ticks = 3;
  stream.user_updates_per_tick = 20;
  stream.event_updates_per_tick = 2;
  CatalogDeltaOptions no_compact;
  no_compact.compact_min_dead_columns = 1 << 30;
  for (const InstanceDelta& delta :
       gen::GenerateDeltaStream(*instance, stream, &rng)) {
    ASSERT_TRUE(ApplyDelta(&*instance, delta).ok());
    ASSERT_TRUE(catalog.ApplyDelta(*instance, delta, no_compact).ok());
  }
  ASSERT_FALSE(catalog.canonical());

  // The structured dual's list: live columns in user-major order, where the
  // appended blocks of re-registered users carry the highest ids.
  std::vector<int32_t> ids;
  for (UserId u = 0; u < catalog.num_users(); ++u) {
    for (int32_t j = catalog.user_columns_begin(u);
         j < catalog.user_columns_end(u); ++j) {
      ids.push_back(j);
    }
  }
  ASSERT_FALSE(std::is_sorted(ids.begin(), ids.end()));
  EXPECT_EQ(HelperOrder(ids, catalog.weights()),
            ComparatorOrder(ids, catalog.weights(), catalog.col_users()));
}

}  // namespace
}  // namespace core
}  // namespace igepa
