// Tests of the benchmark's output checker: every check is fed an input that
// breaks exactly what it guards and must report it under its tag, and the
// intact inputs must pass.

#include "checker.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <span>
#include <string>
#include <vector>

namespace e2ebench {
namespace {

// 3 events, 3 users. Event capacities 1, 2, 2; events 0 and 1 conflict.
// User 0 (c_u 2) bids {0, 1}, user 1 (c_u 1) bids {1, 2}, user 2 (c_u 2)
// bids {0, 2}. With β = 0.5 the pair weights are
//   w(0,0) = 0.5    w(1,0) = 0.375
//   w(1,1) = 0.625  w(2,1) = 0.5
//   w(0,2) = 0.5625 w(2,2) = 0.75
constexpr char kInstanceCsv[] =
    "igepa,1,3,3,0.5\n"
    "event,0,1\n"
    "event,1,2\n"
    "event,2,2\n"
    "user,0,2,0;1\n"
    "user,1,1,1;2\n"
    "user,2,2,0;2\n"
    "conflict,0,1\n"
    "interest,0,0,0.5\n"
    "interest,1,0,0.25\n"
    "interest,1,1,1\n"
    "interest,2,1,0.75\n"
    "interest,0,2,0.125\n"
    "interest,2,2,0.5\n"
    "degree,0,0.5\n"
    "degree,1,0.25\n"
    "degree,2,1\n";

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/e2ebench_" + name;
}

CheckInstance LoadTestInstance() {
  const std::string path = TempPath("instance.csv");
  std::ofstream(path) << kInstanceCsv;
  CheckInstance instance;
  EXPECT_EQ(ParseInstanceCsv(path, &instance), "");
  return instance;
}

bool HasTag(const std::vector<std::string>& failures, const std::string& tag) {
  for (const std::string& f : failures) {
    if (f.rfind(tag + ":", 0) == 0) return true;
  }
  return false;
}

// The utility a correct library would claim for `pairs`.
Claims TrueClaims(const CheckInstance& instance,
                  const std::vector<Pair>& pairs) {
  Claims claims;
  for (const auto& [v, u] : pairs) claims.utility += instance.PairWeight(v, u);
  return claims;
}

TEST(CheckArrangement, FeasibleArrangementPasses) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> pairs = {{0, 0}, {1, 1}, {2, 2}};
  Claims claims = TrueClaims(instance, pairs);
  EXPECT_DOUBLE_EQ(claims.utility, 1.875);
  claims.kernel_utility = claims.utility * (1 + 1e-12);  // summation order
  claims.upper_bound = 1.875;
  double recomputed = 0.0;
  EXPECT_TRUE(CheckArrangement(instance, pairs, claims, &recomputed).empty());
  EXPECT_DOUBLE_EQ(recomputed, 1.875);
}

TEST(CheckArrangement, OverUserCapacityFails) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> pairs = {{1, 1}, {2, 1}};  // c_u(1) = 1
  const auto failures =
      CheckArrangement(instance, pairs, TrueClaims(instance, pairs));
  EXPECT_TRUE(HasTag(failures, "user-capacity"));
  EXPECT_EQ(failures.size(), 1u);
}

TEST(CheckArrangement, OverEventCapacityFails) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> pairs = {{0, 0}, {0, 2}};  // c_v(0) = 1
  const auto failures =
      CheckArrangement(instance, pairs, TrueClaims(instance, pairs));
  EXPECT_TRUE(HasTag(failures, "event-capacity"));
  EXPECT_EQ(failures.size(), 1u);
}

TEST(CheckArrangement, NonBidPairFails) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> pairs = {{2, 0}};  // user 0 never bid event 2
  EXPECT_TRUE(HasTag(CheckArrangement(instance, pairs, Claims{}), "non-bid"));
}

TEST(CheckArrangement, ConflictingPairFails) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> pairs = {{0, 0}, {1, 0}};  // σ(0, 1) = 1
  const auto failures =
      CheckArrangement(instance, pairs, TrueClaims(instance, pairs));
  EXPECT_TRUE(HasTag(failures, "conflict"));
  EXPECT_EQ(failures.size(), 1u);
}

TEST(CheckArrangement, DuplicateOrOutOfRangePairFails) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> dup = {{2, 2}, {2, 2}};
  EXPECT_TRUE(HasTag(CheckArrangement(instance, dup, TrueClaims(instance, dup)),
                     "duplicate-pair"));
  const std::vector<Pair> range = {{3, 0}};
  EXPECT_TRUE(HasTag(CheckArrangement(instance, range, Claims{}), "pair-range"));
}

TEST(CheckArrangement, TamperedUtilityFails) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> pairs = {{0, 0}, {1, 1}, {2, 2}};
  Claims claims = TrueClaims(instance, pairs);
  claims.utility *= 1 + 1e-6;
  EXPECT_TRUE(HasTag(CheckArrangement(instance, pairs, claims),
                     "utility-mismatch"));
  claims = TrueClaims(instance, pairs);
  claims.kernel_utility = claims.utility + 0.5;
  EXPECT_TRUE(HasTag(CheckArrangement(instance, pairs, claims),
                     "kernel-utility-mismatch"));
}

TEST(CheckArrangement, UtilityAboveUpperBoundFails) {
  const CheckInstance instance = LoadTestInstance();
  const std::vector<Pair> pairs = {{0, 0}, {1, 1}, {2, 2}};
  Claims claims = TrueClaims(instance, pairs);
  claims.upper_bound = 1.8;
  EXPECT_TRUE(HasTag(CheckArrangement(instance, pairs, claims),
                     "above-upper-bound"));
}

// The full catalog of the test instance (singletons, plus {0, 2} for user 2;
// {0, 1} conflicts and user 1 has c_u = 1) with x picking one column per
// user and μ = 0, where L(0) = Σ_u max_S w(u, S) = 0.5 + 0.625 + 1.3125.
struct TestLp {
  std::vector<int32_t> pool = {0, 1, 1, 2, 0, 2, 0, 2};
  std::vector<int64_t> col_begin = {0, 1, 2, 3, 4, 5, 6, 8};
  std::vector<int32_t> col_user = {0, 0, 1, 1, 2, 2, 2};
  std::vector<double> weight = {0.5, 0.375, 0.625, 0.5, 0.5625, 0.75, 1.3125};
  std::vector<double> x = {1, 0, 1, 0, 0, 1, 0};
  double objective = 1.875;
  double upper_bound = 2.4375;
  std::vector<double> mu = {0, 0, 0};

  LpCertificate View() const {
    return {pool, col_begin, col_user, weight, x, objective, upper_bound, mu};
  }
};

TEST(CheckLpCertificate, ConsistentCertificatePasses) {
  const CheckInstance instance = LoadTestInstance();
  TestLp lp;
  EXPECT_TRUE(CheckLpCertificate(instance, lp.View()).empty());
  // A positive μ moves L(μ): μ_2 = 0.25 gives 0.5 + 0.625 + 1.0625 + 2·0.25.
  lp.mu = {0, 0, 0.25};
  lp.upper_bound = 0.5 + 0.625 + 1.0625 + 0.5;
  EXPECT_TRUE(CheckLpCertificate(instance, lp.View()).empty());
}

TEST(CheckLpCertificate, WrongColumnWeightFails) {
  const CheckInstance instance = LoadTestInstance();
  TestLp lp;
  lp.weight[3] = 0.6;
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, lp.View()),
                     "catalog-weight"));
}

TEST(CheckLpCertificate, NonBidColumnFails) {
  const CheckInstance instance = LoadTestInstance();
  TestLp lp;
  lp.pool[1] = 2;  // user 0 never bid event 2
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, lp.View()),
                     "catalog-column"));
}

TEST(CheckLpCertificate, ViolatedRowsFail) {
  const CheckInstance instance = LoadTestInstance();
  TestLp user_row;
  user_row.x[1] = 0.5;  // user 0: 1 + 0.5 > 1
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, user_row.View()),
                     "lp-user-row"));
  TestLp event_row;
  event_row.x = {1, 0, 1, 0, 1, 0, 0};  // event 0: 2 > c_v = 1
  event_row.objective = 0.5 + 0.625 + 0.5625;
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, event_row.View()),
                     "lp-event-row"));
  TestLp bounds;
  bounds.x[1] = -0.25;
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, bounds.View()),
                     "lp-x-bounds"));
}

TEST(CheckLpCertificate, WrongObjectiveOrBoundFails) {
  const CheckInstance instance = LoadTestInstance();
  TestLp objective;
  objective.objective = 1.9;
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, objective.View()),
                     "lp-objective"));
  TestLp bound;
  bound.upper_bound = 2.5;
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, bound.View()),
                     "lp-dual-bound"));
  TestLp sign;
  sign.mu = {0, -0.25, 0};
  sign.upper_bound = 2.3125;  // L(μ) itself matches; the sign does not
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, sign.View()),
                     "lp-dual-sign"));
}

TEST(CheckLpCertificate, MissingEventDualsFail) {
  const CheckInstance instance = LoadTestInstance();
  TestLp none;
  none.mu.clear();
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, none.View()), "lp-duals"));
  TestLp short_duals;
  short_duals.mu = {0, 0};
  EXPECT_TRUE(HasTag(CheckLpCertificate(instance, short_duals.View()),
                     "lp-duals"));
}

TEST(ParseInstanceCsv, RejectsMalformedFiles) {
  const std::string path = TempPath("bad.csv");
  CheckInstance instance;
  std::ofstream(path) << "igepa,1,1,1,0.5\nevent,0,1\nuser,0,1,0\n"
                         "degree,0,0.5\n";  // no interest for the bid pair
  EXPECT_NE(ParseInstanceCsv(path, &instance), "");
  std::ofstream(path) << "igepa,1,1,1,0.5\nevent,0,1\nuser,0,1,3\n";
  EXPECT_NE(ParseInstanceCsv(path, &instance), "");
  std::ofstream(path) << "igepa,2,1,1,0.5\nkernel,cohesion:0.5\n";
  EXPECT_NE(ParseInstanceCsv(path, &instance), "");
}

// Writes the igepa-bin,3 layout of docs/FORMATS.md §8 by hand.
void WriteBinary(const std::string& path, bool truncate) {
  std::string bytes(64, '\0');
  auto put = [&](const void* data, size_t n) {
    bytes.append(static_cast<const char*>(data), n);
  };
  auto pad = [&] { bytes.resize((bytes.size() + 7) & ~size_t{7}, '\0'); };
  const std::string kernel = "interaction_interest";
  std::memcpy(bytes.data(), "igepabin", 8);
  const uint32_t version = 3;
  const auto kernel_len = static_cast<uint32_t>(kernel.size());
  const int32_t nv = 2, nu = 2;
  const int64_t bids = 3, conflicts = 1;
  const double beta = 0.5;
  std::memcpy(bytes.data() + 8, &version, 4);
  std::memcpy(bytes.data() + 12, &kernel_len, 4);
  std::memcpy(bytes.data() + 16, &nv, 4);
  std::memcpy(bytes.data() + 20, &nu, 4);
  std::memcpy(bytes.data() + 24, &bids, 8);
  std::memcpy(bytes.data() + 32, &conflicts, 8);
  std::memcpy(bytes.data() + 40, &beta, 8);
  put(kernel.data(), kernel.size());
  pad();
  const int32_t event_cap[] = {1, 3};
  put(event_cap, sizeof(event_cap));
  pad();
  const int32_t user_cap[] = {1, 2};
  put(user_cap, sizeof(user_cap));
  pad();
  const int64_t offsets[] = {0, 1, 3};
  put(offsets, sizeof(offsets));
  const int32_t pool[] = {1, 0, 1};
  put(pool, sizeof(pool));
  pad();
  const double interest[] = {0.25, 0.5, 1.0};
  put(interest, sizeof(interest));
  const double degree[] = {0.75, 0.125};
  put(degree, sizeof(degree));
  const int32_t pairs[] = {0, 1};
  put(pairs, sizeof(pairs));
  pad();
  const uint32_t crc = 0;  // the checker leaves CRC validation to the library
  put(&crc, 4);
  put("IGB3", 4);
  if (truncate) bytes.resize(bytes.size() - 3);
  std::ofstream(path, std::ios::binary) << bytes;
}

TEST(ParseInstanceBinary, ReadsTheDocumentedLayout) {
  const std::string path = TempPath("instance.bin");
  WriteBinary(path, /*truncate=*/false);
  CheckInstance instance;
  ASSERT_EQ(ParseInstanceBinary(path, &instance), "");
  EXPECT_EQ(instance.num_events, 2);
  EXPECT_EQ(instance.num_users, 2);
  EXPECT_EQ(instance.event_capacity, (std::vector<int32_t>{1, 3}));
  EXPECT_EQ(instance.bids[1], (std::vector<int32_t>{0, 1}));
  EXPECT_TRUE(instance.Conflicts(1, 0));
  EXPECT_DOUBLE_EQ(instance.PairWeight(1, 1), 0.5 * 1.0 + 0.5 * 0.125);
  WriteBinary(path, /*truncate=*/true);
  EXPECT_NE(ParseInstanceBinary(path, &instance), "");
}

TEST(EnumerationCannotTruncate, BoundsTheSubsetCount) {
  CheckInstance instance = LoadTestInstance();
  EXPECT_TRUE(EnumerationCannotTruncate(instance, 4096));
  EXPECT_FALSE(EnumerationCannotTruncate(instance, 3));  // user 2: 1 + 2 + 1
  instance.bids[0].clear();
  for (int32_t v = 0; v < 13; ++v) instance.bids[0].push_back(v);
  instance.user_capacity[0] = 13;  // 2^13 subsets > 4096
  EXPECT_FALSE(EnumerationCannotTruncate(instance, 4096));
}

TEST(Tracking, AppliesUpdatesOnDenseInstancesOnly) {
  CheckInstance sparse = LoadTestInstance();
  EXPECT_NE(ApplyUserUpdate(&sparse, 0, 1, {2}), "");
  CheckInstance dense = sparse;
  dense.dense_interest.assign(9, 0.5);
  EXPECT_EQ(ApplyUserUpdate(&dense, 0, 1, {2, 2, 0}), "");
  EXPECT_EQ(dense.bids[0], (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(ApplyEventCapacity(&dense, 1, 5), "");
  EXPECT_EQ(dense.event_capacity[1], 5);
  EXPECT_NE(ApplyEventCapacity(&dense, 3, 1), "");
}

// Three epochs of batch sizes 2, 0, 3 after the bootstrap (version 1).
ServiceLog IntactLog() {
  ServiceLog log;
  log.epochs = {{0, 2, 2}, {1, 3, 0}, {2, 4, 3}};
  log.final_version = 4;
  log.applied = 5;
  log.pending = 0;
  return log;
}

TEST(CheckServiceLog, ContiguousExactlyOnceLogPasses) {
  EXPECT_TRUE(CheckServiceLog(IntactLog(), 5).empty());
  ServiceLog idle;  // stopped before any epoch: the bootstrap snapshot only
  idle.final_version = 1;
  EXPECT_TRUE(CheckServiceLog(idle, 0).empty());
}

TEST(CheckServiceLog, SkippedVersionFails) {
  ServiceLog skipped = IntactLog();
  skipped.epochs[2].version = 5;
  skipped.final_version = 5;
  EXPECT_TRUE(HasTag(CheckServiceLog(skipped, 5), "versions"));
  ServiceLog epoch_gap = IntactLog();
  epoch_gap.epochs[1].epoch = 2;
  epoch_gap.epochs[2].epoch = 3;
  EXPECT_TRUE(HasTag(CheckServiceLog(epoch_gap, 5), "versions"));
  ServiceLog stale_final = IntactLog();
  stale_final.final_version = 3;
  EXPECT_TRUE(HasTag(CheckServiceLog(stale_final, 5), "versions"));
}

TEST(CheckServiceLog, MiscountedDeltaFails) {
  ServiceLog dropped = IntactLog();
  dropped.epochs[2].batch_size = 2;  // one accepted delta in no batch
  EXPECT_TRUE(HasTag(CheckServiceLog(dropped, 5), "exactly-once"));
  ServiceLog twice = IntactLog();
  twice.applied = 6;  // one delta applied twice
  EXPECT_TRUE(HasTag(CheckServiceLog(twice, 5), "exactly-once"));
  ServiceLog pending = IntactLog();
  pending.pending = 1;
  EXPECT_TRUE(HasTag(CheckServiceLog(pending, 5), "exactly-once"));
  EXPECT_TRUE(HasTag(CheckServiceLog(IntactLog(), 6), "exactly-once"));
}

// The test instance with a dense interest table, so registrations can be
// tracked.
CheckInstance TrackableInstance() {
  CheckInstance instance = LoadTestInstance();
  instance.dense_interest.assign(9, 0.5);
  return instance;
}

TEST(CheckServedState, EqualRegistrationsPass) {
  CheckInstance tracked = TrackableInstance();
  CheckInstance served = tracked;
  ASSERT_EQ(ApplyUserUpdate(&tracked, 1, 2, {0, 2}), "");
  ASSERT_EQ(ApplyUserUpdate(&served, 1, 2, {2, 0}), "");
  EXPECT_TRUE(CheckServedState(tracked, served).empty());
}

TEST(CheckServedState, DroppedOrReorderedRegistrationFails) {
  const CheckInstance initial = TrackableInstance();
  CheckInstance tracked = initial;
  ASSERT_EQ(ApplyUserUpdate(&tracked, 1, 2, {0, 2}), "");
  ASSERT_EQ(ApplyUserUpdate(&tracked, 1, 0, {}), "");  // then cancels
  // Dropped: the cancellation never reached the served instance.
  CheckInstance dropped = initial;
  ASSERT_EQ(ApplyUserUpdate(&dropped, 1, 2, {0, 2}), "");
  EXPECT_TRUE(HasTag(CheckServedState(tracked, dropped), "served-state"));
  // Reordered: the same two updates applied the other way round.
  CheckInstance reordered = initial;
  ASSERT_EQ(ApplyUserUpdate(&reordered, 1, 0, {}), "");
  ASSERT_EQ(ApplyUserUpdate(&reordered, 1, 2, {0, 2}), "");
  EXPECT_TRUE(HasTag(CheckServedState(tracked, reordered), "served-state"));
  // An event capacity change lost.
  CheckInstance capacity = tracked;
  ASSERT_EQ(ApplyEventCapacity(&capacity, 2, 7), "");
  EXPECT_TRUE(HasTag(CheckServedState(tracked, capacity), "served-state"));
}

TEST(CheckServedState, AdjacentRepeatLeavesTheStateEqual) {
  // Why CheckServiceLog's counters judge duplicates: an update applied twice
  // in a row overwrites with the same value.
  CheckInstance tracked = TrackableInstance();
  CheckInstance served = tracked;
  ASSERT_EQ(ApplyUserUpdate(&tracked, 0, 1, {1}), "");
  ASSERT_EQ(ApplyUserUpdate(&served, 0, 1, {1}), "");
  ASSERT_EQ(ApplyUserUpdate(&served, 0, 1, {1}), "");
  EXPECT_TRUE(CheckServedState(tracked, served).empty());
}

TEST(CheckReaderVersions, IncreasingVersionsEndingAtTheFinalPass) {
  const std::vector<int64_t> seen = {1, 2, 4, 5};  // 3 published between polls
  EXPECT_TRUE(CheckReaderVersions(seen, 5).empty());
}

TEST(CheckReaderVersions, BackwardsOrMissingFinalFails) {
  const std::vector<int64_t> backwards = {1, 3, 2};
  EXPECT_TRUE(HasTag(CheckReaderVersions(backwards, 3), "reader-versions"));
  const std::vector<int64_t> repeated = {1, 2, 2};
  EXPECT_TRUE(HasTag(CheckReaderVersions(repeated, 2), "reader-versions"));
  const std::vector<int64_t> short_of_final = {1, 2};
  EXPECT_TRUE(
      HasTag(CheckReaderVersions(short_of_final, 3), "reader-versions"));
  EXPECT_TRUE(HasTag(CheckReaderVersions({}, 1), "reader-versions"));
}

TEST(CheckSameBytes, IdenticalOutputsPass) {
  const std::vector<Pair> pairs = {{0, 0}, {2, 2}};
  const std::vector<Pair> copy = pairs;
  EXPECT_TRUE(CheckSameBytes("thread-identity", "arrangements",
                             RawBytes(std::span<const Pair>(pairs)),
                             RawBytes(std::span<const Pair>(copy)))
                  .empty());
}

TEST(CheckSameBytes, DifferingOutputsFail) {
  const std::vector<Pair> pairs = {{0, 0}, {2, 2}};
  const std::vector<Pair> moved = {{0, 0}, {2, 1}};
  EXPECT_TRUE(HasTag(CheckSameBytes("thread-identity", "arrangements",
                                    RawBytes(std::span<const Pair>(pairs)),
                                    RawBytes(std::span<const Pair>(moved))),
                     "thread-identity"));
  const std::vector<Pair> dropped = {{0, 0}};
  EXPECT_TRUE(HasTag(CheckSameBytes("replay-identity", "arrangements",
                                    RawBytes(std::span<const Pair>(pairs)),
                                    RawBytes(std::span<const Pair>(dropped))),
                     "replay-identity"));
  // The last bit of a utility, as two summation orders would move it.
  const std::vector<double> published = {1944.7791877966019};
  const std::vector<double> replayed = {
      std::nextafter(published[0], 2000.0)};
  EXPECT_TRUE(HasTag(CheckSameBytes("replay-identity", "utilities",
                                    RawBytes(std::span<const double>(published)),
                                    RawBytes(std::span<const double>(replayed))),
                     "replay-identity"));
  EXPECT_TRUE(HasTag(CheckSameBytes("budget-identity", "CSVs", "0,1\n2,3\n",
                                    "0,1\n2,4\n"),
                     "budget-identity"));
  EXPECT_TRUE(HasTag(CheckSameBytes("recover-identity", "snapshots",
                                    "version 64\n0,1\n", "version 63\n0,1\n"),
                     "recover-identity"));
}

}  // namespace
}  // namespace e2ebench
