#ifndef IGEPA_E2EBENCH_CHECKER_H_
#define IGEPA_E2EBENCH_CHECKER_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

// The benchmark's output checker. It shares no code with the library: it
// parses the instance files itself (CSV per docs/FORMATS.md §1, igepa-bin,3
// per §8), keeps its own model of the instance, and checks arrangements and
// LP certificates against the paper's definitions. Only the Definition-7
// utility (the default interaction_interest kernel) is supported, which is
// what every workload uses.

namespace e2ebench {

/// The checker's own view of an IGEPA instance.
struct CheckInstance {
  int32_t num_events = 0;
  int32_t num_users = 0;
  double beta = 0.0;
  std::vector<int32_t> event_capacity;
  std::vector<int32_t> user_capacity;
  std::vector<std::vector<int32_t>> bids;  // per user, ascending, distinct
  /// SI for bid pairs, parallel to `bids` (sparse sources).
  std::vector<std::vector<double>> bid_interest;
  /// SI for every (event, user) pair, event-major (dense sources); empty
  /// for sparse sources.
  std::vector<double> dense_interest;
  std::vector<double> degree;
  std::vector<uint8_t> conflicts;  // num_events x num_events, symmetric

  bool HasBid(int32_t u, int32_t v) const;
  bool Conflicts(int32_t a, int32_t b) const {
    return conflicts[static_cast<size_t>(a) * num_events + b] != 0;
  }
  /// SI(v, u); NaN when the source did not carry the pair.
  double Interest(int32_t v, int32_t u) const;
  /// Definition-6 pair weight β·SI + (1−β)·D.
  double PairWeight(int32_t v, int32_t u) const {
    return beta * Interest(v, u) + (1.0 - beta) * degree[u];
  }
};

/// Parses an instance CSV (sparse or dense interest). Returns "" on success,
/// otherwise what was wrong.
std::string ParseInstanceCsv(const std::string& path, CheckInstance* out);

/// Parses an igepa-bin,3 file. Returns "" on success.
std::string ParseInstanceBinary(const std::string& path, CheckInstance* out);

/// Replays a registration update onto the checker's model (dense interest
/// required, so new bid pairs keep their SI). Returns "" on success.
std::string ApplyUserUpdate(CheckInstance* instance, int32_t user,
                            int32_t capacity, std::vector<int32_t> bids);
std::string ApplyEventCapacity(CheckInstance* instance, int32_t event,
                               int32_t capacity);

/// True when no user can own more than `max_sets_per_user` admissible sets
/// (Σ_{k ≤ c_u} C(|N_u|, k) bounds them), so the catalog enumeration cannot
/// have been truncated and Lemma 1's upper bound applies to the utility.
bool EnumerationCannotTruncate(const CheckInstance& instance,
                               int64_t max_sets_per_user);

using Pair = std::pair<int32_t, int32_t>;  // (event, user)

/// What the library claims about one arrangement.
struct Claims {
  /// Arrangement::Utility.
  double utility = 0.0;
  /// Arrangement::KernelUtility (NaN: not claimed).
  double kernel_utility = std::numeric_limits<double>::quiet_NaN();
  /// Certified LP upper bound (NaN: Lemma 1 does not apply).
  double upper_bound = std::numeric_limits<double>::quiet_NaN();
};

/// Relative tolerance of the utility comparison: the library sums pair
/// weights in its own order, which moves the last bits only.
inline constexpr double kUtilityRelTol = 1e-9;

/// Checks one arrangement: ids in range and no duplicate pair; every pair a
/// bid; no user above c_u and no event above c_v; no user holding two
/// conflicting events; the utility recomputed as Σ β·SI + (1−β)·D equal to
/// the claims within kUtilityRelTol; and, when claimed, the utility at most
/// the LP upper bound. Each failure message starts with a stable tag
/// (pair-range, duplicate-pair, non-bid, user-capacity, event-capacity,
/// conflict, utility-mismatch, kernel-utility-mismatch, above-upper-bound).
/// `recomputed_utility`, when non-null, receives the checker's utility.
std::vector<std::string> CheckArrangement(const CheckInstance& instance,
                                          std::span<const Pair> pairs,
                                          const Claims& claims,
                                          double* recomputed_utility = nullptr);

/// A benchmark-LP solution over a canonical catalog, as raw arrays.
struct LpCertificate {
  std::span<const int32_t> pool;       // events of all columns
  std::span<const int64_t> col_begin;  // size columns + 1
  std::span<const int32_t> col_user;   // owner per column
  std::span<const double> weight;      // w(u, S) per column
  std::span<const double> x;           // fractional solution per column
  double objective = 0.0;
  double upper_bound = 0.0;
  /// Event duals μ, one per event.
  std::span<const double> event_duals;
};

/// Recomputes the LP certificate from the instance: every column's weight
/// equals the recomputed w(u, S) (relative 1e-12 — same operands, same
/// order) and every column is a set of the owner's bids; x satisfies rows
/// (2)-(4); Σ w·x equals the objective; and the Lagrangian
/// L(μ) = Σ_v c_v μ_v + Σ_u max(0, max_S (w(u,S) − Σ_{v∈S} μ_v)) at the
/// reported event duals equals the reported upper bound (relative 1e-9).
/// Tags: catalog-column, catalog-weight, lp-x-bounds, lp-user-row,
/// lp-event-row, lp-objective, lp-duals (not one dual per event),
/// lp-dual-sign, lp-dual-bound.
std::vector<std::string> CheckLpCertificate(const CheckInstance& instance,
                                            const LpCertificate& lp);

/// One published epoch of an arrangement service.
struct EpochEntry {
  int64_t epoch = 0;       // 0-based epoch number
  int64_t version = 0;     // snapshot version the epoch published
  int64_t batch_size = 0;  // deltas coalesced into the epoch
};

/// What a stopped arrangement service reports about its epochs, as plain
/// data: the epochs in publish order (MetricsHistory()), then the final
/// snapshot's version and the service counters (Stats()).
struct ServiceLog {
  std::vector<EpochEntry> epochs;
  int64_t final_version = 0;
  int64_t applied = 0;  // deltas the service counts as applied
  int64_t pending = 0;  // deltas the service still holds
};

/// Checks a stopped service against the `accepted` deltas submitted to it.
/// versions: epochs are numbered 0, 1, 2, ... and epoch k publishes version
/// k + 2 (the bootstrap publishes 1); the final snapshot is the last
/// epoch's. exactly-once: the batch sizes sum to `accepted`, the service
/// counts exactly `accepted` applied and none pending. A delta applied twice
/// shows only here, in the counters: every delta of the default mutation mix
/// overwrites a value, so a repeat leaves the state CheckServedState sees
/// unchanged.
std::vector<std::string> CheckServiceLog(const ServiceLog& log,
                                         int64_t accepted);

/// The served instance's registrations (event and user capacities and bids;
/// other fields are not read) must equal `tracked`, the state the benchmark
/// derived from the deltas it submitted. A dropped delta, two deltas to the
/// same user or event applied out of order, or one re-applied after a later
/// one to the same user or event shows here. Tag: served-state.
std::vector<std::string> CheckServedState(const CheckInstance& tracked,
                                          const CheckInstance& served);

/// Snapshot versions in the order a reader thread saw them: strictly
/// increasing and ending at the service's `final_version`. Tag:
/// reader-versions.
std::vector<std::string> CheckReaderVersions(std::span<const int64_t> seen,
                                             int64_t final_version);

/// Two outputs that must be identical, compared byte for byte: arrangements
/// at 1 and N threads, with and without a memory budget, published and
/// replayed, served and recovered. Reports the first differing byte under
/// `tag` (thread-identity, budget-identity, replay-identity,
/// recover-identity); `what` names the outputs.
std::vector<std::string> CheckSameBytes(const std::string& tag,
                                        const std::string& what,
                                        std::string_view expected,
                                        std::string_view actual);

/// The object bytes of `values` (pairs, doubles), for CheckSameBytes.
template <typename T>
std::string_view RawBytes(std::span<const T> values) {
  return {reinterpret_cast<const char*>(values.data()), values.size_bytes()};
}

}  // namespace e2ebench

#endif  // IGEPA_E2EBENCH_CHECKER_H_
