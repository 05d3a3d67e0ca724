#include "algo/online.h"

#include <algorithm>
#include <numeric>

namespace igepa {
namespace algo {

using core::Arrangement;
using core::EventId;
using core::Instance;
using core::UserId;

Result<Arrangement> OnlineArrange(const Instance& instance,
                                  const core::AdmissibleCatalog& catalog,
                                  const std::vector<UserId>& arrival_order,
                                  const OnlineOptions& options,
                                  OnlineStats* stats) {
  const int32_t nu = instance.num_users();
  IGEPA_RETURN_IF_ERROR(catalog.CheckShape(instance));
  if (static_cast<int32_t>(arrival_order.size()) != nu) {
    return Status::InvalidArgument("arrival order size mismatch");
  }
  std::vector<bool> seen(static_cast<size_t>(nu), false);
  for (UserId u : arrival_order) {
    if (u < 0 || u >= nu || seen[static_cast<size_t>(u)]) {
      return Status::InvalidArgument("arrival order is not a permutation");
    }
    seen[static_cast<size_t>(u)] = true;
  }
  if (options.threshold_fraction < 0.0 || options.threshold_fraction > 1.0) {
    return Status::InvalidArgument("threshold_fraction outside [0,1]");
  }
  if (stats != nullptr) *stats = OnlineStats{};

  Arrangement arrangement(instance.num_events(), nu);
  std::vector<int32_t> residual(static_cast<size_t>(instance.num_events()));
  for (EventId v = 0; v < instance.num_events(); ++v) {
    residual[static_cast<size_t>(v)] = instance.event_capacity(v);
  }

  std::vector<EventId> best_set;
  for (UserId u : arrival_order) {
    // The user's feasible menu right now: their catalog columns, with —
    // under the threshold policy — every pair weight at least the fraction
    // of the user's best bid weight.
    double best_bid_weight = 0.0;
    for (EventId v : instance.bids(u)) {
      best_bid_weight = std::max(best_bid_weight, instance.PairWeight(v, u));
    }
    const double cutoff = options.policy == OnlinePolicy::kThreshold
                              ? options.threshold_fraction * best_bid_weight
                              : 0.0;
    // Walk the user's catalog columns (the enumerator's emit order) and take
    // the best set whose events all clear residual capacity and the cutoff.
    // Catalog spans are ascending by event id — the same canonical order the
    // legacy nested enumerator stored — so checking, summing and emitting in
    // span order keeps arrangement, stats and floating-point sums
    // bit-identical to the pre-catalog per-user enumeration loop this
    // replaced (pinned by OnlineTest.CatalogPathBitIdenticalToLegacy…).
    double best_weight = 0.0;
    bool selected = false;
    for (int32_t j = catalog.user_columns_begin(u);
         j < catalog.user_columns_end(u); ++j) {
      const auto span = catalog.set(j);
      bool ok = true;
      double w = 0.0;
      for (EventId v : span) {
        if (residual[static_cast<size_t>(v)] <= 0) {
          ok = false;
          break;
        }
        const double pair_w = instance.PairWeight(v, u);
        if (pair_w < cutoff) {
          ok = false;
          if (stats != nullptr) ++stats->pairs_rejected_by_threshold;
          break;
        }
        w += pair_w;
      }
      if (ok && w > best_weight) {
        best_weight = w;
        best_set.assign(span.begin(), span.end());
        selected = true;
      }
    }
    if (!selected) {
      if (stats != nullptr) ++stats->users_empty;
      continue;
    }
    for (EventId v : best_set) {
      --residual[static_cast<size_t>(v)];
      IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
    }
    if (stats != nullptr) ++stats->users_served;
  }
  return arrangement;
}

Result<Arrangement> OnlineArrange(const Instance& instance,
                                  const std::vector<UserId>& arrival_order,
                                  const OnlineOptions& options,
                                  OnlineStats* stats) {
  core::AdmissibleOptions admissible_options;
  admissible_options.max_sets_per_user = options.max_sets_per_user;
  const core::AdmissibleCatalog catalog =
      core::AdmissibleCatalog::Build(instance, admissible_options);
  return OnlineArrange(instance, catalog, arrival_order, options, stats);
}

Result<Arrangement> OnlineArrangeRandomOrder(const Instance& instance,
                                             Rng* rng,
                                             const OnlineOptions& options,
                                             OnlineStats* stats) {
  std::vector<UserId> order(static_cast<size_t>(instance.num_users()));
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);
  return OnlineArrange(instance, order, options, stats);
}

}  // namespace algo
}  // namespace igepa
