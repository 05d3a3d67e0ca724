#include "algo/baselines.h"

#include <algorithm>
#include <numeric>
#include <tuple>

namespace igepa {
namespace algo {

using core::Arrangement;
using core::EventId;
using core::Instance;
using core::UserId;

namespace {

/// True when adding event v to user u's current events keeps u feasible.
bool UserCanTake(const Instance& instance, const Arrangement& arrangement,
                 UserId u, EventId v) {
  const auto& events = arrangement.EventsOf(u);
  if (static_cast<int64_t>(events.size()) >= instance.user_capacity(u)) {
    return false;
  }
  for (EventId held : events) {
    if (instance.Conflicts(held, v)) return false;
  }
  return true;
}

}  // namespace

Result<Arrangement> RandomU(const Instance& instance, Rng* rng) {
  Arrangement arrangement(instance.num_events(), instance.num_users());
  std::vector<UserId> users(static_cast<size_t>(instance.num_users()));
  std::iota(users.begin(), users.end(), 0);
  rng->Shuffle(&users);
  std::vector<int32_t> load(static_cast<size_t>(instance.num_events()), 0);
  for (UserId u : users) {
    std::vector<EventId> bids = instance.bids(u);
    rng->Shuffle(&bids);
    for (EventId v : bids) {
      if (load[static_cast<size_t>(v)] >= instance.event_capacity(v)) continue;
      if (!UserCanTake(instance, arrangement, u, v)) continue;
      ++load[static_cast<size_t>(v)];
      IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
    }
  }
  return arrangement;
}

Result<Arrangement> RandomV(const Instance& instance, Rng* rng) {
  Arrangement arrangement(instance.num_events(), instance.num_users());
  std::vector<EventId> events(static_cast<size_t>(instance.num_events()));
  std::iota(events.begin(), events.end(), 0);
  rng->Shuffle(&events);
  for (EventId v : events) {
    std::vector<UserId> bidders = instance.bidders(v);
    rng->Shuffle(&bidders);
    int32_t admitted = 0;
    for (UserId u : bidders) {
      if (admitted >= instance.event_capacity(v)) break;
      if (!UserCanTake(instance, arrangement, u, v)) continue;
      ++admitted;
      IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
    }
  }
  return arrangement;
}

Result<Arrangement> GreedyGg(const Instance& instance) {
  Arrangement arrangement(instance.num_events(), instance.num_users());
  // Candidate pairs: (weight, v, u) for every bid.
  std::vector<std::tuple<double, EventId, UserId>> candidates;
  candidates.reserve(static_cast<size_t>(instance.TotalBids()));
  for (UserId u = 0; u < instance.num_users(); ++u) {
    for (EventId v : instance.bids(u)) {
      candidates.emplace_back(instance.PairWeight(v, u), v, u);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              if (std::get<0>(a) != std::get<0>(b)) {
                return std::get<0>(a) > std::get<0>(b);
              }
              if (std::get<1>(a) != std::get<1>(b)) {
                return std::get<1>(a) < std::get<1>(b);
              }
              return std::get<2>(a) < std::get<2>(b);
            });
  std::vector<int32_t> load(static_cast<size_t>(instance.num_events()), 0);
  for (const auto& [w, v, u] : candidates) {
    (void)w;
    if (load[static_cast<size_t>(v)] >= instance.event_capacity(v)) continue;
    if (!UserCanTake(instance, arrangement, u, v)) continue;
    ++load[static_cast<size_t>(v)];
    IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
  }
  return arrangement;
}

Result<Arrangement> GreedyBestSet(const Instance& instance,
                                  const core::AdmissibleCatalog& catalog) {
  IGEPA_RETURN_IF_ERROR(catalog.CheckShape(instance));
  const int32_t nu = instance.num_users();
  const int32_t nv = instance.num_events();

  // Visit users by the weight of their heaviest column, descending.
  std::vector<UserId> order(static_cast<size_t>(nu));
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> best_weight(static_cast<size_t>(nu), 0.0);
  for (UserId u = 0; u < nu; ++u) {
    for (int32_t j = catalog.user_columns_begin(u);
         j < catalog.user_columns_end(u); ++j) {
      best_weight[static_cast<size_t>(u)] =
          std::max(best_weight[static_cast<size_t>(u)], catalog.weight(j));
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](UserId a, UserId b) {
    return best_weight[static_cast<size_t>(a)] >
           best_weight[static_cast<size_t>(b)];
  });

  Arrangement arrangement(nv, nu);
  std::vector<int32_t> load(static_cast<size_t>(nv), 0);
  std::vector<int32_t> candidates;
  for (UserId u : order) {
    // The user's columns, heaviest first (ties by column id for determinism).
    candidates.clear();
    for (int32_t j = catalog.user_columns_begin(u);
         j < catalog.user_columns_end(u); ++j) {
      candidates.push_back(j);
    }
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](int32_t a, int32_t b) {
                       return catalog.weight(a) > catalog.weight(b);
                     });
    for (int32_t j : candidates) {
      const auto set = catalog.set(j);
      bool fits = true;
      for (EventId v : set) {
        if (load[static_cast<size_t>(v)] >= instance.event_capacity(v)) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      for (EventId v : set) {
        ++load[static_cast<size_t>(v)];
        IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
      }
      break;  // whole set taken; one set per user
    }
  }
  return arrangement;
}

}  // namespace algo
}  // namespace igepa
