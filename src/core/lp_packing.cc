#include "core/lp_packing.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>

#include "util/cache_line.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace igepa {
namespace core {
namespace {

/// Users per chunk of the sampling/demand sweeps.
constexpr int64_t kRoundGrain = 256;

/// Below this many users the rounding stage stays serial (pool spawn costs
/// more than the sweeps; results are identical either way).
constexpr int32_t kMinParallelUsers = 512;

}  // namespace

Result<Arrangement> LpPacking(const Instance& instance, Rng* rng,
                              const LpPackingOptions& options,
                              LpPackingStats* stats) {
  const AdmissibleCatalog catalog =
      AdmissibleCatalog::Build(instance, options.admissible);
  return LpPackingWithCatalog(instance, catalog, rng, options, stats);
}

Result<Arrangement> LpPackingWithCatalog(const Instance& instance,
                                         const AdmissibleCatalog& catalog,
                                         Rng* rng,
                                         const LpPackingOptions& options,
                                         LpPackingStats* stats) {
  IGEPA_ASSIGN_OR_RETURN(
      FractionalSolution fractional,
      SolveBenchmarkLpForPacking(instance, catalog, options));
  return RoundFractional(instance, catalog, fractional, rng, options, stats);
}

Result<FractionalSolution> SolveBenchmarkLpForPacking(
    const Instance& instance, const AdmissibleCatalog& catalog,
    const LpPackingOptions& options) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (catalog.num_users() != instance.num_users()) {
    return Status::InvalidArgument("catalog size mismatch");
  }
  FractionalSolution fractional;
  IGEPA_ASSIGN_OR_RETURN(
      fractional.lp,
      SolveBenchmarkLpStructured(instance, catalog, options.structured));
  return fractional;
}

Result<Arrangement> RoundFractional(const Instance& instance,
                                    const AdmissibleCatalog& catalog,
                                    const FractionalSolution& fractional,
                                    Rng* rng, const LpPackingOptions& options,
                                    LpPackingStats* stats,
                                    RoundingState* state_out) {
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (catalog.num_users() != instance.num_users()) {
    return Status::InvalidArgument("catalog size mismatch");
  }
  if (state_out != nullptr && options.repair_order != RepairOrder::kUserIndex) {
    return Status::InvalidArgument(
        "RoundingState export requires RepairOrder::kUserIndex");
  }
  const lp::LpSolution& lp_sol = fractional.lp;
  if (static_cast<int32_t>(lp_sol.x.size()) != catalog.num_columns()) {
    return Status::InvalidArgument("fractional solution size mismatch");
  }
  if (stats != nullptr) {
    stats->lp_objective = lp_sol.objective;
    stats->lp_upper_bound = lp_sol.upper_bound;
    stats->lp_iterations = lp_sol.iterations;
    stats->num_columns = catalog.num_live_columns();
    stats->admissible_truncated = catalog.any_truncated();
  }

  // ---- Lines 2-3: sample one admissible set per user with prob α·x*. ------
  const int32_t nu = instance.num_users();
  const int32_t nv = instance.num_events();
  // Randomness is pre-drawn serially — one NextDouble per user, in user
  // order, exactly the stream the serial sweep consumed — so the sampling
  // sweep itself can shard across users without touching the RNG.
  std::vector<double> draw(static_cast<size_t>(nu), 0.0);
  for (UserId u = 0; u < nu; ++u) {
    draw[static_cast<size_t>(u)] = rng->NextDouble();
  }
  ThreadPool* workers = options.workers;
  std::unique_ptr<ThreadPool> owned_workers;
  if (workers == nullptr && nu >= kMinParallelUsers &&
      ThreadPool::ResolveThreadCount(options.num_threads,
                                     nu / kRoundGrain) > 1) {
    owned_workers = std::make_unique<ThreadPool>(ThreadPool::ResolveThreadCount(
        options.num_threads, nu / kRoundGrain));
    workers = owned_workers.get();
  }
  const int32_t num_lanes = workers != nullptr ? workers->num_threads() : 1;

  std::vector<int32_t> sampled_col(static_cast<size_t>(nu), -1);
  ParallelForRanges(
      workers, 0, nu, kRoundGrain, [&](int64_t ub, int64_t ue) {
        for (int64_t uu = ub; uu < ue; ++uu) {
          const UserId u = static_cast<UserId>(uu);
          const int32_t begin = catalog.user_columns_begin(u);
          const int32_t end = catalog.user_columns_end(u);
          double r = draw[static_cast<size_t>(u)];
          for (int32_t j = begin; j < end; ++j) {
            const double mass =
                options.alpha *
                std::clamp(lp_sol.x[static_cast<size_t>(j)], 0.0, 1.0);
            if (r < mass) {
              sampled_col[static_cast<size_t>(u)] = j;
              break;
            }
            r -= mass;
          }
          // Remaining mass: no set sampled for u.
        }
      });
  if (stats != nullptr) {
    stats->users_sampled = static_cast<int32_t>(
        std::count_if(sampled_col.begin(), sampled_col.end(),
                      [](int32_t j) { return j >= 0; }));
  }

  // ---- Lines 4-7: repair event capacity violations. ------------------------
  // Tentative per-event demand of the sampled sets decides which events can
  // overflow at all; the inverted event→column index then narrows the checked
  // path to the users actually contending for those events. Everyone else is
  // emitted in bulk — identical output to the full legacy sweep, since an
  // event whose demand fits its capacity can never reject a pair. Each lane
  // counts into its own cache-line-strided buffer, merged serially in lane
  // order afterwards — integer increments commute, so the totals are
  // identical for every thread schedule, and the sweep writes no shared
  // lines (the old per-event relaxed atomics false-shared 16 counters per
  // line, which inverted the thread-scaling curve).
  const size_t demand_stride =
      util::PaddedStride(static_cast<size_t>(nv), sizeof(int32_t));
  std::vector<int32_t> lane_demand(
      static_cast<size_t>(num_lanes) * demand_stride, 0);
  const auto demand_chunk = [&](int32_t lane, int64_t ub, int64_t ue) {
    int32_t* d = lane_demand.data() + static_cast<size_t>(lane) * demand_stride;
    for (int64_t uu = ub; uu < ue; ++uu) {
      const int32_t j = sampled_col[static_cast<size_t>(uu)];
      if (j < 0) continue;
      for (EventId v : catalog.set(j)) ++d[static_cast<size_t>(v)];
    }
  };
  if (workers != nullptr) {
    workers->ParallelFor(0, nu, kRoundGrain, demand_chunk);
  } else {
    demand_chunk(0, 0, nu);
  }
  std::vector<int32_t> demand(static_cast<size_t>(nv), 0);
  for (int32_t lane = 0; lane < num_lanes; ++lane) {
    const int32_t* d =
        lane_demand.data() + static_cast<size_t>(lane) * demand_stride;
    for (EventId v = 0; v < nv; ++v) demand[static_cast<size_t>(v)] += d[v];
  }
  std::vector<uint8_t> hot(static_cast<size_t>(nv), 0);
  std::vector<EventId> hot_events;
  for (EventId v = 0; v < nv; ++v) {
    if (demand[static_cast<size_t>(v)] > instance.event_capacity(v)) {
      hot[static_cast<size_t>(v)] = 1;
      hot_events.push_back(v);
    }
  }
  const bool any_hot = !hot_events.empty();
  std::vector<uint8_t> contended(static_cast<size_t>(nu), 0);
  if (any_hot) {
    for (EventId v : hot_events) {
      catalog.ForEachColumnOfEvent(v, [&](int32_t j) {
        const UserId u = catalog.user_of(j);
        if (sampled_col[static_cast<size_t>(u)] == j) {
          contended[static_cast<size_t>(u)] = 1;
        }
      });
    }
  }

  std::vector<UserId> order(static_cast<size_t>(nu));
  std::iota(order.begin(), order.end(), 0);
  switch (options.repair_order) {
    case RepairOrder::kUserIndex:
      break;
    case RepairOrder::kRandom:
      rng->Shuffle(&order);
      break;
    case RepairOrder::kWeightDesc: {
      std::vector<double> weight(static_cast<size_t>(nu), 0.0);
      for (UserId u = 0; u < nu; ++u) {
        const int32_t j = sampled_col[static_cast<size_t>(u)];
        if (j >= 0) weight[static_cast<size_t>(u)] = catalog.weight(j);
      }
      std::stable_sort(order.begin(), order.end(), [&](UserId a, UserId b) {
        return weight[static_cast<size_t>(a)] > weight[static_cast<size_t>(b)];
      });
      break;
    }
  }

  // Event-ownership sharding of the sweep: a user keeps a hot event v iff
  // fewer than c_v contenders precede them in the sweep order — exactly the
  // pairs the sequential load-counting sweep kept, because dropping v from
  // S_u never affects u's other events. Each hot event therefore resolves
  // independently: collect its contenders' sweep ranks (ascending column id,
  // via the inverted index) and cut at the c_v-th smallest. Ranks are a
  // permutation (distinct), so the cutoff is unambiguous and deterministic.
  constexpr int32_t kNoCutoff = kNoRepairCutoff;
  std::vector<int32_t> rank;
  std::vector<int32_t> cutoff;
  if (any_hot) {
    rank.resize(static_cast<size_t>(nu));
    for (int32_t i = 0; i < nu; ++i) {
      rank[static_cast<size_t>(order[static_cast<size_t>(i)])] = i;
    }
    cutoff.assign(static_cast<size_t>(nv), kNoCutoff);
    // Contender scratch lives per lane, not per chunk: the nth_element arena
    // grows once to the largest contender set a lane sees and is reused
    // across every chunk that lane claims (the per-chunk vector was one
    // malloc/free per 4 hot events, all hammering the same heap lock).
    std::vector<std::vector<int32_t>> lane_contenders(
        static_cast<size_t>(num_lanes));
    const auto repair_chunk = [&](int32_t lane, int64_t hb, int64_t he) {
      std::vector<int32_t>& contender_ranks =
          lane_contenders[static_cast<size_t>(lane)];
      for (int64_t h = hb; h < he; ++h) {
        const EventId v = hot_events[static_cast<size_t>(h)];
        contender_ranks.clear();
        catalog.ForEachColumnOfEvent(v, [&](int32_t j) {
          const UserId u = catalog.user_of(j);
          if (sampled_col[static_cast<size_t>(u)] == j) {
            contender_ranks.push_back(rank[static_cast<size_t>(u)]);
          }
        });
        const auto cap =
            static_cast<size_t>(std::max(0, instance.event_capacity(v)));
        if (contender_ranks.size() > cap) {
          std::nth_element(contender_ranks.begin(),
                           contender_ranks.begin() + static_cast<int64_t>(cap),
                           contender_ranks.end());
          cutoff[static_cast<size_t>(v)] = contender_ranks[cap];
        }
      }
    };
    if (workers != nullptr) {
      workers->ParallelFor(0, static_cast<int64_t>(hot_events.size()),
                           /*grain=*/4, repair_chunk);
    } else {
      repair_chunk(0, 0, static_cast<int64_t>(hot_events.size()));
    }
  }

  Arrangement arrangement(nv, nu);
  int32_t repaired = 0;
  for (UserId u : order) {
    const int32_t j = sampled_col[static_cast<size_t>(u)];
    if (j < 0) continue;
    const auto set = catalog.set(j);
    if (!contended[static_cast<size_t>(u)]) {
      for (EventId v : set) {
        IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
      }
      continue;
    }
    for (EventId v : set) {
      if (hot[static_cast<size_t>(v)] &&
          rank[static_cast<size_t>(u)] >= cutoff[static_cast<size_t>(v)]) {
        ++repaired;  // line 7: drop v from S_u
        continue;
      }
      IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
    }
  }
  if (stats != nullptr) stats->pairs_repaired = repaired;
  if (state_out != nullptr) {
    // Under kUserIndex, rank[u] == u, so the exported cutoffs are directly
    // comparable to user ids (the RoundingState contract).
    state_out->sampled_col = sampled_col;
    state_out->demand = demand;
    if (any_hot) {
      state_out->cutoff = cutoff;
    } else {
      state_out->cutoff.assign(static_cast<size_t>(nv), kNoCutoff);
    }
    state_out->catalog_revision = catalog.ids_revision();
  }
  return arrangement;
}

void RoundingState::Remap(const std::vector<int32_t>& column_remap,
                          uint64_t new_ids_revision) {
  for (size_t u = 0; u < sampled_col.size(); ++u) {
    const int32_t j = sampled_col[u];
    if (j < 0) continue;
    sampled_col[u] = (static_cast<size_t>(j) < column_remap.size())
                         ? column_remap[static_cast<size_t>(j)]
                         : -1;
  }
  catalog_revision = new_ids_revision;
}

namespace {

/// Repair cutoff of one event from the current samples: the (c_v)-th
/// smallest contender user id when demand exceeds capacity, else "never
/// rejects". Contender ids are distinct, so the cutoff is unambiguous.
int32_t ComputeEventCutoff(const Instance& instance,
                           const AdmissibleCatalog& catalog,
                           const std::vector<int32_t>& sampled_col, EventId v,
                           int32_t event_demand,
                           std::vector<int32_t>* scratch) {
  const int32_t cap = instance.event_capacity(v);
  if (event_demand <= cap) return kNoRepairCutoff;
  scratch->clear();
  catalog.ForEachColumnOfEvent(v, [&](int32_t j) {
    const UserId u = catalog.user_of(j);
    if (sampled_col[static_cast<size_t>(u)] == j) scratch->push_back(u);
  });
  const auto capn = static_cast<size_t>(std::max(0, cap));
  if (scratch->size() <= capn) return kNoRepairCutoff;
  std::nth_element(scratch->begin(),
                   scratch->begin() + static_cast<int64_t>(capn),
                   scratch->end());
  return (*scratch)[capn];
}

/// Emits the arrangement the per-event cutoffs define: pair (v, u) survives
/// iff u < cutoff[v]. User-index sweep order.
Result<Arrangement> EmitFromCutoffs(const Instance& instance,
                                    const AdmissibleCatalog& catalog,
                                    const std::vector<int32_t>& sampled_col,
                                    const std::vector<int32_t>& cutoff,
                                    int32_t* repaired_out) {
  const int32_t nu = instance.num_users();
  Arrangement arrangement(instance.num_events(), nu);
  int32_t repaired = 0;
  for (UserId u = 0; u < nu; ++u) {
    const int32_t j = sampled_col[static_cast<size_t>(u)];
    if (j < 0) continue;
    for (EventId v : catalog.set(j)) {
      if (u >= cutoff[static_cast<size_t>(v)]) {
        ++repaired;  // line 7: drop v from S_u
        continue;
      }
      IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
    }
  }
  if (repaired_out != nullptr) *repaired_out = repaired;
  return arrangement;
}

}  // namespace

Result<Arrangement> RepairSampledColumns(
    const Instance& instance, const AdmissibleCatalog& catalog,
    const std::vector<int32_t>& sampled_col) {
  const int32_t nu = instance.num_users();
  const int32_t nv = instance.num_events();
  if (catalog.num_users() != nu) {
    return Status::InvalidArgument("catalog size mismatch");
  }
  if (static_cast<int32_t>(sampled_col.size()) != nu) {
    return Status::InvalidArgument("sampled_col size mismatch");
  }
  for (UserId u = 0; u < nu; ++u) {
    const int32_t j = sampled_col[static_cast<size_t>(u)];
    if (j < 0) continue;
    if (j >= catalog.num_columns() || !catalog.live(j) ||
        catalog.user_of(j) != u) {
      return Status::InvalidArgument("sampled_col[" + std::to_string(u) +
                                     "] is not a live column of that user");
    }
  }
  std::vector<int32_t> demand(static_cast<size_t>(nv), 0);
  for (UserId u = 0; u < nu; ++u) {
    const int32_t j = sampled_col[static_cast<size_t>(u)];
    if (j < 0) continue;
    for (EventId v : catalog.set(j)) ++demand[static_cast<size_t>(v)];
  }
  std::vector<int32_t> cutoff(static_cast<size_t>(nv), kNoRepairCutoff);
  std::vector<int32_t> scratch;
  for (EventId v = 0; v < nv; ++v) {
    cutoff[static_cast<size_t>(v)] = ComputeEventCutoff(
        instance, catalog, sampled_col, v, demand[static_cast<size_t>(v)],
        &scratch);
  }
  return EmitFromCutoffs(instance, catalog, sampled_col, cutoff, nullptr);
}

std::vector<EventId> RetireSamples(const AdmissibleCatalog& catalog,
                                   const std::vector<UserId>& users,
                                   RoundingState* state) {
  std::vector<UserId> unique_users = users;
  std::sort(unique_users.begin(), unique_users.end());
  unique_users.erase(std::unique(unique_users.begin(), unique_users.end()),
                     unique_users.end());
  std::vector<EventId> touched;
  for (UserId u : unique_users) {
    int32_t& j = state->sampled_col[static_cast<size_t>(u)];
    if (j < 0) continue;
    for (EventId v : catalog.set(j)) {
      --state->demand[static_cast<size_t>(v)];
      touched.push_back(v);
    }
    j = -1;
  }
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  return touched;
}

Result<Arrangement> RoundFractionalDelta(
    const Instance& instance, const AdmissibleCatalog& catalog,
    const FractionalSolution& fractional,
    const std::vector<UserId>& resample_users,
    const std::vector<EventId>& touched_events, Rng* rng, RoundingState* state,
    const LpPackingOptions& options, LpPackingStats* stats) {
  const int32_t nu = instance.num_users();
  const int32_t nv = instance.num_events();
  if (options.alpha <= 0.0 || options.alpha > 1.0) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  if (options.repair_order != RepairOrder::kUserIndex) {
    return Status::InvalidArgument(
        "RoundFractionalDelta requires RepairOrder::kUserIndex");
  }
  if (catalog.num_users() != nu) {
    return Status::InvalidArgument("catalog size mismatch");
  }
  const lp::LpSolution& lp_sol = fractional.lp;
  if (static_cast<int32_t>(lp_sol.x.size()) != catalog.num_columns()) {
    return Status::InvalidArgument("fractional solution size mismatch");
  }
  if (state == nullptr ||
      static_cast<int32_t>(state->sampled_col.size()) != nu ||
      static_cast<int32_t>(state->demand.size()) != nv ||
      static_cast<int32_t>(state->cutoff.size()) != nv) {
    return Status::InvalidArgument("rounding state shape mismatch");
  }
  if (state->catalog_revision != catalog.ids_revision()) {
    return Status::FailedPrecondition(
        "rounding state addresses a different catalog layout (remap after "
        "compaction)");
  }
  for (EventId v : touched_events) {
    if (v < 0 || v >= nv) {
      return Status::InvalidArgument("touched event out of range");
    }
  }

  std::vector<UserId> resample = resample_users;
  std::sort(resample.begin(), resample.end());
  resample.erase(std::unique(resample.begin(), resample.end()),
                 resample.end());
  for (UserId u : resample) {
    if (u < 0 || u >= nu) {
      return Status::InvalidArgument("resample user out of range");
    }
  }

  std::vector<uint8_t> touched(static_cast<size_t>(nv), 0);
  for (EventId v : touched_events) touched[static_cast<size_t>(v)] = 1;

  // Re-sample exactly the listed users from the new fractional solution —
  // one draw per user in ascending user order, so the RNG stream (and thus
  // the result) is independent of how the caller ordered the list. Samples
  // not retired beforehand are retired here (valid when no compaction
  // intervened, since tombstoned spans stay readable).
  for (UserId u : resample) {
    int32_t& slot = state->sampled_col[static_cast<size_t>(u)];
    if (slot >= 0) {
      for (EventId v : catalog.set(slot)) {
        --state->demand[static_cast<size_t>(v)];
        touched[static_cast<size_t>(v)] = 1;
      }
      slot = -1;
    }
    const int32_t begin = catalog.user_columns_begin(u);
    const int32_t end = catalog.user_columns_end(u);
    double r = rng->NextDouble();
    for (int32_t j = begin; j < end; ++j) {
      const double mass =
          options.alpha * std::clamp(lp_sol.x[static_cast<size_t>(j)], 0.0, 1.0);
      if (r < mass) {
        slot = j;
        break;
      }
      r -= mass;
    }
    if (slot >= 0) {
      for (EventId v : catalog.set(slot)) {
        ++state->demand[static_cast<size_t>(v)];
        touched[static_cast<size_t>(v)] = 1;
      }
    }
  }

  // Event-local repair: only touched events can have a different contender
  // set than last time, so only they need a fresh cutoff. Untouched events'
  // contenders are untouched users whose samples did not change — their
  // stored cutoffs remain exact.
  std::vector<int32_t> scratch;
  for (EventId v = 0; v < nv; ++v) {
    if (touched[static_cast<size_t>(v)] == 0) continue;
    state->cutoff[static_cast<size_t>(v)] = ComputeEventCutoff(
        instance, catalog, state->sampled_col, v,
        state->demand[static_cast<size_t>(v)], &scratch);
  }

  int32_t repaired = 0;
  auto arrangement = EmitFromCutoffs(instance, catalog, state->sampled_col,
                                     state->cutoff, &repaired);
  if (!arrangement.ok()) return arrangement;
  if (stats != nullptr) {
    stats->lp_objective = lp_sol.objective;
    stats->lp_upper_bound = lp_sol.upper_bound;
    stats->lp_iterations = lp_sol.iterations;
    stats->num_columns = catalog.num_live_columns();
    stats->admissible_truncated = catalog.any_truncated();
    stats->users_sampled = static_cast<int32_t>(std::count_if(
        state->sampled_col.begin(), state->sampled_col.end(),
        [](int32_t j) { return j >= 0; }));
    stats->pairs_repaired = repaired;
  }
  return arrangement;
}

}  // namespace core
}  // namespace igepa
