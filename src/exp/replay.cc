#include "exp/replay.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/warm_tick.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace igepa {
namespace exp {

using core::AdmissibleCatalog;
using core::Arrangement;
using core::CatalogDeltaOptions;
using core::DualWarmStart;
using core::FractionalSolution;
using core::Instance;
using core::InstanceDelta;
using core::LpPackingOptions;
using core::RoundingState;
using core::StructuredDualOptions;

Result<ReplayReport> RunReplay(Instance instance,
                               const std::vector<InstanceDelta>& stream,
                               const ReplayOptions& options) {
  StructuredDualOptions dual = options.dual;
  dual.num_threads = options.num_threads;
  core::AdmissibleOptions admissible = options.admissible;
  admissible.num_threads = options.num_threads;
  CatalogDeltaOptions delta_options;
  delta_options.admissible = options.admissible;
  delta_options.compact_tombstone_fraction = options.compact_tombstone_fraction;
  delta_options.compact_min_dead_columns = options.compact_min_dead_columns;
  LpPackingOptions round_options;
  round_options.alpha = options.alpha;
  round_options.num_threads = options.num_threads;
  round_options.structured = dual;

  Rng master(options.seed);

  // ---- Tick 0: cold bootstrap of the incremental state. ---------------------
  AdmissibleCatalog catalog = AdmissibleCatalog::Build(instance, admissible);
  DualWarmStart warm;
  IGEPA_ASSIGN_OR_RETURN(
      lp::LpSolution base_sol,
      core::SolveBenchmarkLpStructured(instance, catalog, dual, &warm));
  FractionalSolution fractional;
  fractional.lp = std::move(base_sol);
  RoundingState state;
  {
    Rng round_rng = master.Fork();
    IGEPA_ASSIGN_OR_RETURN(
        Arrangement base_arr,
        core::RoundFractional(instance, catalog, fractional, &round_rng,
                              round_options, /*stats=*/nullptr, &state));
    IGEPA_RETURN_IF_ERROR(base_arr.CheckFeasible(instance));
  }

  ReplayReport report;
  report.ticks.reserve(stream.size());

  for (size_t tick = 0; tick < stream.size(); ++tick) {
    const InstanceDelta& delta = stream[tick];
    ReplayTick row;
    row.tick = static_cast<int32_t>(tick);
    Rng warm_rng = master.Fork();
    Rng cold_rng = master.Fork();

    // ---- Warm path: one tick of the shared incremental pipeline
    // (core::ApplyWarmTick — the same call the serving layer's epochs make).
    Stopwatch warm_watch;
    auto tick_report =
        core::ApplyWarmTick(&instance, &catalog, &warm, &state, &fractional,
                            delta, &warm_rng, dual, delta_options,
                            round_options);
    if (!tick_report.ok()) return tick_report.status();
    row.warm_seconds = warm_watch.ElapsedSeconds();

    row.touched_users = tick_report->touched_users;
    row.event_updates = tick_report->event_updates;
    row.compacted = tick_report->compacted;
    row.live_columns = catalog.num_live_columns();
    row.dead_columns = catalog.num_dead_columns();
    row.warm_lp_objective = fractional.lp.objective;
    row.warm_lp_iterations = fractional.lp.iterations;
    row.warm_utility = tick_report->arrangement.Utility(instance);

    // ---- Cold reference: rebuild everything from the mutated instance. ----
    if (options.compare_cold) {
      Stopwatch cold_watch;
      const AdmissibleCatalog cold_catalog =
          AdmissibleCatalog::Build(instance, admissible);
      IGEPA_ASSIGN_OR_RETURN(
          lp::LpSolution cold_sol,
          core::SolveBenchmarkLpStructured(instance, cold_catalog, dual));
      FractionalSolution cold_fractional;
      cold_fractional.lp = std::move(cold_sol);
      IGEPA_ASSIGN_OR_RETURN(
          Arrangement cold_arr,
          core::RoundFractional(instance, cold_catalog, cold_fractional,
                                &cold_rng, round_options));
      // The warm side's ApplyWarmTick runs its feasibility check inside the
      // timed window, so the cold side must too for a fair comparison.
      IGEPA_RETURN_IF_ERROR(cold_arr.CheckFeasible(instance));
      row.cold_seconds = cold_watch.ElapsedSeconds();
      row.cold_lp_objective = cold_fractional.lp.objective;
      row.cold_lp_iterations = cold_fractional.lp.iterations;
      row.cold_utility = cold_arr.Utility(instance);
      row.lp_drift = std::abs(row.warm_lp_objective - row.cold_lp_objective) /
                     std::max(1.0, std::abs(row.cold_lp_objective));
      report.max_lp_drift = std::max(report.max_lp_drift, row.lp_drift);
      report.final_cold_lp_objective = row.cold_lp_objective;
      report.total_cold_seconds += row.cold_seconds;
    }
    report.total_warm_seconds += row.warm_seconds;
    report.final_warm_lp_objective = row.warm_lp_objective;
    report.ticks.push_back(row);
  }
  return report;
}

}  // namespace exp
}  // namespace igepa
