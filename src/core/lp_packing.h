#ifndef IGEPA_CORE_LP_PACKING_H_
#define IGEPA_CORE_LP_PACKING_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/arrangement.h"
#include "core/benchmark_dual.h"
#include "core/instance.h"
#include "lp/solution.h"
#include "util/result.h"
#include "util/rng.h"

namespace igepa {
namespace core {

/// Order in which lines 4-7 of Algorithm 1 sweep users while repairing event
/// capacities. The paper's pseudo-code iterates "for u ∈ U" (index order);
/// the alternatives are ablation knobs (DESIGN.md §6).
enum class RepairOrder : uint8_t {
  kUserIndex,
  kRandom,
  /// Users with heavier sampled sets first (keeps the valuable assignments
  /// when capacity runs out).
  kWeightDesc,
};

/// Options for LpPacking.
struct LpPackingOptions {
  /// Sampling scale α of Algorithm 1, in (0, 1]. The approximation proof uses
  /// α = 1/2 (ratio α(1-α) >= 1/4); the paper's experiments set α = 1.
  double alpha = 1.0;
  /// Options of the structured dual that solves line 1 (benchmark_dual.h).
  StructuredDualOptions structured;
  /// Admissible-set enumeration controls.
  AdmissibleOptions admissible;
  RepairOrder repair_order = RepairOrder::kUserIndex;
  /// Worker threads for the rounding/repair stage (0 = hardware
  /// concurrency). Sampling randomness is pre-drawn serially, per-event
  /// demand accumulates in per-lane counters merged in lane order (integer
  /// counts — exact in any order), and capacity repair resolves per event
  /// through the inverted event→column index, so the arrangement is
  /// bit-identical for every thread count (threads=1 runs the same structure
  /// inline). The LP solve and enumeration read their own knobs
  /// (`structured.num_threads`, `admissible.num_threads`).
  int32_t num_threads = 0;
  /// Optional caller-owned worker pool for the rounding/repair sweeps
  /// (borrowed; must outlive the call). When set, `num_threads` is ignored
  /// and no per-call pool is spawned — repeated re-rounds (warm ticks,
  /// thread-scaling benches) reuse parked workers. Pure performance knob:
  /// results stay bit-identical to the self-spawned and serial paths.
  ThreadPool* workers = nullptr;
};

/// Diagnostics from one LpPacking run.
struct LpPackingStats {
  /// Value of the fractional benchmark-LP solution actually used.
  double lp_objective = 0.0;
  /// Certified upper bound on the LP optimum (Lemma 1: also an upper bound on
  /// the IGEPA optimum, up to the admissible-set cap).
  double lp_upper_bound = 0.0;
  int64_t lp_iterations = 0;
  int32_t num_columns = 0;
  /// Users whose sampled set was non-empty (before repair).
  int32_t users_sampled = 0;
  /// Pairs dropped by the capacity repair sweep (lines 4-7).
  int32_t pairs_repaired = 0;
  /// True when some user's admissible-set enumeration hit its cap.
  bool admissible_truncated = false;
};

/// LP-packing (Algorithm 1): solves the benchmark LP (1)-(4), samples one
/// admissible set per user with probability α·x*_{u,S}, repairs event
/// capacity violations with a user sweep, and returns the surviving pairs.
/// Internally enumerates into an AdmissibleCatalog and runs the flat
/// pipeline; results are bit-identical to the legacy nested path.
///
/// The returned arrangement is always feasible (CheckFeasible passes).
/// Theorem 2 gives E[utility] >= α(1-α)·LP* >= OPT/4 at α = 1/2, where LP* is
/// the exact LP optimum. Line 1 is solved by the structured dual, whose
/// objective a kApproximate status certifies within `structured.target_gap`
/// of LP*, so the bound holds scaled by (1 - gap). The tests check both
/// against an exact simplex oracle (tests/core/theory_test.cc,
/// tests/core/benchmark_dual_test.cc).
Result<Arrangement> LpPacking(const Instance& instance, Rng* rng,
                              const LpPackingOptions& options = {},
                              LpPackingStats* stats = nullptr);

/// LP-packing on a pre-built catalog (lets callers reuse the enumeration
/// across repetitions or inspect it).
Result<Arrangement> LpPackingWithCatalog(const Instance& instance,
                                         const AdmissibleCatalog& catalog,
                                         Rng* rng,
                                         const LpPackingOptions& options = {},
                                         LpPackingStats* stats = nullptr);

/// The fractional benchmark-LP solution of line 1 of Algorithm 1, kept
/// together with the column bookkeeping needed by the rounding step.
/// The LP depends only on the instance — not on the sampling randomness — so
/// experiment harnesses solve it once per instance and re-round many times
/// (this is how the paper's 50-repetition real-dataset protocol stays cheap).
struct FractionalSolution {
  lp::LpSolution lp;
  /// Always true: the structured dual is the library's only LP solver. The
  /// library neither reads nor writes it; it is kept only because the
  /// end-to-end benchmark (e2ebench/) reads and writes it.
  bool structured = true;
};

/// Line 1 of Algorithm 1 over the catalog: solve the benchmark LP (1)-(4)
/// with the structured dual (SolveBenchmarkLpStructured on
/// `options.structured`), after checking `alpha` and the catalog's shape.
Result<FractionalSolution> SolveBenchmarkLpForPacking(
    const Instance& instance, const AdmissibleCatalog& catalog,
    const LpPackingOptions& options = {});

/// Sentinel cutoff meaning "event never rejects" in RoundingState::cutoff.
inline constexpr int32_t kNoRepairCutoff =
    std::numeric_limits<int32_t>::max();

/// The rounding pass's per-user/per-event state, exported by RoundFractional
/// and consumed by the localized delta re-round (DESIGN.md S15). Only defined
/// for RepairOrder::kUserIndex, where a user's sweep rank IS their id:
///   * `sampled_col[u]` — the catalog column user u sampled (-1: none);
///   * `demand[v]` — how many sampled sets contain v;
///   * `cutoff[v]` — the repair rule: pair (v, u) survives iff
///     u < cutoff[v] (kNoRepairCutoff when demand fits capacity).
/// The full arrangement is a pure function of this state
/// (RepairSampledColumns pins that), which is what makes event-local repair
/// after a delta exact rather than heuristic.
struct RoundingState {
  std::vector<int32_t> sampled_col;  // per user
  std::vector<int32_t> demand;       // per event
  std::vector<int32_t> cutoff;       // per event
  /// ids_revision of the catalog the column ids address.
  uint64_t catalog_revision = 0;

  /// Rewrites sampled columns through a compaction remap (old id → new id,
  /// -1 dead) and adopts the new ids revision. Samples already retired via
  /// RetireSamples are -1 and stay -1; a live sample never maps to -1.
  void Remap(const std::vector<int32_t>& column_remap,
             uint64_t new_ids_revision);
};

/// Lines 2-8 of Algorithm 1 over the catalog: sample one admissible set per
/// user with probability α·x*, repair event capacities, emit the surviving
/// pairs. The repair sweep uses the catalog's inverted event→column index to
/// confine per-event bookkeeping to the (typically few) oversubscribed
/// events: users whose sampled set touches no overloaded event are emitted
/// in bulk without capacity checks. Output is identical to the legacy sweep.
///
/// When `state_out` is non-null the pass also exports its RoundingState for
/// later localized re-rounds (requires RepairOrder::kUserIndex).
Result<Arrangement> RoundFractional(const Instance& instance,
                                    const AdmissibleCatalog& catalog,
                                    const FractionalSolution& fractional,
                                    Rng* rng,
                                    const LpPackingOptions& options = {},
                                    LpPackingStats* stats = nullptr,
                                    RoundingState* state_out = nullptr);

/// The canonical repair semantics: given every user's sampled column, emit
/// the arrangement the sequential user-index capacity-repair sweep produces
/// (each event v keeps its first c_v contenders by user id). Both the full
/// rounding pass and the localized delta re-round are pinned to this function
/// by equivalence tests. Serial reference implementation.
Result<Arrangement> RepairSampledColumns(const Instance& instance,
                                         const AdmissibleCatalog& catalog,
                                         const std::vector<int32_t>& sampled_col);

/// Phase 1 of a delta re-round, called BEFORE AdmissibleCatalog::ApplyDelta
/// while the listed users' column ids are still addressable: subtracts their
/// sampled sets from the per-event demand, blanks their samples, and returns
/// the events those sets touched (ascending, deduplicated) — the events whose
/// repair cutoffs must be recomputed.
std::vector<EventId> RetireSamples(const AdmissibleCatalog& catalog,
                                   const std::vector<UserId>& users,
                                   RoundingState* state);

/// Phase 2 (after the catalog delta and the warm LP re-solve): re-samples
/// exactly `resample_users` from the new fractional solution (one RNG draw
/// per listed user, ascending user order), recomputes repair cutoffs only on
/// `touched_events` ∪ the events the new samples hit, and emits the full
/// arrangement. Untouched users keep their previous samples and untouched
/// events keep their previous cutoffs — both provably unchanged, so the
/// result equals RepairSampledColumns on the updated sampled_col vector
/// exactly (pinned by tests). Requires RepairOrder::kUserIndex and a state
/// whose catalog_revision matches the catalog.
Result<Arrangement> RoundFractionalDelta(
    const Instance& instance, const AdmissibleCatalog& catalog,
    const FractionalSolution& fractional,
    const std::vector<UserId>& resample_users,
    const std::vector<EventId>& touched_events, Rng* rng, RoundingState* state,
    const LpPackingOptions& options = {}, LpPackingStats* stats = nullptr);

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_LP_PACKING_H_
