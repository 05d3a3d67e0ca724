#ifndef IGEPA_CORE_BENCHMARK_DUAL_H_
#define IGEPA_CORE_BENCHMARK_DUAL_H_

#include <cstdint>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/instance.h"
#include "lp/solution.h"
#include "util/result.h"

namespace igepa {

class ThreadPool;

namespace core {

/// Warm-start state captured from one structured solve and fed to the next
/// (DESIGN.md S15). `mu` seeds the event duals; `choice`/`choice_value` are
/// the per-user oracle argmax (column id, or -1) and value at `mu`, which the
/// next solve reuses verbatim at its first iteration for every user whose
/// column range did not change — so a re-solve after a small delta rescans
/// only the touched users.
///
/// Column ids in `choice` address the catalog the warm start was captured
/// against; `catalog_revision` must equal the catalog's `ids_revision()` for
/// them to be honored (after a compaction, run Remap with the reported
/// old→new map to keep them alive). `mu` is event-indexed and always usable.
struct DualWarmStart {
  std::vector<double> mu;            // event duals μ ≥ 0, size |V|
  std::vector<int32_t> choice;       // per-user argmax column at μ, size |U|
  std::vector<double> choice_value;  // its oracle value (≥ 0), size |U|
  /// Users whose column ranges changed since capture (1 = must rescan).
  /// Empty means every cached choice is fresh.
  std::vector<uint8_t> stale;
  uint64_t catalog_revision = 0;

  /// Rewrites cached column ids through a compaction remap (old id → new id,
  /// -1 dead) and adopts the new ids revision. Cached choices of stale users
  /// may be dead — they are dropped to -1 (the solver rescans them anyway).
  void Remap(const std::vector<int32_t>& column_remap,
             uint64_t new_ids_revision);
};

/// Iterations between primal extractions and certified-gap checks, shared by
/// the structured dual and ShardedSolve's level-2 coordination.
inline constexpr int64_t kGapCheckEvery = 25;

/// Options for the structured benchmark-LP solver.
struct StructuredDualOptions {
  /// Target certified relative duality gap.
  double target_gap = 0.01;
  /// Dual (subgradient) iteration budget.
  int64_t max_iterations = 4000;
  /// Worker threads for the sharded oracle sweep (0 = hardware concurrency).
  /// Users are partitioned into fixed-size shards whose partial sums merge
  /// serially in shard order, so results are bit-identical for every thread
  /// count — threads=1 runs the same shard structure inline (DESIGN.md §5,
  /// S14). Small instances stay serial regardless.
  int32_t num_threads = 0;
  /// Optional caller-owned worker pool (borrowed; must outlive the solve).
  /// When set, the sharded oracle runs on it directly and `num_threads` is
  /// ignored — repeated solves (warm ticks, thread-scaling benches) skip the
  /// per-solve thread spawn, which otherwise dominates short re-solves. The
  /// pool's lane count is a pure performance knob: results stay bit-identical
  /// to the self-spawned and serial paths.
  ThreadPool* workers = nullptr;
  /// Optional warm start (borrowed; must outlive the solve). Seeds μ, and —
  /// when the cached choices address this catalog's ids — rescans only stale
  /// users at the first iteration. A warm solve also checks the gap at the
  /// end of every averaging window (t = 1, 3, 7, 15, …) and takes fine steps
  /// over its first two windows (t ≤ 3), as if (|U|/|V|)²/8 iterations had
  /// already run; from t = 4 on it steps exactly like a cold solve. Both
  /// primals are certified, so warm results match a cold solve within the
  /// tolerance 2·target_gap (DESIGN.md S15).
  const DualWarmStart* warm = nullptr;
};

/// Approximate solver specialized to the benchmark LP's block-angular
/// structure: only the |V| event-capacity rows (3) are dualized with
/// multipliers μ >= 0, while the per-user convexity rows (2) are enforced
/// exactly by the inner oracle,
///
///   L(μ) = Σ_v c_v·μ_v + Σ_u max(0, max_{S∈A_u} (w(u,S) - Σ_{v∈S} μ_v)),
///
/// which is an upper bound on LP (1)-(4) for every μ >= 0. Projected
/// subgradient descent over the (small) μ space converges far faster than
/// dualizing all |U|+|V| rows, which is what makes Fig. 1(b)'s |U| = 10⁴
/// sweep tractable. It is the library's only LP solver; the exact simplex
/// that brackets its certificate lives in tests/oracle/. The primal is
/// recovered from suffix-averaged oracle choices (a per-user distribution
/// over admissible sets, automatically satisfying (2)), repaired by
/// per-column scaling on violated event rows and polished by a
/// capacity-aware greedy fill.
///
/// Returns an lp::LpSolution over the catalog's columns: `x` is feasible for
/// (1)-(4), `upper_bound` = min_t L(μ_t) certifies the gap, and `duals`
/// carries μ on the event rows ([|U|, |U|+|V|)) and the final per-user oracle
/// values π_u on the user rows ([0, |U|)). Status is kApproximate when the
/// target gap is met, kIterationLimit otherwise (x is still feasible).
///
/// The solver iterates the catalog CSR directly — weights, per-user column
/// ranges and event spans are exactly the arrays the subgradient loop needs,
/// so no per-solve copy or model materialization happens; the primal repair
/// scales overloaded events through the catalog's inverted event→column
/// index. Dirty (delta-mutated, uncompacted) catalogs are first-class: all
/// loops walk live per-user ranges in user-major order, so the solve is
/// bit-identical to running on the compacted/rebuilt catalog.
///
/// The oracle rescans only the users whose best set can have changed
/// (DESIGN.md §5, S19). Each full scan records the user's margin, its best
/// reduced cost minus the runner-up (the empty set, worth 0, included); while
/// that margin exceeds min(2·k_u, a_u) times the max-norm distance μ has
/// travelled since, plus a rounding slack, the user's argmax provably stands
/// and only its value is recomputed, through the same reduction as a full
/// scan. Here k_u = min(c_u, |N_u|) bounds the user's set sizes and a_u
/// counts its bids on events whose μ has moved in this solve. Every iterate,
/// `x`, `duals`, the certificate and `warm_out` are therefore bit-identical
/// to rescanning every user at every iteration. The bound relies on the
/// catalog being `instance`'s admissible catalog (every set a subset of its
/// user's bids, within the user's capacity), as Build, ApplyDelta and the
/// shard catalogs of ShardedSolve guarantee. A catalog whose user or event
/// count differs from the instance's is rejected with InvalidArgument.
///
/// When `warm_out` is non-null it captures the warm-start state of this
/// solve (μ and per-user choices at the certified best μ) for the next
/// re-solve; capturing costs nothing extra.
Result<lp::LpSolution> SolveBenchmarkLpStructured(
    const Instance& instance, const AdmissibleCatalog& catalog,
    const StructuredDualOptions& options = {},
    DualWarmStart* warm_out = nullptr);

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_BENCHMARK_DUAL_H_
