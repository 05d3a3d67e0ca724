#ifndef IGEPA_CORE_STRUCTURED_DUAL_CORE_H_
#define IGEPA_CORE_STRUCTURED_DUAL_CORE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "core/benchmark_dual.h"
#include "core/instance.h"
#include "lp/solution.h"
#include "util/cache_line.h"
#include "util/result.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace igepa {
namespace core {

namespace structured_dual_detail {

/// Users per oracle chunk. The chunk partition is a function of the block
/// layout only — never of the thread count — so the chunk-order merge below
/// reduces in the same order no matter how many lanes ran the chunks
/// (DESIGN.md §5, S14).
constexpr int32_t kUserShardSize = 64;

/// Below this many users the pool spawn outweighs the oracle sweep.
constexpr int32_t kMinParallelUsers = 128;

/// k_u: an upper bound on the size of user u's admissible sets, which never
/// exceed the user's capacity or bid count.
inline int32_t MaxSetSize(const Instance& instance, UserId u) {
  return std::min(instance.user_capacity(u),
                  static_cast<int32_t>(instance.bids(u).size()));
}

}  // namespace structured_dual_detail

/// The structured dual's one loop (SolveBenchmarkLpStructured's contract;
/// DESIGN.md §5 S14, S15, S19), written once against a column source whose
/// users fall into contiguous blocks: the whole catalog for the monolithic
/// solve, one shard catalog per block for ShardedSolve's level 2
/// (DESIGN.md §8). The source is a template parameter, so every column read
/// is a direct array access. It provides
///   * `View`, one block's columns under local ids: arrays `pool`,
///     `col_begin`, `weight`, live ranges `user_columns_begin/end(local u)`
///     and `ForEachColumnOfEvent(v, fn)`, ascending by id;
///   * the layout: `num_blocks()` and, for b ≤ num_blocks(),
///     `block_user_begin(b)` and `block_column_begin(b)` (the global id of
///     local column 0; global ids span [0, num_columns()), the size of x);
///   * `num_live_columns()`, `wmax()`, `max_user_columns()`, `ids_revision()`;
///   * `pins_blocks()`: a parallel task then takes a whole block, so a worker
///     holds at most one `Pin`;
///   * `Acquire(b, &pin)` for parallel tasks (null on failure, reported by
///     `status()` after the join), `Serial(b)` for serial passes (one cached
///     pin) and `DropSerial()`, called before every parallel sweep;
///   * `ForEachPolishColumn(fn)`: fn(j, owner, weight, events) per live
///     column in descending weight, ties by owner then id; events() returns
///     the column's event span.
/// Every floating-point reduction runs in an order fixed by the block
/// layout, so sources serving the same columns in the same layout give the
/// same bits at any thread count.
template <typename Columns>
Result<lp::LpSolution> SolveStructuredDual(const Instance& instance,
                                           Columns& columns,
                                           const StructuredDualOptions& options,
                                           DualWarmStart* warm_out) {
  using structured_dual_detail::kMinParallelUsers;
  using structured_dual_detail::kUserShardSize;
  using structured_dual_detail::MaxSetSize;
  using View = typename Columns::View;
  const int32_t nu = instance.num_users();
  const int32_t nv = instance.num_events();
  const int32_t cols = columns.num_columns();
  const int32_t num_blocks = columns.num_blocks();

  std::vector<double> capacity(static_cast<size_t>(nv), 0.0);
  for (EventId v = 0; v < nv; ++v) {
    capacity[static_cast<size_t>(v)] =
        static_cast<double>(instance.event_capacity(v));
  }

  const double wmax = columns.wmax();
  lp::LpSolution sol;
  sol.duals.assign(static_cast<size_t>(nu) + static_cast<size_t>(nv), 0.0);
  if (columns.num_live_columns() == 0 || wmax <= 0.0) {
    sol.x.assign(static_cast<size_t>(cols), 0.0);
    sol.status = lp::SolveStatus::kOptimal;
    if (warm_out != nullptr) {
      warm_out->mu.assign(static_cast<size_t>(nv), 0.0);
      warm_out->choice.assign(static_cast<size_t>(nu), -1);
      warm_out->choice_value.assign(static_cast<size_t>(nu), 0.0);
      warm_out->stale.clear();
      warm_out->catalog_revision = columns.ids_revision();
    }
    return sol;
  }

  // Warm start: μ seeds the trajectory; cached per-user choices are honored
  // at the first iteration only (where μ still equals the warm μ) and only
  // for users whose column ranges did not change — the "re-shard only the
  // touched users" half of S15.
  const DualWarmStart* warm = options.warm;
  const bool warm_mu_ok =
      warm != nullptr && static_cast<int32_t>(warm->mu.size()) == nv;
  const bool warm_choices_ok =
      warm != nullptr && warm_mu_ok &&
      warm->catalog_revision == columns.ids_revision() &&
      static_cast<int32_t>(warm->choice.size()) == nu &&
      static_cast<int32_t>(warm->choice_value.size()) == nu &&
      (warm->stale.empty() ||
       static_cast<int32_t>(warm->stale.size()) == nu);

  std::vector<double> mu(static_cast<size_t>(nv), 0.0);
  if (warm_mu_ok) {
    for (EventId v = 0; v < nv; ++v) {
      mu[static_cast<size_t>(v)] = std::max(0.0, warm->mu[static_cast<size_t>(v)]);
    }
  }
  std::vector<double> best_mu = mu;
  std::vector<double> usage(static_cast<size_t>(nv), 0.0);
  std::vector<double> ext_usage(static_cast<size_t>(nv), 0.0);
  std::vector<int64_t> chosen_count(static_cast<size_t>(cols), 0);
  std::vector<int32_t> current_choice(static_cast<size_t>(nu), -1);
  std::vector<double> current_value(static_cast<size_t>(nu), 0.0);
  std::vector<int32_t> best_choice(static_cast<size_t>(nu), -1);
  std::vector<double> best_value(static_cast<size_t>(nu), 0.0);
  std::vector<double> xtry(static_cast<size_t>(cols), 0.0);
  std::vector<double> factor(static_cast<size_t>(cols), 1.0);
  std::vector<int32_t> scaled;  // columns whose factor is below 1
  std::vector<std::pair<EventId, double>> overloaded;  // event, scale factor
  std::vector<double> user_mass(static_cast<size_t>(nu), 0.0);
  std::vector<double> best_x(static_cast<size_t>(cols), 0.0);
  double best_primal = 0.0;
  double best_ub = std::numeric_limits<double>::infinity();
  int64_t avg_started_at = 1;
  int64_t avg_count = 0;

  // Builds a feasible primal from the averaged oracle choices: scale columns
  // through overloaded events (found via the inverted event→column index),
  // then greedily refill leftover event capacity and user mass by descending
  // weight. Returns its objective value. Each pass is block-major, so a
  // spilled source pages each block in at most once per pass.
  auto extract_primal = [&]() -> Result<double> {
    const double inv =
        1.0 / static_cast<double>(std::max<int64_t>(1, avg_count));
    // Activities and user masses of the averaged point. When nothing is
    // scaled below, they are already those of the point the polish starts
    // from, summed in the same order as the recompute pass would.
    const auto accumulate = [&](bool from_counts) -> Status {
      std::fill(ext_usage.begin(), ext_usage.end(), 0.0);
      std::fill(user_mass.begin(), user_mass.end(), 0.0);
      for (int32_t b = 0; b < num_blocks; ++b) {
        IGEPA_ASSIGN_OR_RETURN(const View* view, columns.Serial(b));
        const UserId ub = columns.block_user_begin(b);
        const UserId ue = columns.block_user_begin(b + 1);
        const size_t coff = static_cast<size_t>(columns.block_column_begin(b));
        for (UserId u = ub; u < ue; ++u) {
          for (int32_t lj = view->user_columns_begin(u - ub);
               lj < view->user_columns_end(u - ub); ++lj) {
            const size_t j = coff + static_cast<size_t>(lj);
            double& xj = xtry[j];
            if (from_counts) {
              xj = static_cast<double>(chosen_count[j]) * inv;
            }
            if (xj <= 0.0) continue;
            user_mass[static_cast<size_t>(u)] += xj;
            for (int64_t e = view->col_begin[lj]; e < view->col_begin[lj + 1];
                 ++e) {
              ext_usage[static_cast<size_t>(view->pool[e])] += xj;
            }
          }
        }
      }
      return Status::OK();
    };
    IGEPA_RETURN_IF_ERROR(accumulate(/*from_counts=*/true));
    // Scale down through overloaded events: walk each overloaded event's
    // column list instead of re-scanning every column's events, and scale
    // only the columns those walks reached. `factor` is all ones between
    // calls; a column is listed exactly when its factor first drops below 1.
    overloaded.clear();
    for (EventId v = 0; v < nv; ++v) {
      const double cap = capacity[static_cast<size_t>(v)];
      const double used = ext_usage[static_cast<size_t>(v)];
      if (used <= cap) continue;
      overloaded.emplace_back(v, cap <= 0.0 ? 0.0 : cap / used);
    }
    scaled.clear();
    for (int32_t b = 0; b < num_blocks && !overloaded.empty(); ++b) {
      IGEPA_ASSIGN_OR_RETURN(const View* view, columns.Serial(b));
      const size_t coff = static_cast<size_t>(columns.block_column_begin(b));
      for (const std::pair<EventId, double>& event : overloaded) {
        const double f = event.second;
        view->ForEachColumnOfEvent(event.first, [&](int32_t lj) {
          const size_t j = coff + static_cast<size_t>(lj);
          double& fj = factor[j];
          if (xtry[j] <= 0.0 || f >= fj) return;
          if (fj == 1.0) scaled.push_back(static_cast<int32_t>(j));
          fj = f;
        });
      }
    }
    for (const int32_t j : scaled) {
      xtry[static_cast<size_t>(j)] *= factor[static_cast<size_t>(j)];
      factor[static_cast<size_t>(j)] = 1.0;
    }
    if (!scaled.empty()) {
      IGEPA_RETURN_IF_ERROR(accumulate(/*from_counts=*/false));
    }
    // Greedy polish: refill by descending weight, respecting both the user's
    // residual mass (constraint (2)) and the events' residual capacity (3).
    double value = 0.0;
    IGEPA_RETURN_IF_ERROR(columns.ForEachPolishColumn(
        [&](int32_t j, UserId u, double w, const auto& events) {
          double& xj = xtry[static_cast<size_t>(j)];
          double room =
              std::min(1.0 - xj, 1.0 - user_mass[static_cast<size_t>(u)]);
          if (room > 1e-12) {
            const std::span<const EventId> set = events();
            for (const EventId v : set) {
              room = std::min(room, capacity[static_cast<size_t>(v)] -
                                        ext_usage[static_cast<size_t>(v)]);
              if (room <= 1e-12) break;
            }
            if (room > 1e-12) {
              xj += room;
              user_mass[static_cast<size_t>(u)] += room;
              for (const EventId v : set) {
                ext_usage[static_cast<size_t>(v)] += room;
              }
            }
          }
          value += w * xj;
        }));
    return value;
  };

  // ---- Chunk-parallel oracle plumbing. -------------------------------------
  // Each block's users split into fixed-size chunks; each chunk accumulates
  // its own Lagrangian partial, merged serially in global chunk order after
  // the join. Chunk outputs are otherwise disjoint (current_choice is
  // per-user; every chosen_count column belongs to exactly one user), so any
  // lane schedule computes the same bits, and threads=1 runs the identical
  // chunk structure inline. A task is one chunk, or a whole block when the
  // source pins blocks.
  std::vector<UserId> chunk_user;    // first user of each chunk, then |U|
  std::vector<int32_t> chunk_block;  // owning block of each chunk
  std::vector<int32_t> task_chunk;   // first chunk of each task, then the count
  for (int32_t b = 0; b < num_blocks; ++b) {
    if (columns.pins_blocks()) {
      task_chunk.push_back(static_cast<int32_t>(chunk_block.size()));
    }
    for (UserId u = columns.block_user_begin(b);
         u < columns.block_user_begin(b + 1); u += kUserShardSize) {
      if (!columns.pins_blocks()) {
        task_chunk.push_back(static_cast<int32_t>(chunk_block.size()));
      }
      chunk_user.push_back(u);
      chunk_block.push_back(b);
    }
  }
  chunk_user.push_back(nu);
  const int32_t num_chunks = static_cast<int32_t>(chunk_block.size());
  task_chunk.push_back(num_chunks);
  const int32_t num_tasks = static_cast<int32_t>(task_chunk.size()) - 1;

  ThreadPool* workers = options.workers;
  std::unique_ptr<ThreadPool> owned_workers;
  if (workers == nullptr && nu >= kMinParallelUsers &&
      ThreadPool::ResolveThreadCount(options.num_threads, num_tasks) > 1) {
    owned_workers = std::make_unique<ThreadPool>(
        ThreadPool::ResolveThreadCount(options.num_threads, num_tasks));
    workers = owned_workers.get();
  }
  const int32_t num_lanes = workers ? workers->num_threads() : 1;
  // Scratch sizing: the Lagrangian partials are order-sensitive doubles, so
  // they get one slot per *chunk* (fixed partition, merged in chunk order) —
  // cache-line padded, since adjacent chunks usually run on different lanes
  // and eight plain doubles per line would false-share on every write. The
  // usage accumulators are integer-valued counts — exact in any order — so
  // one buffer per *lane* suffices, keeping scratch memory and the
  // per-iteration zero+merge at O(threads·|V|), not O(|U|/64·|V|); lanes are
  // strided to whole cache lines so no two lanes touch the same line.
  std::vector<util::CachePadded<double>> shard_lagrangian(
      static_cast<size_t>(num_chunks));
  const size_t usage_stride =
      util::PaddedStride(static_cast<size_t>(nv), sizeof(double));
  std::vector<double> lane_usage(
      static_cast<size_t>(num_lanes) * usage_stride, 0.0);
  // Per-lane reduced-cost scratch for the vectorized oracle scan: the
  // per-column μ-sums of one user's block, computed in batch by
  // util::simd::SumColumnLanes before the scalar argmax walk. K = max_u k_u
  // sets the skip's rounding slack below.
  int32_t max_set_size = 1;
  for (UserId u = 0; u < nu; ++u) {
    max_set_size = std::max(max_set_size, MaxSetSize(instance, u));
  }
  const size_t musum_stride = util::PaddedStride(
      static_cast<size_t>(std::max(columns.max_user_columns(), 1)),
      sizeof(double));
  std::vector<double> lane_musum(
      static_cast<size_t>(num_lanes) * musum_stride, 0.0);

  // ---- Certified oracle skipping (DESIGN.md §5, S19). ----------------------
  // A user's last full scan certifies its argmax until μ has moved far
  // enough to change it. Trading set S for S' changes w − Σμ by at most
  // |S Δ S'| ≤ c_u = min(2·k_u, a_u) times the max-norm distance μ moved,
  // where a_u counts the user's bids on events whose μ has moved in this
  // solve. So while the scan's margin (best candidate minus runner-up, the
  // empty set worth 0 included) exceeds c_u times the travel P since the
  // scan, plus a rounding slack, the full scan would pick the same column,
  // and the user recomputes only that column's value. The scan solves this
  // rule for the travel reading at which its certificate expires, so the
  // check is one compare. Only the chunk that owns a user writes its expiry;
  // the serial μ step updates a_u and voids the certificates whose c_u grows.
  constexpr double kEps = std::numeric_limits<double>::epsilon();
  constexpr double kNoCertificate = -std::numeric_limits<double>::infinity();
  const double max_k = static_cast<double>(max_set_size);
  const double rate_slack = 4.0 * kEps * max_k * (max_k + 2.0);
  std::vector<double> expiry(static_cast<size_t>(nu), kNoCertificate);
  std::vector<double> inv_rate(static_cast<size_t>(nu), 1.0 / rate_slack);
  std::vector<int32_t> moved_bids(static_cast<size_t>(nu), 0);  // a_u
  std::vector<uint8_t> event_moved(static_cast<size_t>(nv), 0);
  double travel = 0.0;  // P_t = Σ_s ‖μ_{s+1} − μ_s‖_∞
  double mu_hi = 0.0;   // max_v μ_v over the solve so far
  for (const double m : mu) mu_hi = std::max(mu_hi, m);

  // The warm probe's step offset, T0 = (|U|/|V|)²/8: 50 at 4,000 users × 200
  // events. It was fitted on synthetic instances of 1,000 to 16,000 users;
  // no fixed offset served every size. The probe takes fine steps through
  // every averaging window (t = 1, 3, 7, 15, …) that ends at or before
  // max(3, √T0): t ≤ 3 up to 2,000 × 200 and on Meetup, t ≤ 63 at
  // 50,000 × 200 (DESIGN.md S15).
  const double users_per_event =
      static_cast<double>(nu) / static_cast<double>(nv);
  const double probe_offset = users_per_event * users_per_event / 8.0;
  const double probe_limit = std::max(3.0, std::sqrt(probe_offset));
  int64_t probe_end = 3;
  while (static_cast<double>(2 * probe_end + 1) <= probe_limit) {
    probe_end = 2 * probe_end + 1;
  }
  int64_t t = 1;
  std::vector<double> grad(static_cast<size_t>(nv), 0.0);
  for (; t <= options.max_iterations; ++t) {
    // ---- Oracle: best admissible set per user under reduced weights. ------
    // At t=1 of a warm restart, users whose column ranges are unchanged reuse
    // the cached argmax from the previous solve (μ is still the warm μ, so
    // the cached value IS the scan result, bit for bit); only stale users
    // rescan. The ownership check below additionally rejects any cached
    // column id that no longer sits in the user's current range (delta
    // re-enumeration always moves the range), so a forgotten stale flag on a
    // user with a cached set degrades to a rescan; a cached "no set" (-1)
    // has nothing to range-check, which is why the stale mask is part of the
    // warm-start contract rather than a hint.
    const bool reuse_choices = warm_choices_ok && t == 1;
    // The travel clock (P_t plus what its running sum may have lost to
    // rounding) and the slack for rounding the four reduced costs that a
    // certificate compares.
    const double clock = travel + static_cast<double>(t + 4) * kEps * travel;
    const double slack =
        4.0 * kEps * (max_k + 2.0) * (wmax + max_k * mu_hi);
    const auto oracle_task = [&](int32_t lane, int64_t tb, int64_t te) {
      double* lu = lane_usage.data() + static_cast<size_t>(lane) * usage_stride;
      double* musum =
          lane_musum.data() + static_cast<size_t>(lane) * musum_stride;
      for (int64_t task = tb; task < te; ++task) {
        const int32_t c_begin = task_chunk[static_cast<size_t>(task)];
        const int32_t c_end = task_chunk[static_cast<size_t>(task) + 1];
        if (c_begin == c_end) continue;
        const int32_t b = chunk_block[static_cast<size_t>(c_begin)];
        typename Columns::Pin pin;
        const View* view = columns.Acquire(b, &pin);
        if (view == nullptr) continue;  // columns.status() reports it
        const UserId ub = columns.block_user_begin(b);
        const int32_t coff = columns.block_column_begin(b);
        const EventId* pool = view->pool;
        const int64_t* col_begin = view->col_begin;
        const double* weight = view->weight;
        for (int32_t c = c_begin; c < c_end; ++c) {
          double lagr = 0.0;
          for (UserId u = chunk_user[static_cast<size_t>(c)];
               u < chunk_user[static_cast<size_t>(c) + 1]; ++u) {
            const size_t us = static_cast<size_t>(u);
            const int32_t lbegin = view->user_columns_begin(u - ub);
            const int32_t lend = view->user_columns_end(u - ub);
            double best = 0.0;
            int32_t best_col = -1;
            bool reused = false;
            if (reuse_choices &&
                (warm->stale.empty() || warm->stale[us] == 0)) {
              const int32_t cached = warm->choice[us];
              if (cached < 0 ||
                  (cached >= coff + lbegin && cached < coff + lend)) {
                best_col = cached;
                best = warm->choice_value[us];
                reused = true;
              }
            }
            if (!reused && lbegin < lend) {
              if (clock < expiry[us]) {
                // Certified: the full scan would pick the same column again.
                // Its value goes through the same SumColumnLanes reduction,
                // one column wide, so it has the bits the full scan gives.
                best_col = current_choice[us];
                if (best_col >= 0) {
                  const int32_t lj = best_col - coff;
                  util::simd::SumColumnLanes(mu.data(), pool, col_begin + lj,
                                             1, musum);
                  best = weight[lj] - musum[0];
                }
              } else {
                // Batched reduced costs: the per-column Σμ over each span is
                // one SumColumnLanes call (AVX2 when available — μ is already
                // a dense event-indexed lane, no gather setup needed), then
                // a scalar argmax walk. The reduction order w − (μ₁+…+μₖ) is
                // fixed and schedule-independent, so every thread count,
                // warm/cold restart, dirty/canonical catalog and block
                // layout computes the same bits.
                const int32_t count = lend - lbegin;
                util::simd::SumColumnLanes(mu.data(), pool, col_begin + lbegin,
                                           count, musum);
                double runner_up = -std::numeric_limits<double>::infinity();
                for (int32_t k = 0; k < count; ++k) {
                  const double reduced = weight[lbegin + k] - musum[k];
                  if (reduced > best) {
                    runner_up = best;
                    best = reduced;
                    best_col = coff + lbegin + k;
                  } else if (reduced > runner_up) {
                    runner_up = reduced;
                  }
                }
                // margin > (c_u + rate_slack)·(clock − P_s) + slack, solved
                // for the clock.
                expiry[us] = travel + (best - runner_up - slack) * inv_rate[us];
              }
            }
            current_choice[us] = best_col;
            current_value[us] = best;
            if (best_col >= 0) {
              const int32_t lj = best_col - coff;
              lagr += best;
              ++chosen_count[static_cast<size_t>(best_col)];
              for (int64_t e = col_begin[lj]; e < col_begin[lj + 1]; ++e) {
                lu[pool[e]] += 1.0;
              }
            }
          }
          shard_lagrangian[static_cast<size_t>(c)].value = lagr;
        }
      }
    };
    // A cached serial pin must drop before the parallel sweep: with one pin
    // slot it would block every task's Acquire (DESIGN.md §8).
    columns.DropSerial();
    std::fill(lane_usage.begin(), lane_usage.end(), 0.0);
    if (workers) {
      workers->ParallelFor(0, num_tasks, /*grain=*/1, oracle_task);
    } else {
      oracle_task(0, 0, num_tasks);
    }
    IGEPA_RETURN_IF_ERROR(columns.status());
    // Deterministic merge: event duals' base term, then the Lagrangian chunk
    // partials in fixed chunk order; usage sums are integer-valued doubles
    // (counts of 1.0), hence exact in any lane order and under any schedule.
    double lagrangian = 0.0;
    for (EventId v = 0; v < nv; ++v) {
      lagrangian += capacity[static_cast<size_t>(v)] * mu[static_cast<size_t>(v)];
    }
    for (int32_t c = 0; c < num_chunks; ++c) {
      lagrangian += shard_lagrangian[static_cast<size_t>(c)].value;
    }
    std::fill(usage.begin(), usage.end(), 0.0);
    for (int32_t lane = 0; lane < num_lanes; ++lane) {
      const double* lu =
          lane_usage.data() + static_cast<size_t>(lane) * usage_stride;
      for (EventId v = 0; v < nv; ++v) usage[static_cast<size_t>(v)] += lu[v];
    }
    ++avg_count;
    if (lagrangian < best_ub) {
      best_ub = lagrangian;
      best_mu = mu;
      best_choice = current_choice;
      best_value = current_value;
    }

    // ---- Periodic primal extraction & certified-gap check. ----------------
    // A warm start also checks at the end of every averaging window (t = 1,
    // 3, 7, 15, …), when the suffix average is as long as it will get before
    // the restart discards it: with a near-optimal μ the gap usually
    // certifies after a window or two, so a small-delta re-solve costs a few
    // sweeps and primal extractions instead of kGapCheckEvery iterations.
    const bool window_ends = t + 1 >= 2 * avg_started_at;
    if (t % kGapCheckEvery == 0 || t == options.max_iterations ||
        (warm_mu_ok && window_ends)) {
      IGEPA_ASSIGN_OR_RETURN(const double value, extract_primal());
      if (value > best_primal) {
        best_primal = value;
        best_x = xtry;
      }
      const double gap =
          (best_ub - best_primal) / std::max(1.0, std::abs(best_ub));
      if (gap <= options.target_gap) break;
    }

    // ---- Suffix averaging with doubling restarts. --------------------------
    if (window_ends) {
      std::fill(chosen_count.begin(), chosen_count.end(), 0);
      avg_count = 0;
      avg_started_at = t + 1;
    }

    // ---- Projected subgradient step on μ. ----------------------------------
    double gnorm2 = 0.0;
    for (EventId v = 0; v < nv; ++v) {
      const double g =
          capacity[static_cast<size_t>(v)] - usage[static_cast<size_t>(v)];
      grad[static_cast<size_t>(v)] = g;
      gnorm2 += g * g;
    }
    if (gnorm2 <= 1e-18) {
      // Every event is exactly at capacity under the current oracle choice:
      // that choice is primal-feasible with value Σ_u w(S*_u) = L(μ) (the
      // complementary-slackness identity), hence OPTIMAL. Replace the
      // averaging window with this single iterate and extract it.
      std::fill(chosen_count.begin(), chosen_count.end(), 0);
      for (UserId u = 0; u < nu; ++u) {
        const int32_t j = current_choice[static_cast<size_t>(u)];
        if (j >= 0) chosen_count[static_cast<size_t>(j)] = 1;
      }
      avg_count = 1;
      IGEPA_ASSIGN_OR_RETURN(const double value, extract_primal());
      if (value > best_primal) {
        best_primal = value;
        best_x = xtry;
      }
      break;
    }
    // A warm start probes with fine steps, as if `probe_offset` iterations
    // had already run: the full cold step would throw the warm μ away. After
    // the probe, warm and cold step alike.
    const double step_t = warm_mu_ok && t <= probe_end
                              ? static_cast<double>(t) + probe_offset
                              : static_cast<double>(t);
    const double step = wmax / std::sqrt(step_t * gnorm2);
    double moved_by = 0.0;
    for (EventId v = 0; v < nv; ++v) {
      double& mu_v = mu[static_cast<size_t>(v)];
      const double next =
          std::max(0.0, mu_v - step * grad[static_cast<size_t>(v)]);
      if (next == mu_v) continue;
      moved_by = std::max(moved_by, std::abs(next - mu_v));
      mu_hi = std::max(mu_hi, next);
      mu_v = next;
      if (event_moved[static_cast<size_t>(v)] == 0) {
        event_moved[static_cast<size_t>(v)] = 1;
        for (const UserId u : instance.bidders(v)) {
          const size_t us = static_cast<size_t>(u);
          const int32_t two_k = 2 * MaxSetSize(instance, u);
          if (moved_bids[us]++ >= two_k) continue;  // c_u stays 2·k_u
          inv_rate[us] =
              1.0 / (static_cast<double>(moved_bids[us]) + rate_slack);
          expiry[us] = kNoCertificate;
        }
      }
    }
    travel += moved_by;
  }

  sol.x = std::move(best_x);
  sol.objective = best_primal;
  sol.upper_bound = best_ub;
  sol.iterations = std::min<int64_t>(t, options.max_iterations);
  // Duals: μ on event rows; π_u (the oracle value at best μ) on user rows —
  // tracked alongside best_ub, so no extra oracle sweep is needed here.
  for (UserId u = 0; u < nu; ++u) {
    sol.duals[static_cast<size_t>(u)] = best_value[static_cast<size_t>(u)];
  }
  for (EventId v = 0; v < nv; ++v) {
    sol.duals[static_cast<size_t>(nu) + static_cast<size_t>(v)] =
        best_mu[static_cast<size_t>(v)];
  }
  if (warm_out != nullptr) {
    warm_out->mu = best_mu;
    warm_out->choice = std::move(best_choice);
    warm_out->choice_value = std::move(best_value);
    warm_out->stale.clear();
    warm_out->catalog_revision = columns.ids_revision();
  }
  const double gap = sol.RelativeGap();
  sol.status = gap <= options.target_gap ? lp::SolveStatus::kApproximate
                                         : lp::SolveStatus::kIterationLimit;
  return sol;
}

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_STRUCTURED_DUAL_CORE_H_
