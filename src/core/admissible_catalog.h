#ifndef IGEPA_CORE_ADMISSIBLE_CATALOG_H_
#define IGEPA_CORE_ADMISSIBLE_CATALOG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/catalog_lanes.h"
#include "core/instance.h"
#include "core/instance_delta.h"
#include "core/types.h"
#include "util/result.h"

namespace igepa {

class ThreadPool;

namespace core {

/// Options for admissible-set enumeration.
struct AdmissibleOptions {
  /// Cap on |A_u| per user. The paper argues |A_u| stays reasonable because
  /// users bid few events; the cap guards adversarial inputs. When the cap
  /// binds, enumeration prioritizes sets containing high-weight events (bids
  /// are explored in descending kernel pair-weight order, include-branch
  /// first), so the dropped sets are the least valuable ones.
  int32_t max_sets_per_user = 4096;
  /// Worker threads for AdmissibleCatalog::Build (users are independent, so
  /// enumeration parallelizes by contiguous user chunks; the result is
  /// deterministic for any thread count). 0 = hardware concurrency.
  int32_t num_threads = 0;
};

/// One user's admissible sets in nested form — the exchange type of
/// AdmissibleCatalog::FromSets for callers (tests, external enumerators)
/// that produce sets outside the catalog's own arena enumeration.
struct EnumeratedUserSets {
  std::vector<std::vector<EventId>> sets;
  bool truncated = false;
};

/// Options for AdmissibleCatalog::ApplyDelta.
struct CatalogDeltaOptions {
  /// Enumeration knobs for the re-enumerated users (cap, threads ignored —
  /// delta re-enumeration is serial; deltas are small by assumption).
  AdmissibleOptions admissible;
  /// Compact when tombstoned columns exceed this fraction of all columns…
  double compact_tombstone_fraction = 0.25;
  /// …and at least this many columns are dead (avoids thrashing on tiny
  /// catalogs where a single user update crosses the fraction).
  int32_t compact_min_dead_columns = 256;
};

/// What one ApplyDelta call did to the catalog.
struct CatalogDeltaResult {
  /// Users whose column ranges were re-enumerated (ascending, deduplicated):
  /// the registration half of the delta, plus every weight-touched user
  /// whose weight change reorders its enumeration.
  std::vector<UserId> touched_users;
  /// Users whose columns were re-scored through the kernel without
  /// re-enumeration (ascending, deduplicated): the rest of the weight half —
  /// graph-edge endpoints and interest-drift users whose enumeration the
  /// delta left unchanged. touched_users ∪ rescored_users is what a warm
  /// dual restart must rescan.
  std::vector<UserId> rescored_users;
  int32_t columns_tombstoned = 0;
  int32_t columns_appended = 0;
  /// Live columns whose weight slot was rewritten by the kernel re-score
  /// path (excludes appended columns, which are scored at append time). A
  /// graph-edge update re-scores every column of both endpoints; an
  /// interest-drift update re-scores only the user's columns containing the
  /// drifted event.
  int32_t columns_rescored = 0;
  /// True when tombstone density crossed the threshold and the catalog
  /// compacted itself; live column ids were renumbered per `column_remap`.
  bool compacted = false;
  /// Filled iff `compacted`: old column id → new column id, or -1 for
  /// tombstoned columns. Callers holding column ids (warm starts, rounding
  /// state) remap through this.
  std::vector<int32_t> column_remap;
};

/// Flat CSR catalog of every admissible set (LP column) of an instance — the
/// shared substrate of the whole Algorithm-1 pipeline (enumeration →
/// benchmark LP → rounding → repair → post-processing).
///
/// Every enumerated set lives as one contiguous span inside a single EventId
/// pool — three flat arrays plus per-user offset ranges instead of nested
/// per-user vectors. Consumers operate on views:
///
///   * column j (a global id over all users) covers events
///     `set(j)` = pool[col_begin[j], col_begin[j+1]), sorted ascending;
///   * user u owns the contiguous column range
///     [user_columns_begin(u), user_columns_end(u)), in the same order the
///     legacy enumerator emitted its sets;
///   * `weight(j)` is the precomputed LP objective coefficient w(u, S),
///     scored by the instance's UtilityKernel over the ascending-sorted span
///     at build/delta time;
///   * `ForEachColumnOfEvent(v, fn)` is the inverted event→column index:
///     every LIVE column whose set contains v, ascending by column id. The
///     capacity repair sweep and the structured dual oracle both need this
///     reverse view.
///
/// Columns double as LP columns of the benchmark LP (1)-(4): the catalog IS
/// the constraint matrix in block-CSR form (one +1 in the owner's user row,
/// +1 in each event row of the span), so the structured solver consumes it
/// directly with no materialization step.
///
/// ## Delta maintenance (DESIGN.md S15)
///
/// `ApplyDelta` keeps the catalog in sync with an instance mutated by an
/// `InstanceDelta` without re-enumerating untouched users: a touched user's
/// current columns are tombstoned in place (a per-column dead bit; the arena
/// keeps their bytes) and the user's new admissible sets are appended at the
/// end of the arena, so every surviving column keeps its id. The inverted
/// event→column index is patched in place: appended columns go to per-event
/// overflow lists and tombstones are filtered by the dead bit on read. When
/// tombstone density crosses the configured threshold the catalog compacts —
/// live columns are rewritten in user-major order, which reproduces
/// `Build(mutated_instance)` bit for bit — and reports an old→new id remap.
///
/// A catalog with tombstones or overflow entries is *dirty*
/// (`canonical() == false`). Per-user column ranges stay contiguous and
/// live-only in either state, so every consumer that walks user ranges and
/// the ForEach inverted index (structured dual, rounding/repair, baselines,
/// exact solver) works unchanged on dirty catalogs; only the materialized
/// facade LP requires a canonical catalog (it assumes model column k ==
/// catalog column k).
class AdmissibleCatalog {
 public:
  /// An empty catalog (zero users, events and columns); assign a built one.
  AdmissibleCatalog() = default;

  /// Enumerates every user's admissible sets straight into the arena.
  /// Per-user enumeration is independent, so `options.num_threads` > 1 (or
  /// 0 = hardware concurrency) splits users into contiguous chunks enumerated
  /// in parallel; the result is deterministic and identical for every thread
  /// count.
  static AdmissibleCatalog Build(const Instance& instance,
                                 const AdmissibleOptions& options = {});

  /// Builds a catalog from externally enumerated per-user sets (one entry
  /// per user, sets in the order they should become columns). Weights are
  /// scored through the instance's kernel exactly like Build — the
  /// equivalence tests feed a reference enumerator through here.
  static AdmissibleCatalog FromSets(
      const Instance& instance,
      const std::vector<EnumeratedUserSets>& admissible);

  /// Re-enumerates exactly the users the delta touches against the
  /// already-mutated `instance` (call core::ApplyDelta on the instance
  /// first): tombstones their current columns, appends their new ones, and
  /// patches the inverted index in place. Event-capacity updates are free —
  /// admissibility does not depend on c_v. A weight-only update (graph
  /// edge, interest drift) re-enumerates its user only when the new weights
  /// reorder the user's bids into a different column block; otherwise the
  /// touched columns are re-scored in place through the instance's kernel
  /// (spans, ids and the inverted index are untouched, so the catalog stays
  /// canonical if it was). Either way the compacted catalog equals Build on
  /// the mutated instance. Compacts automatically per `options` and reports
  /// what happened. O(Σ_{re-enumerated u} enumeration(u) + Σ_{weight-touched
  /// u} score(u)), where a weight-touched user truncated by the set cap also
  /// costs one enumeration to compare, plus O(catalog) only when compaction
  /// triggers.
  Result<CatalogDeltaResult> ApplyDelta(const Instance& instance,
                                        const InstanceDelta& delta,
                                        const CatalogDeltaOptions& options = {});

  /// Drops tombstoned columns and rewrites the arena in user-major order —
  /// bit-identical to `Build` on the equivalent instance. Returns the old→new
  /// column id remap (-1 for dead columns) and bumps `ids_revision`.
  std::vector<int32_t> Compact();

  /// Re-scores every live column through the instance's *current* kernel —
  /// the objective-swap entry point (set_kernel on the instance, then
  /// Rescore on its catalogs): structure is reused wholesale, only the
  /// weight array is rewritten. Returns the number of columns re-scored and
  /// bumps `weight_revision`. Users re-score independently (disjoint weight
  /// slots), so `num_threads` > 1 shards them across a pool with bit-identical
  /// results; the default stays serial. Note: enumeration *emit order* under
  /// a cap depends on the kernel's bid ordering, so a truncated catalog
  /// re-scored for kernel B can differ from Build under B; uncapped catalogs
  /// are identical because admissibility is kernel-independent.
  int32_t Rescore(const Instance& instance, int32_t num_threads = 1);

  int32_t num_users() const {
    return static_cast<int32_t>(user_range_.size() / 2);
  }
  int32_t num_events() const {
    return static_cast<int32_t>(event_begin_.size()) - 1;
  }
  /// OK when this catalog has `instance`'s user AND event counts; otherwise
  /// InvalidArgument. Every consumer that pairs a catalog with an instance
  /// checks this first: its per-event arrays are sized by the instance and
  /// indexed by the catalog's event ids, so a catalog built on a wider
  /// instance would write past them.
  Status CheckShape(const Instance& instance) const;
  /// Total column ids ever allocated, including tombstones — the size every
  /// column-indexed vector (LP x, weights) must have.
  int32_t num_columns() const { return static_cast<int32_t>(weight_.size()); }
  int32_t num_dead_columns() const { return dead_columns_; }
  int32_t num_live_columns() const { return num_columns() - dead_columns_; }
  /// Total (user, event) incidences Σ_j |S_j| over all column ids (dead
  /// included) — the arena footprint.
  int64_t num_pairs() const { return static_cast<int64_t>(pool_.size()); }
  int64_t num_live_pairs() const {
    return static_cast<int64_t>(pool_.size()) - dead_pairs_;
  }

  /// True when the catalog has no tombstones or overflow entries — i.e. the
  /// flat arrays are exactly what Build on the current instance produces.
  bool canonical() const { return canonical_; }
  /// Bumped every time live column ids are invalidated (only Compact does).
  /// Holders of column ids (DualWarmStart, RoundingState) compare this to
  /// decide whether their ids are still addressable.
  uint64_t ids_revision() const { return ids_revision_; }
  /// Bumped every time any column weight changes after the initial build
  /// (delta re-enumeration/re-score, Rescore). Weight caches (per-user
  /// argmax, snapshots) compare this to detect stale scores; tests assert
  /// weight-only deltas bump it without moving `ids_revision`.
  uint64_t weight_revision() const { return weight_revision_; }

  /// The events of column j, ascending. Valid for dead columns too (the
  /// arena keeps tombstoned bytes until compaction) — callers retiring stale
  /// samples rely on that.
  std::span<const EventId> set(int32_t j) const {
    const size_t b = static_cast<size_t>(col_begin_[static_cast<size_t>(j)]);
    const size_t e =
        static_cast<size_t>(col_begin_[static_cast<size_t>(j) + 1]);
    return {pool_.data() + b, e - b};
  }
  /// Precomputed w(u, S) of column j.
  double weight(int32_t j) const { return weight_[static_cast<size_t>(j)]; }
  /// The user owning column j.
  UserId user_of(int32_t j) const { return col_user_[static_cast<size_t>(j)]; }
  /// False once column j has been tombstoned by ApplyDelta.
  bool live(int32_t j) const { return dead_[static_cast<size_t>(j)] == 0; }

  /// Column range [begin, end) of user u — always contiguous and live-only,
  /// in canonical and dirty states alike.
  int32_t user_columns_begin(UserId u) const {
    return user_range_[static_cast<size_t>(u) * 2];
  }
  int32_t user_columns_end(UserId u) const {
    return user_range_[static_cast<size_t>(u) * 2 + 1];
  }
  int32_t num_sets(UserId u) const {
    return user_columns_end(u) - user_columns_begin(u);
  }

  /// True when user u's enumeration hit the per-user cap.
  bool truncated(UserId u) const {
    return truncated_[static_cast<size_t>(u)] != 0;
  }
  /// True when any user's enumeration was truncated.
  bool any_truncated() const { return truncated_users_ > 0; }

  /// Inverted index over the *base* CSR only: every column of the last
  /// canonical layout whose set contains v, ascending, including tombstones.
  /// Only meaningful on a canonical catalog — dirty-state consumers must use
  /// ForEachColumnOfEvent, which filters tombstones and covers appends.
  std::span<const int32_t> columns_of_event(EventId v) const {
    const size_t b = static_cast<size_t>(event_begin_[static_cast<size_t>(v)]);
    const size_t e =
        static_cast<size_t>(event_begin_[static_cast<size_t>(v) + 1]);
    return {event_cols_.data() + b, e - b};
  }

  /// Visits every live column whose set contains v, in ascending column id
  /// order (base CSR first, then the overflow appends — appended ids are
  /// always larger, so the concatenation stays sorted). The canonical-state
  /// fast path is exactly the old span walk.
  template <typename Fn>
  void ForEachColumnOfEvent(EventId v, Fn&& fn) const {
    const size_t b = static_cast<size_t>(event_begin_[static_cast<size_t>(v)]);
    const size_t e =
        static_cast<size_t>(event_begin_[static_cast<size_t>(v) + 1]);
    for (size_t p = b; p < e; ++p) {
      const int32_t j = event_cols_[p];
      if (dead_[static_cast<size_t>(j)] == 0) fn(j);
    }
    if (overflow_entries_ == 0) return;
    for (int32_t j : overflow_cols_[static_cast<size_t>(v)]) {
      if (dead_[static_cast<size_t>(j)] == 0) fn(j);
    }
  }

  /// Raw CSR arrays for hot loops (the structured dual solver iterates these
  /// directly). `user_begin` reflects the last canonical layout; in dirty
  /// state use the user_columns_begin/end accessors instead.
  const std::vector<EventId>& pool() const { return pool_; }
  const std::vector<int64_t>& col_begin() const { return col_begin_; }
  const std::vector<int32_t>& user_begin() const { return user_begin_; }
  const std::vector<double>& weights() const { return weight_; }
  const std::vector<UserId>& col_users() const { return col_user_; }

  /// Borrowing raw-pointer view of the flat arrays in the CatalogLanes lane
  /// contract shared with the mmap-backed io::CatalogView. Only meaningful on
  /// a canonical() catalog (no tombstones, no overflow appends) — exactly the
  /// state a freshly built shard catalog is in; this is the export half of
  /// the spill path (DESIGN.md §8).
  CatalogLanes Lanes() const {
    CatalogLanes lanes;
    lanes.num_users = num_users();
    lanes.num_events = num_events();
    lanes.num_columns = num_columns();
    lanes.num_pairs = num_pairs();
    lanes.pool = pool_.data();
    lanes.col_begin = col_begin_.data();
    lanes.user_begin = user_begin_.data();
    lanes.weight = weight_.data();
    lanes.col_user = col_user_.data();
    lanes.event_begin = event_begin_.data();
    lanes.event_cols = event_cols_.data();
    return lanes;
  }

 private:
  /// Sorts each span, computes weights, derives col_user_, truncation summary
  /// and the inverted index, and resets all delta state (canonical). Called
  /// by both builders after the pool is laid out. Span sorting and kernel
  /// scoring run per user (disjoint slots) across `workers` when non-null —
  /// deterministic for any lane count; Build reuses its enumeration pool.
  void FinalizeFromPool(const Instance& instance, ThreadPool* workers);
  /// Rebuilds event_begin_/event_cols_ from the current pool by counting
  /// sort (ascending column order ⇒ each event's list sorted).
  void RebuildInvertedIndex(int32_t num_events);

  std::vector<EventId> pool_;                // all sets, concatenated
  std::vector<int64_t> col_begin_ = {0};     // size num_columns+1
  std::vector<int32_t> user_begin_ = {0};    // size num_users+1 (column ids,
                                             // last canonical layout)
  std::vector<int32_t> user_range_;  // 2 per user: current [begin, end)
  std::vector<double> weight_;       // per column, w(u, S)
  std::vector<UserId> col_user_;     // per column owner
  std::vector<uint8_t> dead_;        // per column tombstone bit
  std::vector<uint8_t> truncated_;   // per user
  int32_t truncated_users_ = 0;
  int32_t dead_columns_ = 0;
  int64_t dead_pairs_ = 0;
  std::vector<int64_t> event_begin_ = {0};  // size num_events+1 (base CSR)
  std::vector<int32_t> event_cols_;   // base inverted index
  std::vector<std::vector<int32_t>> overflow_cols_;  // per event, appended ids
  int64_t overflow_entries_ = 0;
  bool canonical_ = true;
  uint64_t ids_revision_ = 0;
  uint64_t weight_revision_ = 0;
};

}  // namespace core
}  // namespace igepa

#endif  // IGEPA_CORE_ADMISSIBLE_CATALOG_H_
