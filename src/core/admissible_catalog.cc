#include "core/admissible_catalog.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "util/thread_pool.h"

namespace igepa {
namespace core {
namespace {

/// DFS over one user's bids (pre-sorted by descending weight), emitting every
/// conflict-free subset of size <= capacity straight into a flat arena.
/// Mirrors the legacy SetEnumerator exactly (same emit order, same truncation
/// semantics) so catalog and legacy paths stay bit-identical.
class ArenaEnumerator {
 public:
  ArenaEnumerator(const Instance& instance, std::vector<EventId> ordered_bids,
                  int32_t capacity, int32_t max_sets,
                  std::vector<EventId>* pool, std::vector<int32_t>* set_size)
      : instance_(instance),
        bids_(std::move(ordered_bids)),
        capacity_(capacity),
        max_sets_(max_sets),
        pool_(pool),
        set_size_(set_size) {}

  /// Returns the number of sets emitted; `truncated()` reports cap pressure.
  int32_t Run() {
    if (capacity_ <= 0 || bids_.empty() || max_sets_ <= 0) return 0;
    current_.clear();
    Dfs(0);
    return count_;
  }

  bool truncated() const { return truncated_; }

 private:
  void Dfs(size_t index) {
    if (count_ >= max_sets_) {
      truncated_ = true;
      return;
    }
    if (index == bids_.size()) return;
    const EventId v = bids_[index];
    // Include v when it fits and does not conflict with the chosen prefix.
    if (static_cast<int32_t>(current_.size()) < capacity_ &&
        CompatibleWithCurrent(v)) {
      current_.push_back(v);
      pool_->insert(pool_->end(), current_.begin(), current_.end());
      set_size_->push_back(static_cast<int32_t>(current_.size()));
      ++count_;
      Dfs(index + 1);
      current_.pop_back();
    }
    // Exclude v.
    Dfs(index + 1);
  }

  bool CompatibleWithCurrent(EventId v) const {
    for (EventId chosen : current_) {
      if (instance_.Conflicts(chosen, v)) return false;
    }
    return true;
  }

  const Instance& instance_;
  std::vector<EventId> bids_;
  int32_t capacity_;
  int32_t max_sets_;
  std::vector<EventId>* pool_;
  std::vector<int32_t>* set_size_;
  std::vector<EventId> current_;
  int32_t count_ = 0;
  bool truncated_ = false;
};

/// The canonical bid order: descending kernel pair weight, ties by event id
/// (under the default kernel, exactly the legacy descending-w(u,v) order).
/// Weights are fetched once per bid through one PairWeightLane batch call
/// (per-user kernel terms hoisted), rather than twice per comparison inside
/// the sort.
std::vector<EventId> OrderedBids(const Instance& instance, UserId u) {
  const std::vector<EventId>& bids = instance.bids(u);
  std::vector<double> lane(bids.size());
  instance.kernel().PairWeightLane(instance, u, bids.data(),
                                   static_cast<int32_t>(bids.size()),
                                   lane.data());
  std::vector<std::pair<double, EventId>> keyed;
  keyed.reserve(bids.size());
  for (size_t i = 0; i < bids.size(); ++i) {
    keyed.emplace_back(lane[i], bids[i]);
  }
  // The (weight desc, id asc) key is total, so plain sort is deterministic.
  std::sort(keyed.begin(), keyed.end(),
            [](const std::pair<double, EventId>& a,
               const std::pair<double, EventId>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<EventId> ordered;
  ordered.reserve(keyed.size());
  for (const auto& [w, v] : keyed) ordered.push_back(v);
  return ordered;
}

/// True when enumerating `u` against `instance` reproduces the user's
/// current column block in `catalog` span for span.
bool EnumerationMatches(const AdmissibleCatalog& catalog,
                        const Instance& instance, UserId u,
                        int32_t max_sets) {
  std::vector<EventId> pool;
  std::vector<int32_t> sizes;
  ArenaEnumerator enumerator(instance, OrderedBids(instance, u),
                             instance.user_capacity(u), max_sets, &pool,
                             &sizes);
  const int32_t count = enumerator.Run();
  const int32_t begin = catalog.user_columns_begin(u);
  if (count != catalog.user_columns_end(u) - begin) return false;
  auto span_begin = pool.begin();
  for (int32_t k = 0; k < count; ++k) {
    const auto span_end = span_begin + sizes[static_cast<size_t>(k)];
    std::sort(span_begin, span_end);  // the catalog stores spans sorted
    const auto current = catalog.set(begin + k);
    if (!std::equal(span_begin, span_end, current.begin(), current.end())) {
      return false;
    }
    span_begin = span_end;
  }
  return true;
}

/// True when enumerating `u` against `instance` would reproduce the user's
/// current column block, for a delta that changed only pair weights (bids,
/// capacity and conflicts are what they were at enumeration). `lane` holds
/// the new pair weight of every event in the block, indexed by event id. The
/// DFS emits each bid's singleton set in bid order, so an untruncated block
/// lists the order it was enumerated in through its size-1 columns, and the
/// block is unchanged iff that list is still in OrderedBids order (weight
/// desc, id asc). A truncated block may lack singletons; it is compared
/// against a fresh enumeration instead.
bool BidOrderUnchanged(const AdmissibleCatalog& catalog,
                       const Instance& instance, UserId u, int32_t max_sets,
                       const std::vector<double>& lane) {
  if (!catalog.truncated(u)) {
    size_t singletons = 0;
    EventId prev = -1;
    bool in_order = true;
    for (int32_t j = catalog.user_columns_begin(u);
         j < catalog.user_columns_end(u) && in_order; ++j) {
      const auto span = catalog.set(j);
      if (span.size() != 1) continue;
      const EventId next = span[0];
      if (singletons++ > 0) {
        const double wp = lane[static_cast<size_t>(prev)];
        const double wn = lane[static_cast<size_t>(next)];
        in_order = wp > wn || (wp == wn && prev < next);
      }
      prev = next;
    }
    if (!in_order) return false;
    if (singletons == instance.bids(u).size()) return true;
  }
  return EnumerationMatches(catalog, instance, u, max_sets);
}

/// Reusable scratch of the SoA scoring fast path (one per scoring lane): a
/// dense per-event weight lane with fill markers cleared through the touched
/// list, plus compacted CSR buffers for the scattered-column path. The lane
/// is what turns scoring from one (hash-overlay-backed) PairWeight call per
/// (set, event) incidence into one per *distinct* event of the batch.
struct ScoreScratch {
  std::vector<double> lane;       // event id → PairWeight(v, u), when filled
  std::vector<uint8_t> filled;    // per event: lane slot valid for current u
  std::vector<EventId> touched;   // filled slots to clear after the batch
  std::vector<double> lane_vals;  // PairWeightLane output, touched order
  std::vector<EventId> cpool;     // scattered-column path: compacted spans
  std::vector<int64_t> cbegin;    //   …and their offsets
  std::vector<double> scores;     //   …and the scored weights to scatter back
};

/// Gathers PairWeight lanes for every distinct event in
/// pool[pool_begin, pool_end) — walking the spans themselves (not bids), so
/// externally enumerated sets (FromSets) are covered too.
void GatherLane(const Instance& instance, UserId u, const EventId* pool,
                int64_t pool_begin, int64_t pool_end, ScoreScratch* scratch) {
  const auto nv = static_cast<size_t>(instance.num_events());
  if (scratch->lane.size() < nv) {
    scratch->lane.assign(nv, 0.0);
    scratch->filled.assign(nv, 0);
  }
  scratch->touched.clear();
  for (int64_t p = pool_begin; p < pool_end; ++p) {
    const EventId v = pool[p];
    if (scratch->filled[static_cast<size_t>(v)] == 0) {
      scratch->filled[static_cast<size_t>(v)] = 1;
      scratch->touched.push_back(v);
    }
  }
  // One batch call for the whole lane: the kernel hoists its per-user terms
  // (and the virtual dispatch) out of the per-event loop, then the values
  // scatter back into dense event-id slots.
  const int32_t n = static_cast<int32_t>(scratch->touched.size());
  scratch->lane_vals.resize(static_cast<size_t>(n));
  instance.kernel().PairWeightLane(instance, u, scratch->touched.data(), n,
                                   scratch->lane_vals.data());
  for (int32_t i = 0; i < n; ++i) {
    scratch->lane[static_cast<size_t>(scratch->touched[i])] =
        scratch->lane_vals[i];
  }
}

void ClearLane(ScoreScratch* scratch) {
  for (EventId v : scratch->touched) {
    scratch->filled[static_cast<size_t>(v)] = 0;
  }
}

/// Scores the contiguous column range [begin, end) of user u through the
/// instance's kernel, writing into weight[begin..end). The one place column
/// weights are ever computed — Build, delta re-enumeration and delta
/// re-scoring all funnel through here. SoA form: the per-event weight lane is
/// gathered once (one PairWeight per distinct event), then the kernel reduces
/// the CSR columns in batch — bit-identical to the span path, since the same
/// doubles are summed in the same left-to-right order.
void ScoreUserColumns(const Instance& instance, UserId u, int32_t begin,
                      int32_t end, const std::vector<EventId>& pool,
                      const std::vector<int64_t>& col_begin,
                      std::vector<double>* weight, ScoreScratch* scratch) {
  if (begin >= end) return;
  GatherLane(instance, u, pool.data(), col_begin[static_cast<size_t>(begin)],
             col_begin[static_cast<size_t>(end)], scratch);
  instance.kernel().ScoreColumnsSoA(
      instance, u, scratch->lane.data(), pool.data(),
      col_begin.data() + begin, end - begin, weight->data() + begin);
  ClearLane(scratch);
}

/// Like ScoreUserColumns but over a scattered (ascending) column-id list —
/// the weight-delta path re-scores exactly the touched columns, wherever
/// they live in the arena — and with u's lane already gathered into
/// `scratch` over every event of those columns. Spans are compacted into a
/// contiguous scratch CSR so the same SoA kernel entry point serves both
/// paths.
void ScoreColumnIds(const Instance& instance, UserId u,
                    const std::vector<int32_t>& cols,
                    const std::vector<EventId>& pool,
                    const std::vector<int64_t>& col_begin,
                    std::vector<double>* weight, ScoreScratch* scratch) {
  if (cols.empty()) return;
  scratch->cpool.clear();
  scratch->cbegin.clear();
  scratch->cbegin.push_back(0);
  for (int32_t j : cols) {
    const size_t b = static_cast<size_t>(col_begin[static_cast<size_t>(j)]);
    const size_t e =
        static_cast<size_t>(col_begin[static_cast<size_t>(j) + 1]);
    scratch->cpool.insert(scratch->cpool.end(), pool.data() + b,
                          pool.data() + e);
    scratch->cbegin.push_back(static_cast<int64_t>(scratch->cpool.size()));
  }
  scratch->scores.resize(cols.size());
  instance.kernel().ScoreColumnsSoA(
      instance, u, scratch->lane.data(), scratch->cpool.data(),
      scratch->cbegin.data(), static_cast<int32_t>(cols.size()),
      scratch->scores.data());
  for (size_t k = 0; k < cols.size(); ++k) {
    (*weight)[static_cast<size_t>(cols[k])] = scratch->scores[k];
  }
}

/// Per-thread enumeration output for one contiguous user chunk.
struct Shard {
  std::vector<EventId> pool;
  std::vector<int32_t> set_size;       // per emitted column
  std::vector<int32_t> sets_per_user;  // per user in the chunk
  std::vector<uint8_t> truncated;      // per user in the chunk
};

void EnumerateChunk(const Instance& instance, UserId begin, UserId end,
                    const AdmissibleOptions& options, Shard* shard) {
  shard->sets_per_user.reserve(static_cast<size_t>(end - begin));
  shard->truncated.reserve(static_cast<size_t>(end - begin));
  for (UserId u = begin; u < end; ++u) {
    ArenaEnumerator enumerator(instance, OrderedBids(instance, u),
                               instance.user_capacity(u),
                               options.max_sets_per_user, &shard->pool,
                               &shard->set_size);
    shard->sets_per_user.push_back(enumerator.Run());
    shard->truncated.push_back(enumerator.truncated() ? 1 : 0);
  }
}

}  // namespace

void AdmissibleCatalog::RebuildInvertedIndex(int32_t num_events) {
  const int32_t cols = static_cast<int32_t>(col_begin_.size()) - 1;
  // Counting sort over the pool. Filling in ascending column order leaves
  // each event's column list sorted.
  event_begin_.assign(static_cast<size_t>(num_events) + 1, 0);
  for (EventId v : pool_) ++event_begin_[static_cast<size_t>(v) + 1];
  for (int32_t v = 0; v < num_events; ++v) {
    event_begin_[static_cast<size_t>(v) + 1] +=
        event_begin_[static_cast<size_t>(v)];
  }
  event_cols_.resize(pool_.size());
  std::vector<int64_t> cursor(event_begin_.begin(), event_begin_.end() - 1);
  for (int32_t j = 0; j < cols; ++j) {
    for (int64_t p = col_begin_[static_cast<size_t>(j)];
         p < col_begin_[static_cast<size_t>(j) + 1]; ++p) {
      const EventId v = pool_[static_cast<size_t>(p)];
      event_cols_[static_cast<size_t>(cursor[static_cast<size_t>(v)]++)] = j;
    }
  }
}

void AdmissibleCatalog::FinalizeFromPool(const Instance& instance,
                                         ThreadPool* workers) {
  const int32_t nu = static_cast<int32_t>(user_begin_.size()) - 1;
  const int32_t nv = instance.num_events();
  const int32_t cols = static_cast<int32_t>(col_begin_.size()) - 1;

  // Owners, canonical span order and precomputed weights. Spans are sorted
  // ascending, then each user's block is scored in one batch through the
  // instance's utility kernel (the default kernel's left-to-right pair sum
  // reproduces the historical fused loop bit for bit). Users are independent
  // — every sort and weight write lands in that user's own slots — so the
  // sort+score sweep shards across the build pool with identical results for
  // any lane count.
  col_user_.resize(static_cast<size_t>(cols));
  weight_.resize(static_cast<size_t>(cols));
  for (UserId u = 0; u < nu; ++u) {
    for (int32_t j = user_begin_[static_cast<size_t>(u)];
         j < user_begin_[static_cast<size_t>(u) + 1]; ++j) {
      col_user_[static_cast<size_t>(j)] = u;
    }
  }
  const auto finalize_users = [&](int64_t ub, int64_t ue,
                                  ScoreScratch* scratch) {
    for (int64_t uu = ub; uu < ue; ++uu) {
      const auto u = static_cast<UserId>(uu);
      for (int32_t j = user_begin_[static_cast<size_t>(u)];
           j < user_begin_[static_cast<size_t>(u) + 1]; ++j) {
        EventId* b = pool_.data() + col_begin_[static_cast<size_t>(j)];
        EventId* e = pool_.data() + col_begin_[static_cast<size_t>(j) + 1];
        std::sort(b, e);
      }
      ScoreUserColumns(instance, u, user_begin_[static_cast<size_t>(u)],
                       user_begin_[static_cast<size_t>(u) + 1], pool_,
                       col_begin_, &weight_, scratch);
    }
  };
  if (workers != nullptr && workers->num_threads() > 1) {
    std::vector<ScoreScratch> scratches(
        static_cast<size_t>(workers->num_threads()));
    workers->ParallelFor(0, nu, /*grain=*/16,
                         [&](int32_t lane, int64_t b, int64_t e) {
                           finalize_users(b, e,
                                          &scratches[static_cast<size_t>(lane)]);
                         });
  } else {
    ScoreScratch scratch;
    finalize_users(0, nu, &scratch);
  }

  // Canonical state: current per-user ranges mirror the cumulative layout and
  // every delta structure is empty.
  user_range_.resize(static_cast<size_t>(nu) * 2);
  for (UserId u = 0; u < nu; ++u) {
    user_range_[static_cast<size_t>(u) * 2] =
        user_begin_[static_cast<size_t>(u)];
    user_range_[static_cast<size_t>(u) * 2 + 1] =
        user_begin_[static_cast<size_t>(u) + 1];
  }
  dead_.assign(static_cast<size_t>(cols), 0);
  dead_columns_ = 0;
  dead_pairs_ = 0;
  overflow_cols_.assign(static_cast<size_t>(nv), {});
  overflow_entries_ = 0;
  canonical_ = true;
  weight_revision_ = 0;

  truncated_users_ = 0;
  for (uint8_t t : truncated_) truncated_users_ += (t != 0) ? 1 : 0;

  RebuildInvertedIndex(nv);
}

AdmissibleCatalog AdmissibleCatalog::Build(const Instance& instance,
                                           const AdmissibleOptions& options) {
  const int32_t nu = instance.num_users();
  int32_t threads = ThreadPool::ResolveThreadCount(options.num_threads, nu);
  // Pool spawn cost dwarfs enumeration on small instances.
  if (nu < 256) threads = 1;

  // One chunk per lane; the deterministic concatenation below is in user
  // order regardless of chunking, so any thread count yields the same
  // catalog.
  std::vector<Shard> shards(static_cast<size_t>(threads));
  std::vector<UserId> chunk_begin(static_cast<size_t>(threads) + 1);
  for (int32_t c = 0; c <= threads; ++c) {
    chunk_begin[static_cast<size_t>(c)] =
        static_cast<UserId>(static_cast<int64_t>(nu) * c / threads);
  }
  // One pool serves enumeration AND the finalize sort+score sweep below —
  // the spawn is paid once per build.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  if (pool == nullptr) {
    EnumerateChunk(instance, 0, nu, options, &shards[0]);
  } else {
    pool->ParallelFor(0, threads, /*grain=*/1,
                      [&](int32_t, int64_t begin, int64_t end) {
                        for (int64_t c = begin; c < end; ++c) {
                          EnumerateChunk(instance,
                                         chunk_begin[static_cast<size_t>(c)],
                                         chunk_begin[static_cast<size_t>(c) + 1],
                                         options,
                                         &shards[static_cast<size_t>(c)]);
                        }
                      });
  }

  // Deterministic concatenation in user order, independent of thread count.
  AdmissibleCatalog out;
  size_t total_pool = 0;
  size_t total_cols = 0;
  for (const Shard& s : shards) {
    total_pool += s.pool.size();
    total_cols += s.set_size.size();
  }
  out.pool_.reserve(total_pool);
  out.col_begin_.reserve(total_cols + 1);  // already holds the leading 0
  out.user_begin_.reserve(static_cast<size_t>(nu) + 1);
  out.truncated_.reserve(static_cast<size_t>(nu));
  for (const Shard& s : shards) {
    out.pool_.insert(out.pool_.end(), s.pool.begin(), s.pool.end());
    for (int32_t size : s.set_size) {
      out.col_begin_.push_back(out.col_begin_.back() + size);
    }
    for (int32_t count : s.sets_per_user) {
      out.user_begin_.push_back(out.user_begin_.back() + count);
    }
    out.truncated_.insert(out.truncated_.end(), s.truncated.begin(),
                          s.truncated.end());
  }
  out.FinalizeFromPool(instance, pool.get());
  return out;
}

AdmissibleCatalog AdmissibleCatalog::FromSets(
    const Instance& instance,
    const std::vector<EnumeratedUserSets>& admissible) {
  AdmissibleCatalog out;
  size_t total_pool = 0;
  size_t total_cols = 0;
  for (const EnumeratedUserSets& a : admissible) {
    total_cols += a.sets.size();
    for (const auto& s : a.sets) total_pool += s.size();
  }
  out.pool_.reserve(total_pool);
  out.col_begin_.reserve(total_cols + 1);  // already holds the leading 0
  out.user_begin_.reserve(admissible.size() + 1);
  out.truncated_.reserve(admissible.size());
  for (const EnumeratedUserSets& a : admissible) {
    for (const auto& s : a.sets) {
      out.pool_.insert(out.pool_.end(), s.begin(), s.end());
      out.col_begin_.push_back(out.col_begin_.back() +
                               static_cast<int64_t>(s.size()));
    }
    out.user_begin_.push_back(out.user_begin_.back() +
                              static_cast<int32_t>(a.sets.size()));
    out.truncated_.push_back(a.truncated ? 1 : 0);
  }
  out.FinalizeFromPool(instance, /*workers=*/nullptr);
  return out;
}

Status AdmissibleCatalog::CheckShape(const Instance& instance) const {
  if (instance.num_users() == num_users() &&
      instance.num_events() == num_events()) {
    return Status::OK();
  }
  return Status::InvalidArgument(
      "catalog shape mismatch: catalog has " + std::to_string(num_users()) +
      " users x " + std::to_string(num_events()) + " events, instance has " +
      std::to_string(instance.num_users()) + " x " +
      std::to_string(instance.num_events()));
}

Result<CatalogDeltaResult> AdmissibleCatalog::ApplyDelta(
    const Instance& instance, const InstanceDelta& delta,
    const CatalogDeltaOptions& options) {
  const int32_t nu = num_users();
  const int32_t nv = num_events();
  // Deltas cannot add or remove user/event slots.
  IGEPA_RETURN_IF_ERROR(CheckShape(instance));
  IGEPA_RETURN_IF_ERROR(ValidateDelta(nv, nu, delta));
  CatalogDeltaResult result;
  result.touched_users = TouchedUsers(delta);
  ScoreScratch scratch;

  // Weight half (graph edges, interest drift): kernel re-scores in place.
  // Structure — spans, ids, user ranges, inverted index — is untouched, so
  // this never dirties the catalog. A degree move (graph edge) invalidates
  // every pair weight of both endpoints; interest drift on (v, u)
  // invalidates only u's columns whose span contains v. A weight change can
  // also reorder the user's bids, which OrderedBids sorts by pair weight,
  // and with them the user's column order (and, under max_sets_per_user,
  // which columns exist). Re-scoring such a user in place would keep a
  // layout that Build on the mutated instance does not emit, so a compacted
  // catalog — and every column id a checkpoint stores against it — would
  // diverge from a rebuilt one: such a user joins the registrations below.
  if (delta.has_weight_updates()) {
    // Sorted endpoint list rather than an O(num_users) flag vector: the
    // documented delta complexity is touched-only, and a typical weight
    // delta names a handful of users.
    std::vector<UserId> full_rescore;
    full_rescore.reserve(delta.graph_updates.size() * 2);
    for (const GraphEdgeUpdate& up : delta.graph_updates) {
      full_rescore.push_back(up.a);
      full_rescore.push_back(up.b);
    }
    std::sort(full_rescore.begin(), full_rescore.end());
    std::vector<std::pair<UserId, EventId>> drifts;
    drifts.reserve(delta.interest_updates.size());
    for (const InterestUpdate& up : delta.interest_updates) {
      drifts.emplace_back(up.user, up.event);
    }
    std::sort(drifts.begin(), drifts.end());
    drifts.erase(std::unique(drifts.begin(), drifts.end()), drifts.end());

    const size_t registered = result.touched_users.size();
    std::vector<int32_t> cols;
    for (UserId u : WeightTouchedUsers(delta)) {
      // Registered users are enumerated fresh against the mutated instance
      // below, which scores them with the weight updates included.
      if (std::binary_search(result.touched_users.begin(),
                             result.touched_users.begin() + registered, u)) {
        continue;
      }
      const size_t r = static_cast<size_t>(u) * 2;
      const int32_t begin = user_range_[r];
      const int32_t end = user_range_[r + 1];
      const bool full =
          std::binary_search(full_rescore.begin(), full_rescore.end(), u);
      cols.clear();
      if (!full) {
        const auto first = std::lower_bound(
            drifts.begin(), drifts.end(), std::make_pair(u, EventId{0}));
        for (int32_t j = begin; j < end; ++j) {
          const auto span = set(j);
          for (auto it = first; it != drifts.end() && it->first == u; ++it) {
            if (std::binary_search(span.begin(), span.end(), it->second)) {
              cols.push_back(j);
              break;
            }
          }
        }
      }
      const int32_t rescored =
          full ? end - begin : static_cast<int32_t>(cols.size());
      // Untruncated, every bid has a column (or the user has none), so no
      // column changing weight means no bid that matters did (e.g. interest
      // drift on a non-bid pair).
      if (rescored == 0 && truncated_[static_cast<size_t>(u)] == 0) continue;
      // One lane over the whole block serves the order check and the
      // re-score alike.
      GatherLane(instance, u, pool_.data(),
                 col_begin_[static_cast<size_t>(begin)],
                 col_begin_[static_cast<size_t>(end)], &scratch);
      const bool same_order =
          BidOrderUnchanged(*this, instance, u,
                            options.admissible.max_sets_per_user, scratch.lane);
      if (same_order && full) {
        instance.kernel().ScoreColumnsSoA(
            instance, u, scratch.lane.data(), pool_.data(),
            col_begin_.data() + begin, end - begin, weight_.data() + begin);
      } else if (same_order) {
        ScoreColumnIds(instance, u, cols, pool_, col_begin_, &weight_,
                       &scratch);
      }
      ClearLane(&scratch);
      if (!same_order) {
        result.touched_users.push_back(u);
        continue;
      }
      if (rescored == 0) continue;
      result.columns_rescored += rescored;
      result.rescored_users.push_back(u);
    }
    std::sort(result.touched_users.begin(), result.touched_users.end());
  }

  for (UserId u : result.touched_users) {
    // Tombstone the user's current block; the arena keeps the bytes so stale
    // column ids remain readable (set/weight) until compaction.
    const size_t r = static_cast<size_t>(u) * 2;
    for (int32_t j = user_range_[r]; j < user_range_[r + 1]; ++j) {
      dead_[static_cast<size_t>(j)] = 1;
      ++dead_columns_;
      dead_pairs_ += static_cast<int64_t>(set(j).size());
      ++result.columns_tombstoned;
    }

    // Re-enumerate against the mutated instance (same enumerator, same emit
    // order as Build) and append the new block at the arena end.
    std::vector<EventId> block_pool;
    std::vector<int32_t> block_sizes;
    ArenaEnumerator enumerator(instance, OrderedBids(instance, u),
                               instance.user_capacity(u),
                               options.admissible.max_sets_per_user,
                               &block_pool, &block_sizes);
    const int32_t count = enumerator.Run();
    if (truncated_[static_cast<size_t>(u)] != 0) --truncated_users_;
    truncated_[static_cast<size_t>(u)] = enumerator.truncated() ? 1 : 0;
    if (truncated_[static_cast<size_t>(u)] != 0) ++truncated_users_;

    const int32_t new_begin = num_columns();
    size_t cursor = 0;
    for (int32_t k = 0; k < count; ++k) {
      const auto size = static_cast<size_t>(block_sizes[static_cast<size_t>(k)]);
      const int32_t j = num_columns();
      pool_.insert(pool_.end(), block_pool.begin() + cursor,
                   block_pool.begin() + cursor + size);
      cursor += size;
      col_begin_.push_back(col_begin_.back() + static_cast<int64_t>(size));
      // Canonical span order, identical to FinalizeFromPool; the weight slot
      // is filled by the batch kernel call after the block is laid out.
      EventId* b = pool_.data() + col_begin_[static_cast<size_t>(j)];
      EventId* e = pool_.data() + col_begin_[static_cast<size_t>(j) + 1];
      std::sort(b, e);
      weight_.push_back(0.0);
      col_user_.push_back(u);
      dead_.push_back(0);
      // Patch the inverted index in place: appended ids are strictly
      // increasing, so each event's overflow list stays sorted.
      for (const EventId* p = b; p != e; ++p) {
        overflow_cols_[static_cast<size_t>(*p)].push_back(j);
        ++overflow_entries_;
      }
      ++result.columns_appended;
    }
    ScoreUserColumns(instance, u, new_begin, num_columns(), pool_, col_begin_,
                     &weight_, &scratch);
    user_range_[r] = new_begin;
    user_range_[r + 1] = num_columns();
  }

  if (!result.touched_users.empty()) canonical_ = false;
  if (result.columns_appended > 0 || result.columns_rescored > 0) {
    ++weight_revision_;
  }

  if (dead_columns_ >= options.compact_min_dead_columns &&
      static_cast<double>(dead_columns_) >
          options.compact_tombstone_fraction *
              static_cast<double>(num_columns())) {
    result.column_remap = Compact();
    result.compacted = true;
  }
  return result;
}

std::vector<int32_t> AdmissibleCatalog::Compact() {
  const int32_t nu = num_users();
  const int32_t nv = num_events();
  const int32_t old_cols = num_columns();
  const int32_t live_cols = num_live_columns();

  std::vector<int32_t> remap(static_cast<size_t>(old_cols), -1);
  std::vector<EventId> new_pool;
  new_pool.reserve(static_cast<size_t>(num_live_pairs()));
  std::vector<int64_t> new_col_begin;
  new_col_begin.reserve(static_cast<size_t>(live_cols) + 1);
  new_col_begin.push_back(0);
  std::vector<double> new_weight;
  new_weight.reserve(static_cast<size_t>(live_cols));
  std::vector<UserId> new_col_user;
  new_col_user.reserve(static_cast<size_t>(live_cols));

  // Live columns rewritten in user-major order, per-user order preserved —
  // exactly the layout Build emits for the mutated instance (spans are
  // already sorted and weights already summed in canonical order, so copying
  // them is bit-identical to recomputation).
  user_begin_.assign(1, 0);
  user_begin_.reserve(static_cast<size_t>(nu) + 1);
  for (UserId u = 0; u < nu; ++u) {
    const size_t r = static_cast<size_t>(u) * 2;
    for (int32_t j = user_range_[r]; j < user_range_[r + 1]; ++j) {
      const int32_t nj = static_cast<int32_t>(new_weight.size());
      remap[static_cast<size_t>(j)] = nj;
      const auto span = set(j);
      new_pool.insert(new_pool.end(), span.begin(), span.end());
      new_col_begin.push_back(new_col_begin.back() +
                              static_cast<int64_t>(span.size()));
      new_weight.push_back(weight_[static_cast<size_t>(j)]);
      new_col_user.push_back(u);
    }
    user_range_[r] = user_begin_.back();
    user_begin_.push_back(static_cast<int32_t>(new_weight.size()));
    user_range_[r + 1] = user_begin_.back();
  }

  pool_ = std::move(new_pool);
  col_begin_ = std::move(new_col_begin);
  weight_ = std::move(new_weight);
  col_user_ = std::move(new_col_user);
  dead_.assign(static_cast<size_t>(live_cols), 0);
  dead_columns_ = 0;
  dead_pairs_ = 0;
  overflow_cols_.assign(static_cast<size_t>(nv), {});
  overflow_entries_ = 0;
  canonical_ = true;
  ++ids_revision_;
  RebuildInvertedIndex(nv);
  return remap;
}

int32_t AdmissibleCatalog::Rescore(const Instance& instance,
                                   int32_t num_threads) {
  const int32_t nu = num_users();
  const auto rescore_users = [&](int64_t ub, int64_t ue,
                                 ScoreScratch* scratch) {
    for (int64_t uu = ub; uu < ue; ++uu) {
      const size_t r = static_cast<size_t>(uu) * 2;
      ScoreUserColumns(instance, static_cast<UserId>(uu), user_range_[r],
                       user_range_[r + 1], pool_, col_begin_, &weight_,
                       scratch);
    }
  };
  const int32_t threads =
      nu >= 256 ? ThreadPool::ResolveThreadCount(
                      num_threads > 0 ? num_threads : 1, nu)
                : 1;
  if (threads > 1) {
    ThreadPool pool(threads);
    std::vector<ScoreScratch> scratches(static_cast<size_t>(threads));
    pool.ParallelFor(0, nu, /*grain=*/16,
                     [&](int32_t lane, int64_t b, int64_t e) {
                       rescore_users(b, e,
                                     &scratches[static_cast<size_t>(lane)]);
                     });
  } else {
    ScoreScratch scratch;
    rescore_users(0, nu, &scratch);
  }
  int32_t rescored = 0;
  for (UserId u = 0; u < nu; ++u) {
    const size_t r = static_cast<size_t>(u) * 2;
    rescored += user_range_[r + 1] - user_range_[r];
  }
  if (rescored > 0) ++weight_revision_;
  return rescored;
}

}  // namespace core
}  // namespace igepa
