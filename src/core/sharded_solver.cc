#include "core/sharded_solver.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "core/lp_packing.h"
#include "core/polish_order.h"
#include "core/shard_residency.h"
#include "core/utility_kernel.h"
#include "io/catalog_spill.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace igepa {
namespace core {
namespace {

/// Level-2 coordination: target certified relative duality gap on the global
/// benchmark LP, and its iteration budget.
constexpr double kCoordinationGap = 0.01;
constexpr int64_t kCoordinationMaxIterations = 3000;

/// Interest/interaction adapters that serve a shard's local user ids by
/// delegating to the parent instance at `base + local_u` — overlays
/// (UpdateInterest drift) included, so shard catalogs score exactly the
/// weights the monolithic catalog would. The parent is borrowed: shard
/// instances never outlive the ShardedSolve call.
class ShardInterestFn final : public interest::InterestFn {
 public:
  ShardInterestFn(const Instance* parent, UserId base, int32_t num_local)
      : parent_(parent), base_(base), num_local_(num_local) {}
  int32_t num_events() const override { return parent_->num_events(); }
  int32_t num_users() const override { return num_local_; }
  double Interest(int32_t event, int32_t user) const override {
    return parent_->Interest(event, base_ + user);
  }

 private:
  const Instance* parent_;
  UserId base_;
  int32_t num_local_;
};

class ShardInteractionModel final : public graph::InteractionModel {
 public:
  ShardInteractionModel(const Instance* parent, UserId base, int32_t num_local)
      : parent_(parent), base_(base), num_local_(num_local) {}
  int32_t num_users() const override { return num_local_; }
  double Degree(int32_t user) const override {
    return parent_->Degree(base_ + user);
  }

 private:
  const Instance* parent_;
  UserId base_;
  int32_t num_local_;
};

/// Global greedy-polish order: one entry per catalog column across every
/// shard, sorted heaviest first with a unique (owner, shard, column) tiebreak
/// so the order — and therefore the polish — is deterministic.
struct ColumnRef {
  double weight;
  UserId global_user;
  int32_t shard;
  int32_t col;
};

/// Reorders `refs` in place so that refs[k] becomes the old refs[order[k]],
/// walking each cycle of the permutation once. Leaves `order` as the
/// identity.
void PermuteInPlace(std::vector<int32_t>* order, std::vector<ColumnRef>* refs) {
  for (size_t i = 0; i < order->size(); ++i) {
    if ((*order)[i] == static_cast<int32_t>(i)) continue;
    const ColumnRef first = (*refs)[i];
    size_t j = i;
    for (;;) {
      const auto k = static_cast<size_t>((*order)[j]);
      (*order)[j] = static_cast<int32_t>(j);
      if (k == i) {
        (*refs)[j] = first;
        break;
      }
      (*refs)[j] = (*refs)[k];
      j = k;
    }
  }
}

/// One level-1 unit: a contiguous user range with its own sub-instance,
/// catalog and warm-dual state. On the spill path the catalog (and the
/// sub-instance) are dropped right after level 1; everything level 2 needs —
/// column count, widest user range, polish refs, the spill section index —
/// is collected from Lanes() first.
struct Shard {
  UserId user_begin = 0;
  UserId user_end = 0;
  std::unique_ptr<Instance> instance;
  std::unique_ptr<AdmissibleCatalog> catalog;  // null once spilled
  DualWarmStart warm;
  int64_t level1_iterations = 0;
  int32_t num_columns = 0;
  int32_t max_user_cols = 0;
  double wmax = 0.0;
  std::vector<ColumnRef> refs;  // merged into by_weight, then freed
  int32_t spill_index = -1;

  int32_t num_local_users() const { return user_end - user_begin; }
};

/// Bounds how many shards may hold an in-RAM catalog at once during the
/// budgeted level-1 pipeline: a worker acquires a slot before building a
/// shard's instance + catalog and releases it after the shard is spilled and
/// dropped, so even the build phase never holds more than
/// ~(budget / one-shard-footprint) catalogs simultaneously.
class CountingGate {
 public:
  explicit CountingGate(int32_t slots) : available_(slots) {}
  void Acquire() {
    std::unique_lock<std::mutex> lock(mutex_);
    slot_free_.wait(lock, [&] { return available_ > 0; });
    --available_;
  }
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++available_;
    }
    slot_free_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable slot_free_;
  int32_t available_;
};

std::string MakeSpillPath(const std::string& dir) {
  static std::atomic<uint64_t> counter{0};
  std::string base = dir;
  if (base.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    base = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  }
  return base + "/igepa-cat-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".spill";
}

/// Sequential side stream for the greedy polish, spill mode only. The polish
/// walks every column in global weight order, which hops shards on almost
/// every step — for the LRU residency manager that is the pathological cyclic
/// scan (measured ~100% miss under tight budgets, tens of millions of
/// remaps). But the event set each ref needs is fixed before coordination
/// starts, so the spill path writes them once, shard-major, as `[len, ev...]`
/// int32 rows in by_weight order, and every extraction streams the rows back
/// through one small buffer with zero residency traffic.
struct PolishStream {
  int fd = -1;
  ~PolishStream() {
    if (fd >= 0) ::close(fd);
  }
};

class PolishRowReader {
 public:
  explicit PolishRowReader(int fd) : fd_(fd), buf_(1 << 20) {}

  void Rewind() {
    begin_ = 0;
    end_ = 0;
    off_ = 0;
  }

  /// The next row's events; the pointer stays valid until the next call.
  Result<std::span<const EventId>> NextRow() {
    IGEPA_ASSIGN_OR_RETURN(const int32_t* head, Take(1));
    const int32_t len = *head;
    // Take(1 + len) keeps the already-consumed length word in the window so
    // the events land right behind it even when Fill compacts the buffer.
    begin_ -= sizeof(int32_t);
    IGEPA_ASSIGN_OR_RETURN(const int32_t* row, Take(1 + len));
    return std::span<const EventId>(row + 1, static_cast<size_t>(len));
  }

 private:
  Result<const int32_t*> Take(int32_t words) {
    const size_t need = static_cast<size_t>(words) * sizeof(int32_t);
    if (end_ - begin_ < need) IGEPA_RETURN_IF_ERROR(Fill(need));
    const int32_t* p = reinterpret_cast<const int32_t*>(buf_.data() + begin_);
    begin_ += need;
    return p;
  }

  Status Fill(size_t need) {
    std::memmove(buf_.data(), buf_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (buf_.size() < need) buf_.resize(need);
    while (end_ < need) {
      const ssize_t n =
          ::pread(fd_, buf_.data() + end_, buf_.size() - end_, off_);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("polish stream read failed");
      }
      if (n == 0) return Status::IOError("polish stream truncated");
      end_ += static_cast<size_t>(n);
      off_ += n;
    }
    return Status::OK();
  }

  int fd_;
  std::vector<uint8_t> buf_;
  size_t begin_ = 0;
  size_t end_ = 0;
  off_t off_ = 0;
};

/// The satellite-6 rejection: a budget below one shard's measured catalog
/// footprint can never satisfy the residency bound, so name the minimum.
Status BudgetTooSmall(uint64_t budget_bytes, uint64_t footprint_bytes) {
  const uint64_t min_mb = (footprint_bytes + (uint64_t{1} << 20) - 1) >> 20;
  return Status::InvalidArgument(
      "memory budget (" + std::to_string(budget_bytes) +
      " bytes) is below one shard's catalog footprint; this run needs at "
      "least " +
      std::to_string(footprint_bytes) + " bytes — pass --memory-budget-mb " +
      std::to_string(min_mb) + " or more, or use fewer users per shard");
}

Status ValidateOptions(const ShardedSolveOptions& options) {
  if (options.users_per_shard < 1) {
    return Status::InvalidArgument("users_per_shard must be >= 1");
  }
  if (options.num_shards < 0) {
    return Status::InvalidArgument("num_shards must be >= 0");
  }
  if (!(options.alpha > 0.0 && options.alpha <= 1.0)) {
    return Status::InvalidArgument("alpha must be in (0, 1]");
  }
  return Status::OK();
}

}  // namespace

std::vector<UserId> ShardUserBounds(int32_t num_users,
                                    const ShardedSolveOptions& options) {
  if (num_users <= 0) return {0};
  const int32_t per = std::max(1, options.users_per_shard);
  int32_t k = options.num_shards > 0 ? options.num_shards
                                     : (num_users + per - 1) / per;
  k = std::clamp(k, 1, num_users);
  // Balanced contiguous partition: the first (num_users mod k) shards carry
  // one extra user. A pure function of (num_users, k).
  std::vector<UserId> bounds(static_cast<size_t>(k) + 1, 0);
  const int32_t base = num_users / k;
  const int32_t extra = num_users % k;
  for (int32_t s = 0; s < k; ++s) {
    bounds[static_cast<size_t>(s) + 1] =
        bounds[static_cast<size_t>(s)] + base + (s < extra ? 1 : 0);
  }
  return bounds;
}

Result<Arrangement> ShardedSolve(const Instance& instance, Rng* rng,
                                 const ShardedSolveOptions& options,
                                 ShardedSolveStats* stats) {
  IGEPA_RETURN_IF_ERROR(ValidateOptions(options));
  if (rng == nullptr) return Status::InvalidArgument("rng must not be null");
  const int32_t nv = instance.num_events();
  const int32_t nu = instance.num_users();
  if (nu == 0 || nv == 0) return Arrangement(nv, nu);

  const std::vector<UserId> bounds = ShardUserBounds(nu, options);
  const int32_t num_shards = static_cast<int32_t>(bounds.size()) - 1;
  ThreadPool* pool = options.workers;
  std::unique_ptr<ThreadPool> owned_pool;
  if (pool == nullptr) {
    owned_pool = std::make_unique<ThreadPool>(
        ThreadPool::ResolveThreadCount(options.num_threads, num_shards));
    pool = owned_pool.get();
  }

  // The spill file exists only as a kept fd: unlinking right after Create
  // means no exit path — early error, crash, or success — leaves a file
  // behind, while Append/Seal/Map keep working through the descriptor.
  const bool budgeted = options.memory_budget_bytes > 0;
  std::optional<io::CatalogSpill> spill;
  if (budgeted) {
    IGEPA_ASSIGN_OR_RETURN(
        io::CatalogSpill created,
        io::CatalogSpill::Create(MakeSpillPath(options.spill_dir)));
    spill.emplace(std::move(created));
    ::unlink(spill->path().c_str());
  }

  // ---- Level 1: independent per-shard catalogs + warm solves. --------------
  // Shard instances see 1/K-scaled event capacities (capacity only feeds the
  // LP rows, never the admissible-set enumeration), so each shard prices its
  // fair slice of every event and the averaged duals land near the global
  // clearing prices. Everything level 2 needs beyond the lanes themselves
  // (column count, polish refs, wmax, widest user range) is collected here,
  // while the catalog is still in RAM; on the spill path the catalog and the
  // sub-instance are then dropped.
  IGEPA_ASSIGN_OR_RETURN(
      std::shared_ptr<const UtilityKernel> kernel,
      MakeUtilityKernel(instance.kernel().id()));
  std::vector<Shard> shards(static_cast<size_t>(num_shards));
  const auto level1_shard = [&](int32_t si) -> Status {
    Shard& shard = shards[static_cast<size_t>(si)];
    shard.user_begin = bounds[static_cast<size_t>(si)];
    shard.user_end = bounds[static_cast<size_t>(si) + 1];
    const int32_t local = shard.num_local_users();
    std::vector<EventDef> events(static_cast<size_t>(nv));
    for (EventId v = 0; v < nv; ++v) {
      events[static_cast<size_t>(v)].capacity =
          (instance.event_capacity(v) + num_shards - 1) / num_shards;
    }
    std::vector<UserDef> users(static_cast<size_t>(local));
    for (int32_t lu = 0; lu < local; ++lu) {
      const UserId gu = shard.user_begin + lu;
      users[static_cast<size_t>(lu)].capacity = instance.user_capacity(gu);
      users[static_cast<size_t>(lu)].bids = instance.bids(gu);
    }
    shard.instance = std::make_unique<Instance>(
        std::move(events), std::move(users), instance.conflict_ptr(),
        std::make_shared<ShardInterestFn>(&instance, shard.user_begin, local),
        std::make_shared<ShardInteractionModel>(&instance, shard.user_begin,
                                                local),
        instance.beta());
    shard.instance->set_kernel(kernel);
    IGEPA_RETURN_IF_ERROR(shard.instance->Validate());
    AdmissibleOptions admissible = options.admissible;
    admissible.num_threads = 1;  // shards are the parallel unit
    shard.catalog = std::make_unique<AdmissibleCatalog>(
        AdmissibleCatalog::Build(*shard.instance, admissible));
    StructuredDualOptions level1 = options.level1;
    level1.num_threads = 1;
    level1.workers = nullptr;
    level1.warm = nullptr;
    auto solved = SolveBenchmarkLpStructured(*shard.instance, *shard.catalog,
                                             level1, &shard.warm);
    IGEPA_RETURN_IF_ERROR(solved.status());
    shard.level1_iterations = solved->iterations;

    const CatalogLanes lanes = shard.catalog->Lanes();
    shard.num_columns = lanes.num_columns;
    for (int32_t lu = 0; lu < local; ++lu) {
      shard.max_user_cols =
          std::max(shard.max_user_cols,
                   lanes.user_columns_end(lu) - lanes.user_columns_begin(lu));
    }
    shard.refs.reserve(static_cast<size_t>(lanes.num_columns));
    for (int32_t j = 0; j < lanes.num_columns; ++j) {
      const double w = lanes.weight[j];
      shard.wmax = std::max(shard.wmax, w);
      shard.refs.push_back(
          ColumnRef{w, shard.user_begin + lanes.user_of(j), si, j});
    }
    if (spill) {
      IGEPA_ASSIGN_OR_RETURN(shard.spill_index, spill->Append(lanes));
      shard.catalog.reset();
      shard.instance.reset();
    }
    return Status::OK();
  };

  std::vector<Status> shard_status(static_cast<size_t>(num_shards),
                                   Status::OK());
  if (budgeted) {
    // Shard 0 runs serially first to measure one shard's catalog footprint:
    // it rejects hopeless budgets before K−1 more builds, and it sizes the
    // gate that keeps the build phase itself inside the budget.
    IGEPA_RETURN_IF_ERROR(level1_shard(0));
    const uint64_t first_footprint =
        std::max<uint64_t>(spill->section_bytes(shards[0].spill_index), 1);
    if (options.memory_budget_bytes < first_footprint) {
      return BudgetTooSmall(options.memory_budget_bytes, first_footprint);
    }
    CountingGate gate(static_cast<int32_t>(std::clamp<uint64_t>(
        options.memory_budget_bytes / first_footprint, 1,
        static_cast<uint64_t>(num_shards))));
    pool->ParallelFor(1, num_shards, 1, [&](int32_t, int64_t b, int64_t e) {
      for (int64_t si = b; si < e; ++si) {
        gate.Acquire();
        shard_status[static_cast<size_t>(si)] =
            level1_shard(static_cast<int32_t>(si));
        gate.Release();
      }
    });
  } else {
    pool->ParallelFor(0, num_shards, 1, [&](int32_t, int64_t b, int64_t e) {
      for (int64_t si = b; si < e; ++si) {
        shard_status[static_cast<size_t>(si)] =
            level1_shard(static_cast<int32_t>(si));
      }
    });
  }
  for (const Status& s : shard_status) {
    IGEPA_RETURN_IF_ERROR(s);
  }
  if (spill) {
    IGEPA_RETURN_IF_ERROR(spill->Seal());
    // Shard 0 bounded the budget from below; the exact requirement is the
    // largest section, known only now.
    if (options.memory_budget_bytes < spill->max_section_bytes()) {
      return BudgetTooSmall(options.memory_budget_bytes,
                            spill->max_section_bytes());
    }
  }

  // Merge the per-shard metadata in shard index order.
  int64_t total_columns = 0;
  int64_t level1_iterations = 0;
  int32_t max_user_cols = 0;
  double wmax = 0.0;
  for (const Shard& shard : shards) {
    total_columns += shard.num_columns;
    level1_iterations += shard.level1_iterations;
    max_user_cols = std::max(max_user_cols, shard.max_user_cols);
    wmax = std::max(wmax, shard.wmax);
  }
  if (stats != nullptr) {
    *stats = ShardedSolveStats{};
    stats->num_shards = num_shards;
    stats->num_columns = static_cast<int32_t>(total_columns);
    stats->level1_iterations = level1_iterations;
    if (spill) {
      stats->spill_bytes = spill->total_bytes();
      stats->shard_footprint_bytes = spill->max_section_bytes();
    }
  }
  if (total_columns == 0) return Arrangement(nv, nu);

  std::vector<ColumnRef> by_weight;
  by_weight.reserve(static_cast<size_t>(total_columns));
  for (Shard& shard : shards) {
    by_weight.insert(by_weight.end(), shard.refs.begin(), shard.refs.end());
    std::vector<ColumnRef>().swap(shard.refs);
  }
  // Shards own ascending user ranges and list their columns user-major, so
  // the concatenation is in (owner, col) order and the stable weight sort
  // yields the total (weight desc, owner, col) order. It sorts positions and
  // then permutes the refs in place, so its scratch is 8 bytes per column
  // rather than a second copy of the refs.
  std::vector<int32_t> order(by_weight.size());
  std::iota(order.begin(), order.end(), 0);
  SortByWeightDescending(&order, [&](int32_t k) {
    return by_weight[static_cast<size_t>(k)].weight;
  });
  PermuteInPlace(&order, &by_weight);
  if (wmax <= 0.0) wmax = 1.0;

  // ---- Catalog access: one lane contract for both residency modes. ---------
  // In-memory shards serve AdmissibleCatalog::Lanes(); spilled shards serve
  // mmapped CatalogView lanes through the LRU residency manager. Level 2,
  // extraction and legalize only ever see CatalogLanes, so eviction/repage
  // cannot change a bit of the result.
  std::optional<ShardResidency> residency;
  if (spill) residency.emplace(&*spill, options.memory_budget_bytes);
  std::vector<CatalogLanes> inmem_lanes(static_cast<size_t>(num_shards));
  if (!spill) {
    for (int32_t si = 0; si < num_shards; ++si) {
      inmem_lanes[static_cast<size_t>(si)] =
          shards[static_cast<size_t>(si)].catalog->Lanes();
    }
  }
  // Serial-context accessor (extraction, legalize): holds one lease at a
  // time and reuses it across consecutive calls for the same shard, so
  // shard-major passes page each shard in at most once.
  ShardResidency::Lease serial_lease;
  int32_t serial_shard = -1;
  const auto lanes_of = [&](int32_t si) -> Result<const CatalogLanes*> {
    if (!residency) return &inmem_lanes[static_cast<size_t>(si)];
    if (serial_shard != si) {
      serial_lease.Release();
      auto lease =
          residency->Acquire(shards[static_cast<size_t>(si)].spill_index);
      if (!lease.ok()) return lease.status();
      serial_lease = std::move(lease).value();
      serial_shard = si;
    }
    return &serial_lease.lanes();
  };

  // Spill mode: lay the polish rows out on disk before level-2 state is
  // allocated, so the build transients (rank map, offsets, image) do not
  // stack on top of the coordination vectors. Two shard-major passes — sizes,
  // then fill — cost one lease acquire per shard each.
  PolishStream polish;
  std::optional<PolishRowReader> polish_reader;
  if (residency) {
    std::vector<std::vector<int32_t>> rank(static_cast<size_t>(num_shards));
    for (int32_t si = 0; si < num_shards; ++si) {
      rank[static_cast<size_t>(si)].resize(
          static_cast<size_t>(shards[static_cast<size_t>(si)].num_columns));
    }
    for (size_t k = 0; k < by_weight.size(); ++k) {
      rank[static_cast<size_t>(by_weight[k].shard)]
          [static_cast<size_t>(by_weight[k].col)] = static_cast<int32_t>(k);
    }
    std::vector<int64_t> row_off(by_weight.size() + 1, 0);
    for (int32_t si = 0; si < num_shards; ++si) {
      IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
      const auto& shard_rank = rank[static_cast<size_t>(si)];
      for (int32_t c = 0; c < shards[static_cast<size_t>(si)].num_columns;
           ++c) {
        row_off[static_cast<size_t>(shard_rank[static_cast<size_t>(c)]) + 1] =
            1 + static_cast<int64_t>(lanes->set(c).size());
      }
    }
    for (size_t k = 1; k < row_off.size(); ++k) {
      row_off[k] += row_off[k - 1];
    }
    std::vector<int32_t> image(static_cast<size_t>(row_off.back()));
    for (int32_t si = 0; si < num_shards; ++si) {
      IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
      const auto& shard_rank = rank[static_cast<size_t>(si)];
      for (int32_t c = 0; c < shards[static_cast<size_t>(si)].num_columns;
           ++c) {
        const std::span<const EventId> set = lanes->set(c);
        int64_t w = row_off[static_cast<size_t>(
            shard_rank[static_cast<size_t>(c)])];
        image[static_cast<size_t>(w)] = static_cast<int32_t>(set.size());
        std::copy(set.begin(), set.end(),
                  image.begin() + static_cast<size_t>(w) + 1);
      }
    }
    serial_lease.Release();
    serial_shard = -1;
    std::vector<std::vector<int32_t>>().swap(rank);
    std::vector<int64_t>().swap(row_off);

    const std::string polish_path = MakeSpillPath(options.spill_dir);
    polish.fd =
        ::open(polish_path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC,
               0600);
    if (polish.fd < 0) {
      return Status::IOError("cannot create polish stream file " +
                             polish_path);
    }
    ::unlink(polish_path.c_str());
    const auto* bytes = reinterpret_cast<const uint8_t*>(image.data());
    const size_t total = image.size() * sizeof(int32_t);
    size_t written = 0;
    while (written < total) {
      const ssize_t n = ::write(polish.fd, bytes + written, total - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("polish stream write failed");
      }
      written += static_cast<size_t>(n);
    }
    polish_reader.emplace(polish.fd);
  }

  // ---- Level 2: coordinate the shared event prices. ------------------------
  // Seed μ with the shard-average of the level-1 duals (summed in shard
  // order) and run projected subgradient descent on the global Lagrangian,
  // whose oracle term decomposes exactly across shards.
  std::vector<double> caps(static_cast<size_t>(nv));
  for (EventId v = 0; v < nv; ++v) {
    caps[static_cast<size_t>(v)] =
        static_cast<double>(instance.event_capacity(v));
  }
  std::vector<double> mu(static_cast<size_t>(nv), 0.0);
  for (const Shard& shard : shards) {
    for (EventId v = 0; v < nv; ++v) {
      mu[static_cast<size_t>(v)] += shard.warm.mu[static_cast<size_t>(v)];
    }
  }
  for (double& m : mu) m /= static_cast<double>(num_shards);

  // Per-shard working state; every cross-shard reduction merges these in
  // shard index order, which is what pins bit-identity at any thread count.
  std::vector<std::vector<int32_t>> choice(static_cast<size_t>(num_shards));
  std::vector<std::vector<int64_t>> count(static_cast<size_t>(num_shards));
  std::vector<std::vector<double>> usage(static_cast<size_t>(num_shards));
  std::vector<std::vector<double>> x(static_cast<size_t>(num_shards));
  std::vector<std::vector<double>> best_x(static_cast<size_t>(num_shards));
  std::vector<double> partial(static_cast<size_t>(num_shards), 0.0);
  std::vector<std::vector<double>> musum(static_cast<size_t>(num_shards));
  for (int32_t si = 0; si < num_shards; ++si) {
    const int32_t cols = shards[static_cast<size_t>(si)].num_columns;
    choice[static_cast<size_t>(si)].assign(
        static_cast<size_t>(shards[static_cast<size_t>(si)].num_local_users()),
        -1);
    count[static_cast<size_t>(si)].assign(static_cast<size_t>(cols), 0);
    usage[static_cast<size_t>(si)].assign(static_cast<size_t>(nv), 0.0);
    x[static_cast<size_t>(si)].assign(static_cast<size_t>(cols), 0.0);
    best_x[static_cast<size_t>(si)].assign(static_cast<size_t>(cols), 0.0);
    musum[static_cast<size_t>(si)].assign(
        static_cast<size_t>(std::max(1, max_user_cols)), 0.0);
  }
  std::vector<double> used(static_cast<size_t>(nv), 0.0);
  std::vector<double> factor(static_cast<size_t>(nv), 1.0);
  std::vector<double> user_mass(static_cast<size_t>(nu), 0.0);

  double best_ub = std::numeric_limits<double>::infinity();
  double best_primal = -std::numeric_limits<double>::infinity();
  double gap = std::numeric_limits<double>::infinity();
  int64_t avg_started_at = 1;
  int64_t iterations_run = 0;

  // Fractional extraction: suffix-averaged choice frequencies, scaled down
  // on overloaded events (each column by the min factor over its events, so
  // post-scale usage provably fits), then greedily polished heaviest-first.
  const auto extract_primal = [&](int64_t avg_count) -> Result<double> {
    std::fill(used.begin(), used.end(), 0.0);
    std::fill(user_mass.begin(), user_mass.end(), 0.0);
    for (int32_t si = 0; si < num_shards; ++si) {
      const Shard& shard = shards[static_cast<size_t>(si)];
      IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
      auto& xs = x[static_cast<size_t>(si)];
      const auto& cs = count[static_cast<size_t>(si)];
      for (int32_t j = 0; j < shard.num_columns; ++j) {
        xs[static_cast<size_t>(j)] =
            static_cast<double>(cs[static_cast<size_t>(j)]) /
            static_cast<double>(avg_count);
        for (EventId v : lanes->set(j)) {
          used[static_cast<size_t>(v)] += xs[static_cast<size_t>(j)];
        }
      }
    }
    for (EventId v = 0; v < nv; ++v) {
      factor[static_cast<size_t>(v)] =
          used[static_cast<size_t>(v)] > caps[static_cast<size_t>(v)]
              ? caps[static_cast<size_t>(v)] / used[static_cast<size_t>(v)]
              : 1.0;
    }
    std::fill(used.begin(), used.end(), 0.0);
    for (int32_t si = 0; si < num_shards; ++si) {
      const Shard& shard = shards[static_cast<size_t>(si)];
      IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
      auto& xs = x[static_cast<size_t>(si)];
      for (int32_t j = 0; j < shard.num_columns; ++j) {
        if (xs[static_cast<size_t>(j)] <= 0.0) continue;
        double f = 1.0;
        for (EventId v : lanes->set(j)) {
          f = std::min(f, factor[static_cast<size_t>(v)]);
        }
        xs[static_cast<size_t>(j)] *= f;
        const UserId gu = shard.user_begin + lanes->user_of(j);
        user_mass[static_cast<size_t>(gu)] += xs[static_cast<size_t>(j)];
        for (EventId v : lanes->set(j)) {
          used[static_cast<size_t>(v)] += xs[static_cast<size_t>(j)];
        }
      }
    }
    // Spill mode reads each ref's event set from the sequential polish
    // stream (the weight-ordered walk is a cyclic scan over shards — LRU's
    // worst case); in-memory mode reads the same values from the lanes. The
    // stream must advance one row per ref, even refs the lane-free bounds
    // reject.
    if (polish_reader) polish_reader->Rewind();
    for (const ColumnRef& ref : by_weight) {
      std::span<const EventId> set;
      if (polish_reader) {
        IGEPA_ASSIGN_OR_RETURN(set, polish_reader->NextRow());
      }
      double& xj = x[static_cast<size_t>(ref.shard)][static_cast<size_t>(
          ref.col)];
      double room = std::min(1.0 - xj,
                             1.0 - user_mass[static_cast<size_t>(
                                       ref.global_user)]);
      if (room <= 1e-12) continue;
      if (!polish_reader) {
        IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes,
                               lanes_of(ref.shard));
        set = lanes->set(ref.col);
      }
      for (EventId v : set) {
        room = std::min(room, caps[static_cast<size_t>(v)] -
                                  used[static_cast<size_t>(v)]);
        if (room <= 1e-12) break;
      }
      if (room <= 1e-12) continue;
      xj += room;
      user_mass[static_cast<size_t>(ref.global_user)] += room;
      for (EventId v : set) {
        used[static_cast<size_t>(v)] += room;
      }
    }
    double objective = 0.0;
    for (int32_t si = 0; si < num_shards; ++si) {
      const Shard& shard = shards[static_cast<size_t>(si)];
      IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
      double shard_obj = 0.0;
      for (int32_t j = 0; j < shard.num_columns; ++j) {
        shard_obj += lanes->weight[j] *
                     x[static_cast<size_t>(si)][static_cast<size_t>(j)];
      }
      objective += shard_obj;
    }
    return objective;
  };

  std::vector<Status> sweep_status(static_cast<size_t>(num_shards),
                                   Status::OK());
  for (int64_t t = 1; t <= kCoordinationMaxIterations; ++t) {
    iterations_run = t;
    // The serial accessor's lease must drop before the parallel sweep: at
    // max_pinned == 1 a pin held across the ParallelFor would block every
    // sweep worker's Acquire forever while the main thread waits on them.
    serial_lease.Release();
    serial_shard = -1;
    // Oracle sweep, one shard per work item: SIMD-batched μ sums over each
    // user's columns, first-best argmax (ties → lowest column id). Each
    // worker pins at most one spilled shard at a time and releases it before
    // the next, so the sweep itself cannot deadlock on the residency budget
    // even at max_pinned == 1.
    pool->ParallelFor(0, num_shards, 1, [&](int32_t, int64_t b, int64_t e) {
      for (int64_t si = b; si < e; ++si) {
        const Shard& shard = shards[static_cast<size_t>(si)];
        ShardResidency::Lease lease;
        const CatalogLanes* lanes;
        if (residency) {
          auto acquired = residency->Acquire(shard.spill_index);
          if (!acquired.ok()) {
            sweep_status[static_cast<size_t>(si)] = acquired.status();
            continue;
          }
          lease = std::move(acquired).value();
          lanes = &lease.lanes();
        } else {
          lanes = &inmem_lanes[static_cast<size_t>(si)];
        }
        const int32_t* cat_pool = lanes->pool;
        const int64_t* col_begin = lanes->col_begin;
        const double* weights = lanes->weight;
        auto& shard_choice = choice[static_cast<size_t>(si)];
        auto& shard_count = count[static_cast<size_t>(si)];
        auto& shard_usage = usage[static_cast<size_t>(si)];
        double& shard_partial = partial[static_cast<size_t>(si)];
        double* scratch = musum[static_cast<size_t>(si)].data();
        shard_partial = 0.0;
        std::fill(shard_usage.begin(), shard_usage.end(), 0.0);
        for (int32_t lu = 0; lu < shard.num_local_users(); ++lu) {
          const int32_t begin = lanes->user_columns_begin(lu);
          const int32_t span = lanes->user_columns_end(lu) - begin;
          int32_t best_col = -1;
          double best = 0.0;
          if (span > 0) {
            util::simd::SumColumnLanes(mu.data(), cat_pool, col_begin + begin,
                                       span, scratch);
            for (int32_t k = 0; k < span; ++k) {
              const double value = weights[begin + k] - scratch[k];
              if (value > best) {
                best = value;
                best_col = begin + k;
              }
            }
          }
          shard_choice[static_cast<size_t>(lu)] = best_col;
          if (best_col >= 0) {
            shard_partial += best;
            shard_count[static_cast<size_t>(best_col)] += 1;
            for (EventId v : lanes->set(best_col)) {
              shard_usage[static_cast<size_t>(v)] += 1.0;
            }
          }
        }
      }
    });
    for (const Status& s : sweep_status) {
      IGEPA_RETURN_IF_ERROR(s);
    }

    // Merge in shard order: the Lagrangian value and the usage subgradient.
    double lagrangian = 0.0;
    for (EventId v = 0; v < nv; ++v) {
      lagrangian += caps[static_cast<size_t>(v)] * mu[static_cast<size_t>(v)];
    }
    for (int32_t si = 0; si < num_shards; ++si) {
      lagrangian += partial[static_cast<size_t>(si)];
    }
    best_ub = std::min(best_ub, lagrangian);

    bool done = false;
    if (t % kGapCheckEvery == 0 || t == 1 ||
        t == kCoordinationMaxIterations) {
      const int64_t avg_count = t - avg_started_at + 1;
      IGEPA_ASSIGN_OR_RETURN(const double objective,
                             extract_primal(avg_count));
      if (objective > best_primal) {
        best_primal = objective;
        for (int32_t si = 0; si < num_shards; ++si) {
          best_x[static_cast<size_t>(si)] = x[static_cast<size_t>(si)];
        }
      }
      gap = (best_ub - best_primal) / std::max(1.0, std::abs(best_ub));
      if (gap <= kCoordinationGap) done = true;
    }
    if (done) break;

    double gnorm2 = 0.0;
    for (EventId v = 0; v < nv; ++v) {
      double g = caps[static_cast<size_t>(v)];
      for (int32_t si = 0; si < num_shards; ++si) {
        g -= usage[static_cast<size_t>(si)][static_cast<size_t>(v)];
      }
      factor[static_cast<size_t>(v)] = g;  // reuse as gradient scratch
      gnorm2 += g * g;
    }
    if (gnorm2 <= 1e-18) {
      // Complementary slackness: the current iterate clears every market, so
      // L(μ) is optimal. Re-extract from this single iterate and stop.
      for (auto& shard_count : count) {
        std::fill(shard_count.begin(), shard_count.end(), 0);
      }
      for (int32_t si = 0; si < num_shards; ++si) {
        for (int32_t c : choice[static_cast<size_t>(si)]) {
          if (c >= 0) count[static_cast<size_t>(si)][static_cast<size_t>(c)] = 1;
        }
      }
      IGEPA_ASSIGN_OR_RETURN(const double objective, extract_primal(1));
      if (objective > best_primal) {
        best_primal = objective;
        for (int32_t si = 0; si < num_shards; ++si) {
          best_x[static_cast<size_t>(si)] = x[static_cast<size_t>(si)];
        }
      }
      gap = (best_ub - best_primal) / std::max(1.0, std::abs(best_ub));
      break;
    }
    const double step =
        wmax / std::sqrt(static_cast<double>(t) * gnorm2);
    for (EventId v = 0; v < nv; ++v) {
      mu[static_cast<size_t>(v)] = std::max(
          0.0, mu[static_cast<size_t>(v)] - step * factor[static_cast<size_t>(v)]);
    }
    // Doubling restart of the averaging window (same cadence as the
    // monolithic solver): each window is twice as long as the last, so the
    // average forgets the pre-convergence iterates geometrically.
    if (t + 1 >= 2 * avg_started_at) {
      for (auto& shard_count : count) {
        std::fill(shard_count.begin(), shard_count.end(), 0);
      }
      avg_started_at = t + 1;
    }
  }

  if (stats != nullptr) {
    stats->lp_objective = best_primal;
    stats->lp_upper_bound = best_ub;
    stats->gap = gap;
    stats->coordination_iterations = iterations_run;
  }

  // ---- Legalize: one global rounding/repair sweep. -------------------------
  // RoundFractional's exact semantics lifted across shards: one pre-drawn
  // uniform per user in GLOBAL user order, α·x sampling down the user's
  // column range, per-event demand, and the first-c_v-contenders-by-user-id
  // cutoff rule (pair (v, u) survives iff u < cutoff[v]). Every pass is
  // shard-major so a budgeted run pages each shard in at most once per pass.
  std::vector<std::vector<int32_t>> sampled(static_cast<size_t>(num_shards));
  for (int32_t si = 0; si < num_shards; ++si) {
    sampled[static_cast<size_t>(si)].assign(
        static_cast<size_t>(shards[static_cast<size_t>(si)].num_local_users()),
        -1);
  }
  for (int32_t si = 0; si < num_shards; ++si) {
    const Shard& shard = shards[static_cast<size_t>(si)];
    IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
    const auto& xs = best_x[static_cast<size_t>(si)];
    for (int32_t lu = 0; lu < shard.num_local_users(); ++lu) {
      double r = rng->NextDouble();
      const int32_t begin = lanes->user_columns_begin(lu);
      const int32_t end = lanes->user_columns_end(lu);
      for (int32_t j = begin; j < end; ++j) {
        const double mass =
            options.alpha *
            std::clamp(xs[static_cast<size_t>(j)], 0.0, 1.0);
        if (r < mass) {
          sampled[static_cast<size_t>(si)][static_cast<size_t>(lu)] = j;
          break;
        }
        r -= mass;
      }
    }
  }
  std::vector<int32_t> demand(static_cast<size_t>(nv), 0);
  for (int32_t si = 0; si < num_shards; ++si) {
    const Shard& shard = shards[static_cast<size_t>(si)];
    IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
    for (int32_t lu = 0; lu < shard.num_local_users(); ++lu) {
      const int32_t j = sampled[static_cast<size_t>(si)][static_cast<size_t>(lu)];
      if (j < 0) continue;
      for (EventId v : lanes->set(j)) {
        ++demand[static_cast<size_t>(v)];
      }
    }
  }
  // Contender collection runs shard-outer (one lanes acquisition per shard)
  // instead of event-outer; per-event contender order stays (shard asc,
  // column asc), exactly what the event-outer walk produced.
  std::vector<int32_t> cutoff(static_cast<size_t>(nv), kNoRepairCutoff);
  std::vector<EventId> overloaded;
  std::vector<int32_t> slot(static_cast<size_t>(nv), -1);
  for (EventId v = 0; v < nv; ++v) {
    if (demand[static_cast<size_t>(v)] > instance.event_capacity(v)) {
      slot[static_cast<size_t>(v)] =
          static_cast<int32_t>(overloaded.size());
      overloaded.push_back(v);
    }
  }
  std::vector<std::vector<UserId>> contenders(overloaded.size());
  if (!overloaded.empty()) {
    for (int32_t si = 0; si < num_shards; ++si) {
      const Shard& shard = shards[static_cast<size_t>(si)];
      IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
      const auto& shard_sampled = sampled[static_cast<size_t>(si)];
      for (EventId v : overloaded) {
        auto& event_contenders =
            contenders[static_cast<size_t>(slot[static_cast<size_t>(v)])];
        lanes->ForEachColumnOfEvent(v, [&](int32_t j) {
          const int32_t owner = lanes->user_of(j);
          if (shard_sampled[static_cast<size_t>(owner)] == j) {
            event_contenders.push_back(shard.user_begin + owner);
          }
        });
      }
    }
  }
  for (EventId v : overloaded) {
    auto& event_contenders =
        contenders[static_cast<size_t>(slot[static_cast<size_t>(v)])];
    const int32_t cap = instance.event_capacity(v);
    if (static_cast<int32_t>(event_contenders.size()) <= cap) continue;
    std::nth_element(event_contenders.begin(), event_contenders.begin() + cap,
                     event_contenders.end());
    cutoff[static_cast<size_t>(v)] = event_contenders[static_cast<size_t>(cap)];
  }
  Arrangement arrangement(nv, nu);
  int32_t repaired = 0;
  for (int32_t si = 0; si < num_shards; ++si) {
    const Shard& shard = shards[static_cast<size_t>(si)];
    IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, lanes_of(si));
    for (int32_t lu = 0; lu < shard.num_local_users(); ++lu) {
      const int32_t j = sampled[static_cast<size_t>(si)][static_cast<size_t>(lu)];
      if (j < 0) continue;
      const UserId gu = shard.user_begin + lu;
      for (EventId v : lanes->set(j)) {
        if (gu < cutoff[static_cast<size_t>(v)]) {
          IGEPA_RETURN_IF_ERROR(arrangement.Add(v, gu));
        } else {
          ++repaired;
        }
      }
    }
  }
  if (stats != nullptr) {
    stats->pairs_repaired = repaired;
    if (residency) {
      const ResidencyStats rs = residency->stats();
      stats->page_ins = rs.page_ins;
      stats->evictions = rs.evictions;
      stats->peak_resident_shards = rs.peak_resident_shards;
      stats->peak_resident_bytes = rs.peak_resident_bytes;
    }
  }
  return arrangement;
}

}  // namespace core
}  // namespace igepa
