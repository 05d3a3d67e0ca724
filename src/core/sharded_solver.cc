#include "core/sharded_solver.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <new>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/polish_order.h"
#include "core/shard_residency.h"
#include "core/structured_dual_core.h"
#include "core/utility_kernel.h"
#include "io/catalog_spill.h"
#include "util/thread_pool.h"

namespace igepa {
namespace core {
namespace {

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

/// One level-1 unit: a contiguous user range with its own sub-instance,
/// catalog and level-1 prices. On the spill path the catalog (and the
/// sub-instance) are dropped right after level 1; everything level 2 needs
/// besides the lanes — column count, widest user range, weights for the
/// polish order, the spill section index — is collected from Lanes() first.
struct Shard {
  UserId user_begin = 0;
  UserId user_end = 0;
  std::unique_ptr<Instance> instance;
  std::unique_ptr<AdmissibleCatalog> catalog;  // null once spilled
  std::vector<double> mu;  // level-1 event prices; empty when K = 1
  int64_t level1_iterations = 0;
  int32_t num_columns = 0;
  int32_t max_user_cols = 0;
  double wmax = 0.0;
  std::vector<double> weights;  // merged into the polish order, then freed
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
/// remaps). But everything the polish reads of a column — owner, weight and
/// events — is fixed before level 2 starts, so the spill path writes it once,
/// shard-major, as `[owner, weight (two words), len, events...]` int32 rows
/// in polish order, and every extraction streams the rows back through one
/// small buffer with zero residency traffic.
constexpr int32_t kPolishRowHeader = 4;

struct PolishRow {
  UserId user;
  double weight;
  std::span<const EventId> events;
};

class PolishRowReader {
 public:
  explicit PolishRowReader(int fd) : fd_(fd), buf_(1 << 20) {}
  ~PolishRowReader() { ::close(fd_); }
  PolishRowReader(const PolishRowReader&) = delete;
  PolishRowReader& operator=(const PolishRowReader&) = delete;

  void Rewind() {
    begin_ = 0;
    end_ = 0;
    off_ = 0;
  }

  /// The next row; its events stay valid until the next call.
  Result<PolishRow> NextRow() {
    IGEPA_ASSIGN_OR_RETURN(const int32_t* head, Take(kPolishRowHeader));
    const int32_t len = head[kPolishRowHeader - 1];
    // Take(header + len) keeps the already-consumed header in the window so
    // the events land right behind it even when Fill compacts the buffer.
    begin_ -= kPolishRowHeader * sizeof(int32_t);
    IGEPA_ASSIGN_OR_RETURN(const int32_t* row, Take(kPolishRowHeader + len));
    PolishRow out;
    out.user = row[0];
    std::memcpy(&out.weight, row + 1, sizeof(double));
    out.events = {row + kPolishRowHeader, static_cast<size_t>(len)};
    return out;
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

/// An allocation failed somewhere in the solve. The budget bounds only the
/// resident shard catalogs, so name it and what else takes memory.
Status OutOfMemory(uint64_t budget_bytes) {
  const std::string budget =
      budget_bytes > 0
          ? "under a catalog memory budget of " + std::to_string(budget_bytes) +
                " bytes (--memory-budget-mb " +
                std::to_string(budget_bytes >> 20) + ")"
          : "with no catalog memory budget (--memory-budget-mb 0)";
  return Status::ResourceExhausted(
      "sharded solve ran out of memory " + budget +
      "; the budget bounds the resident shard catalogs, not the solver's "
      "other state or each worker thread's heap — allow the process more "
      "memory or run fewer --threads");
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

/// Level 2's column source (structured_dual_core.h; DESIGN.md §8): one
/// block per shard, served from the in-memory shard catalogs or, under a
/// budget, through ShardResidency leases over the spill file. Both serve the
/// same CatalogLanes and the same polish rows, so the solve cannot tell them
/// apart: eviction and repage are bit-invisible.
class ShardColumns {
 public:
  using View = CatalogLanes;
  using Pin = ShardResidency::Lease;

  /// `user_begin` and `column_begin` hold K + 1 entries; `inmem` holds the K
  /// shard lanes when `residency` is null, else nothing.
  ShardColumns(std::vector<UserId> user_begin,
               std::vector<int32_t> column_begin, double wmax,
               int32_t max_user_cols, std::vector<CatalogLanes> inmem,
               ShardResidency* residency, std::vector<int32_t> spill_index,
               uint64_t budget_bytes)
      : user_begin_(std::move(user_begin)),
        column_begin_(std::move(column_begin)),
        wmax_(wmax),
        max_user_cols_(max_user_cols),
        inmem_(std::move(inmem)),
        residency_(residency),
        spill_index_(std::move(spill_index)),
        budget_bytes_(budget_bytes) {}

  int32_t num_blocks() const {
    return static_cast<int32_t>(user_begin_.size()) - 1;
  }
  UserId block_user_begin(int32_t b) const {
    return user_begin_[static_cast<size_t>(b)];
  }
  int32_t block_column_begin(int32_t b) const {
    return column_begin_[static_cast<size_t>(b)];
  }
  int32_t num_columns() const { return column_begin_.back(); }
  int64_t num_live_columns() const { return num_columns(); }
  double wmax() const { return wmax_; }
  int32_t max_user_columns() const { return max_user_cols_; }
  uint64_t ids_revision() const { return 0; }
  bool pins_blocks() const { return residency_ != nullptr; }

  /// Runs on pool workers, so an allocation failure is caught here: an
  /// exception that left a worker would terminate the process.
  const View* Acquire(int32_t b, Pin* pin) {
    if (residency_ == nullptr) return &inmem_[static_cast<size_t>(b)];
    Status failed;
    try {
      auto lease = residency_->Acquire(spill_index_[static_cast<size_t>(b)]);
      if (lease.ok()) {
        *pin = std::move(lease).value();
        return &pin->lanes();
      }
      failed = lease.status();
    } catch (const std::bad_alloc&) {
      failed = OutOfMemory(budget_bytes_);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    if (status_.ok()) status_ = std::move(failed);
    return nullptr;
  }

  /// Serial passes hold one lease and reuse it across consecutive calls for
  /// the same shard, so a shard-major pass pages each shard in at most once.
  Result<const View*> Serial(int32_t b) {
    if (residency_ == nullptr) return &inmem_[static_cast<size_t>(b)];
    if (serial_block_ != b) {
      DropSerial();
      IGEPA_ASSIGN_OR_RETURN(
          serial_pin_, residency_->Acquire(spill_index_[static_cast<size_t>(b)]));
      serial_block_ = b;
    }
    return &serial_pin_.lanes();
  }
  void DropSerial() {
    serial_pin_.Release();
    serial_block_ = -1;
  }
  Status status() {
    std::lock_guard<std::mutex> lock(mutex_);
    return status_;
  }

  /// Sorts the polish order from every column's weight (by global id) and,
  /// on the spill path, writes the polish side stream in that order.
  Status PreparePolish(const std::vector<double>& weights,
                       const std::string& spill_dir) {
    // Shards own ascending user ranges and list their columns user-major,
    // so global ids are in (owner, id) order and the stable weight sort
    // yields the (weight desc, owner, id) order of the monolithic solve.
    polish_order_.resize(weights.size());
    std::iota(polish_order_.begin(), polish_order_.end(), 0);
    SortByWeightDescending(&polish_order_, [&](int32_t j) {
      return weights[static_cast<size_t>(j)];
    });
    if (residency_ == nullptr) return Status::OK();

    // Two shard-major passes, sizes then rows, cost one lease per shard
    // each. `row_at` holds each column's row size, then its row's offset.
    std::vector<int64_t> row_at(polish_order_.size());
    for (int32_t b = 0; b < num_blocks(); ++b) {
      IGEPA_ASSIGN_OR_RETURN(const View* lanes, Serial(b));
      for (int32_t lj = 0; lj < lanes->num_columns; ++lj) {
        row_at[static_cast<size_t>(block_column_begin(b) + lj)] =
            kPolishRowHeader + static_cast<int64_t>(lanes->set(lj).size());
      }
    }
    int64_t words = 0;
    for (const int32_t j : polish_order_) {
      const int64_t size = row_at[static_cast<size_t>(j)];
      row_at[static_cast<size_t>(j)] = words;
      words += size;
    }
    std::vector<int32_t> image(static_cast<size_t>(words));
    for (int32_t b = 0; b < num_blocks(); ++b) {
      IGEPA_ASSIGN_OR_RETURN(const View* lanes, Serial(b));
      for (int32_t lj = 0; lj < lanes->num_columns; ++lj) {
        const std::span<const EventId> set = lanes->set(lj);
        int32_t* row = image.data() + row_at[static_cast<size_t>(
                                          block_column_begin(b) + lj)];
        row[0] = block_user_begin(b) + lanes->user_of(lj);
        std::memcpy(row + 1, &lanes->weight[lj], sizeof(double));
        row[kPolishRowHeader - 1] = static_cast<int32_t>(set.size());
        std::copy(set.begin(), set.end(), row + kPolishRowHeader);
      }
    }
    DropSerial();
    std::vector<int64_t>().swap(row_at);

    const std::string path = MakeSpillPath(spill_dir);
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
    if (fd < 0) {
      return Status::IOError("cannot create polish stream file " + path);
    }
    ::unlink(path.c_str());
    reader_.emplace(fd);
    const auto* bytes = reinterpret_cast<const uint8_t*>(image.data());
    const size_t total = image.size() * sizeof(int32_t);
    size_t written = 0;
    while (written < total) {
      const ssize_t n = ::write(fd, bytes + written, total - written);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::IOError("polish stream write failed");
      }
      written += static_cast<size_t>(n);
    }
    return Status::OK();
  }

  /// The spill path reads the polish rows from the side stream; the
  /// in-memory path reads the same values from the shard lanes.
  template <typename Fn>
  Status ForEachPolishColumn(Fn&& fn) {
    if (reader_) {
      reader_->Rewind();
      for (const int32_t j : polish_order_) {
        IGEPA_ASSIGN_OR_RETURN(const PolishRow row, reader_->NextRow());
        fn(j, row.user, row.weight, [&row] { return row.events; });
      }
      return Status::OK();
    }
    for (const int32_t j : polish_order_) {
      const auto b = static_cast<size_t>(
          std::upper_bound(column_begin_.begin() + 1, column_begin_.end(), j) -
          (column_begin_.begin() + 1));
      const CatalogLanes& lanes = inmem_[b];
      const int32_t lj = j - column_begin_[b];
      fn(j, user_begin_[b] + lanes.user_of(lj), lanes.weight[lj],
         [&lanes, lj] { return lanes.set(lj); });
    }
    return Status::OK();
  }

 private:
  std::vector<UserId> user_begin_;
  std::vector<int32_t> column_begin_;
  double wmax_;
  int32_t max_user_cols_;
  std::vector<CatalogLanes> inmem_;
  ShardResidency* residency_;
  std::vector<int32_t> spill_index_;
  uint64_t budget_bytes_;
  Pin serial_pin_;
  int32_t serial_block_ = -1;
  std::vector<int32_t> polish_order_;
  std::optional<PolishRowReader> reader_;
  std::mutex mutex_;
  Status status_;
};

Result<Arrangement> ShardedSolveImpl(const Instance& instance, Rng* rng,
                                     const ShardedSolveOptions& options,
                                     ShardedSolveStats* stats) {
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

  // ---- Level 1: independent per-shard catalogs + loose solves. -------------
  // Shard instances see 1/K-scaled event capacities (capacity only feeds the
  // LP rows, never the admissible-set enumeration), so each shard prices its
  // fair slice of every event and the averaged duals land near the global
  // clearing prices. At K = 1 there is nothing to coordinate: the shard
  // catalog is built (and spilled) but not solved, and level 2 runs cold.
  // Everything level 2 needs beyond the lanes themselves (column count,
  // weights, wmax, widest user range) is collected here, while the catalog
  // is still in RAM; on the spill path the catalog and the sub-instance are
  // then dropped.
  IGEPA_ASSIGN_OR_RETURN(
      std::shared_ptr<const UtilityKernel> kernel,
      MakeUtilityKernel(instance.kernel().id()));
  std::vector<Shard> shards(static_cast<size_t>(num_shards));
  const auto build_shard = [&](int32_t si) -> Status {
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
    if (num_shards > 1) {
      StructuredDualOptions level1 = options.level1;
      level1.num_threads = 1;
      level1.workers = nullptr;
      level1.warm = nullptr;
      DualWarmStart prices;
      auto solved = SolveBenchmarkLpStructured(*shard.instance, *shard.catalog,
                                               level1, &prices);
      IGEPA_RETURN_IF_ERROR(solved.status());
      shard.level1_iterations = solved->iterations;
      shard.mu = std::move(prices.mu);
    }

    const CatalogLanes lanes = shard.catalog->Lanes();
    shard.num_columns = lanes.num_columns;
    for (int32_t lu = 0; lu < local; ++lu) {
      shard.max_user_cols =
          std::max(shard.max_user_cols,
                   lanes.user_columns_end(lu) - lanes.user_columns_begin(lu));
    }
    shard.weights.assign(lanes.weight, lanes.weight + lanes.num_columns);
    for (const double w : shard.weights) shard.wmax = std::max(shard.wmax, w);
    if (spill) {
      IGEPA_ASSIGN_OR_RETURN(shard.spill_index, spill->Append(lanes));
      shard.catalog.reset();
      shard.instance.reset();
    }
    return Status::OK();
  };
  // Level-1 shards run as pool tasks, which must not throw.
  const auto level1_shard = [&](int32_t si) -> Status {
    try {
      return build_shard(si);
    } catch (const std::bad_alloc&) {
      return OutOfMemory(options.memory_budget_bytes);
    }
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
  std::vector<int32_t> column_begin(static_cast<size_t>(num_shards) + 1, 0);
  int64_t level1_iterations = 0;
  int32_t max_user_cols = 0;
  double wmax = 0.0;
  for (int32_t si = 0; si < num_shards; ++si) {
    const Shard& shard = shards[static_cast<size_t>(si)];
    column_begin[static_cast<size_t>(si) + 1] =
        column_begin[static_cast<size_t>(si)] + shard.num_columns;
    level1_iterations += shard.level1_iterations;
    max_user_cols = std::max(max_user_cols, shard.max_user_cols);
    wmax = std::max(wmax, shard.wmax);
  }
  const int32_t total_columns = column_begin.back();
  if (stats != nullptr) {
    *stats = ShardedSolveStats{};
    stats->num_shards = num_shards;
    stats->num_columns = total_columns;
    stats->level1_iterations = level1_iterations;
    if (spill) {
      stats->spill_bytes = spill->total_bytes();
      stats->shard_footprint_bytes = spill->max_section_bytes();
    }
  }
  if (total_columns == 0) return Arrangement(nv, nu);

  // ---- Catalog access: one lane contract for both residency modes. ---------
  // In-memory shards serve AdmissibleCatalog::Lanes(); spilled shards serve
  // mmapped CatalogView lanes through the LRU residency manager.
  std::optional<ShardResidency> residency;
  if (spill) residency.emplace(&*spill, options.memory_budget_bytes);
  std::vector<CatalogLanes> inmem_lanes;
  std::vector<int32_t> spill_index(static_cast<size_t>(num_shards), -1);
  for (int32_t si = 0; si < num_shards; ++si) {
    const Shard& shard = shards[static_cast<size_t>(si)];
    if (!spill) inmem_lanes.push_back(shard.catalog->Lanes());
    spill_index[static_cast<size_t>(si)] = shard.spill_index;
  }
  ShardColumns columns(bounds, column_begin, wmax, max_user_cols,
                       std::move(inmem_lanes),
                       residency ? &*residency : nullptr,
                       std::move(spill_index), options.memory_budget_bytes);
  {
    std::vector<double> weights;
    weights.reserve(static_cast<size_t>(total_columns));
    for (Shard& shard : shards) {
      weights.insert(weights.end(), shard.weights.begin(),
                     shard.weights.end());
      std::vector<double>().swap(shard.weights);
    }
    IGEPA_RETURN_IF_ERROR(columns.PreparePolish(weights, options.spill_dir));
  }

  // ---- Level 2: coordinate the shared event prices. ------------------------
  // The global Lagrangian's oracle term decomposes exactly across shards,
  // so level 2 is the structured dual over all shard catalogs at once: a
  // warm solve from the shard-average of the level-1 duals (summed in shard
  // order), with the monolithic solve's default target gap and budget.
  DualWarmStart seed;
  StructuredDualOptions level2;
  level2.workers = pool;
  if (num_shards > 1) {
    seed.mu.assign(static_cast<size_t>(nv), 0.0);
    for (const Shard& shard : shards) {
      for (EventId v = 0; v < nv; ++v) {
        seed.mu[static_cast<size_t>(v)] += shard.mu[static_cast<size_t>(v)];
      }
    }
    for (double& m : seed.mu) m /= static_cast<double>(num_shards);
    level2.warm = &seed;
  }
  IGEPA_ASSIGN_OR_RETURN(
      const lp::LpSolution coordinated,
      SolveStructuredDual(instance, columns, level2, /*warm_out=*/nullptr));
  if (stats != nullptr) {
    stats->lp_objective = coordinated.objective;
    stats->lp_upper_bound = coordinated.upper_bound;
    stats->gap = coordinated.RelativeGap();
    stats->coordination_iterations = coordinated.iterations;
  }

  // ---- Legalize: one global rounding/repair sweep. -------------------------
  // RoundFractional's exact semantics lifted across shards, in one
  // shard-major pass over the users in global order: each user draws one
  // uniform, samples a column with probability α·x, and keeps an event of
  // it iff fewer than c_v earlier users kept that event — exactly the first
  // c_v contenders by user id that RoundFractional's per-event cutoffs keep.
  std::vector<int32_t> load(static_cast<size_t>(nv), 0);
  Arrangement arrangement(nv, nu);
  int32_t repaired = 0;
  for (int32_t si = 0; si < num_shards; ++si) {
    IGEPA_ASSIGN_OR_RETURN(const CatalogLanes* lanes, columns.Serial(si));
    const UserId ub = bounds[static_cast<size_t>(si)];
    const int32_t coff = column_begin[static_cast<size_t>(si)];
    for (UserId u = ub; u < bounds[static_cast<size_t>(si) + 1]; ++u) {
      double r = rng->NextDouble();
      int32_t sampled = -1;
      for (int32_t lj = lanes->user_columns_begin(u - ub);
           lj < lanes->user_columns_end(u - ub); ++lj) {
        const double mass =
            options.alpha *
            std::clamp(coordinated.x[static_cast<size_t>(coff + lj)], 0.0,
                       1.0);
        if (r < mass) {
          sampled = lj;
          break;
        }
        r -= mass;
      }
      if (sampled < 0) continue;
      for (const EventId v : lanes->set(sampled)) {
        if (load[static_cast<size_t>(v)]++ < instance.event_capacity(v)) {
          IGEPA_RETURN_IF_ERROR(arrangement.Add(v, u));
        } else {
          ++repaired;
        }
      }
    }
  }
  columns.DropSerial();
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
  // Pool tasks catch their own allocation failures; this catches the
  // calling thread's, so running out of memory is a Status, not an abort.
  try {
    return ShardedSolveImpl(instance, rng, options, stats);
  } catch (const std::bad_alloc&) {
    return OutOfMemory(options.memory_budget_bytes);
  }
}

}  // namespace core
}  // namespace igepa
