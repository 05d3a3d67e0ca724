#include "core/benchmark_dual.h"

#include <algorithm>
#include <utility>

#include "core/polish_order.h"
#include "core/structured_dual_core.h"

namespace igepa {
namespace core {

namespace {

/// The monolithic solve's column source (structured_dual_core.h): the whole
/// catalog as one block, read through its live per-user ranges and its
/// tombstone-filtering inverted index, so a dirty catalog solves exactly like
/// its compacted twin.
class CatalogColumns {
 public:
  struct View {
    const AdmissibleCatalog* catalog;
    const EventId* pool;
    const int64_t* col_begin;
    const double* weight;

    int32_t user_columns_begin(UserId u) const {
      return catalog->user_columns_begin(u);
    }
    int32_t user_columns_end(UserId u) const {
      return catalog->user_columns_end(u);
    }
    template <typename Fn>
    void ForEachColumnOfEvent(EventId v, Fn&& fn) const {
      catalog->ForEachColumnOfEvent(v, std::forward<Fn>(fn));
    }
  };
  /// An in-memory catalog needs no pinning.
  struct Pin {};

  explicit CatalogColumns(const AdmissibleCatalog& catalog)
      : view_{&catalog, catalog.pool().data(), catalog.col_begin().data(),
              catalog.weights().data()} {
    // Live columns sorted by descending weight for the greedy polish pass.
    // Ties break by (owner, id): the list is built user-major and sorted
    // stably, and within a user both ids sit in one contiguous range, so
    // this order is invariant under delta renumbering — a dirty catalog
    // polishes in exactly the order its compacted twin would.
    by_weight_.reserve(static_cast<size_t>(catalog.num_live_columns()));
    for (UserId u = 0; u < catalog.num_users(); ++u) {
      const int32_t begin = catalog.user_columns_begin(u);
      const int32_t end = catalog.user_columns_end(u);
      max_user_cols_ = std::max(max_user_cols_, end - begin);
      for (int32_t j = begin; j < end; ++j) {
        wmax_ = std::max(wmax_, view_.weight[j]);
        by_weight_.push_back(j);
      }
    }
    SortByWeightDescending(&by_weight_,
                           [&](int32_t j) { return view_.weight[j]; });
  }

  int32_t num_blocks() const { return 1; }
  UserId block_user_begin(int32_t b) const {
    return b == 0 ? 0 : view_.catalog->num_users();
  }
  int32_t block_column_begin(int32_t b) const {
    return b == 0 ? 0 : num_columns();
  }
  int32_t num_columns() const { return view_.catalog->num_columns(); }
  int64_t num_live_columns() const {
    return view_.catalog->num_live_columns();
  }
  double wmax() const { return wmax_; }
  int32_t max_user_columns() const { return max_user_cols_; }
  uint64_t ids_revision() const { return view_.catalog->ids_revision(); }
  bool pins_blocks() const { return false; }

  const View* Acquire(int32_t, Pin*) const { return &view_; }
  Result<const View*> Serial(int32_t) const { return &view_; }
  void DropSerial() const {}
  Status status() const { return Status::OK(); }

  template <typename Fn>
  Status ForEachPolishColumn(Fn&& fn) const {
    const AdmissibleCatalog& catalog = *view_.catalog;
    for (const int32_t j : by_weight_) {
      fn(j, catalog.user_of(j), view_.weight[j],
         [&catalog, j] { return catalog.set(j); });
    }
    return Status::OK();
  }

 private:
  View view_;
  double wmax_ = 0.0;
  int32_t max_user_cols_ = 0;
  std::vector<int32_t> by_weight_;
};

}  // namespace

void DualWarmStart::Remap(const std::vector<int32_t>& column_remap,
                          uint64_t new_ids_revision) {
  for (size_t u = 0; u < choice.size(); ++u) {
    const int32_t j = choice[u];
    if (j < 0) continue;
    choice[u] = (static_cast<size_t>(j) < column_remap.size())
                    ? column_remap[static_cast<size_t>(j)]
                    : -1;
  }
  catalog_revision = new_ids_revision;
}

Result<lp::LpSolution> SolveBenchmarkLpStructured(
    const Instance& instance, const AdmissibleCatalog& catalog,
    const StructuredDualOptions& options, DualWarmStart* warm_out) {
  IGEPA_RETURN_IF_ERROR(catalog.CheckShape(instance));
  CatalogColumns columns(catalog);
  return SolveStructuredDual(instance, columns, options, warm_out);
}

}  // namespace core
}  // namespace igepa
