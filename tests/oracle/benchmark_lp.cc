#include "tests/oracle/benchmark_lp.h"

namespace igepa {
namespace core {

BenchmarkLp BuildBenchmarkLp(const Instance& instance,
                             const AdmissibleCatalog& catalog) {
  BenchmarkLp out;
  const int32_t nu = instance.num_users();
  const int32_t nv = instance.num_events();
  // Constraint (2): one admissible set per user.
  for (UserId u = 0; u < nu; ++u) {
    out.model.AddRow(lp::Sense::kLe, 1.0);
  }
  // Constraint (3): event capacities.
  for (EventId v = 0; v < nv; ++v) {
    out.model.AddRow(lp::Sense::kLe,
                     static_cast<double>(instance.event_capacity(v)));
  }
  out.column_map.reserve(static_cast<size_t>(catalog.num_live_columns()));
  out.user_col_begin.assign(static_cast<size_t>(nu) + 1, 0);
  for (UserId u = 0; u < nu; ++u) {
    out.user_col_begin[static_cast<size_t>(u) + 1] =
        out.user_col_begin[static_cast<size_t>(u)] + catalog.num_sets(u);
  }
  for (UserId u = 0; u < nu; ++u) {
    for (int32_t j = catalog.user_columns_begin(u);
         j < catalog.user_columns_end(u); ++j) {
      const auto set = catalog.set(j);
      std::vector<lp::ColumnEntry> entries;
      entries.reserve(set.size() + 1);
      entries.push_back({out.UserRow(u), 1.0});
      for (EventId v : set) {
        entries.push_back({out.EventRow(instance, v), 1.0});
      }
      out.model.AddColumn(catalog.weight(j), 0.0, 1.0, std::move(entries));
      out.column_map.emplace_back(u, j - catalog.user_columns_begin(u));
    }
  }
  return out;
}

}  // namespace core
}  // namespace igepa
