// google-benchmark microbenchmark for the LP substrate: the structured dual
// (the library's only LP solver) on benchmark LPs read from the catalog.

#include <benchmark/benchmark.h>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "gen/synthetic.h"
#include "util/rng.h"

namespace {

using namespace igepa;

// Catalog entry point: the solver iterates the shared CSR directly, no
// per-solve model copy.
void BM_StructuredDual_Catalog(benchmark::State& state) {
  Rng rng(7);
  gen::SyntheticConfig config;
  config.num_users = static_cast<int32_t>(state.range(0));
  auto instance = gen::GenerateSynthetic(config, &rng);
  const auto catalog = core::AdmissibleCatalog::Build(*instance, {});
  for (auto _ : state) {
    auto sol = core::SolveBenchmarkLpStructured(*instance, catalog, {});
    benchmark::DoNotOptimize(sol);
  }
  state.counters["columns"] = static_cast<double>(catalog.num_columns());
}
BENCHMARK(BM_StructuredDual_Catalog)->Arg(500)->Arg(2000)->Arg(5000);

}  // namespace

BENCHMARK_MAIN();
