// google-benchmark microbenchmarks for the core pipeline stages: dataset
// generation, admissible-set enumeration into the flat catalog, kernel
// re-scoring, Algorithm 1 rounding, baselines and the feasibility validator.
//
// Unless the caller passes --benchmark_out, results are also written to
// BENCH_micro_core.json (google-benchmark's JSON schema) so successive PRs
// have a machine-readable perf trajectory.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "algo/baselines.h"
#include "conflict/conflict_graph.h"
#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/instance_delta.h"
#include "core/lp_packing.h"
#include "core/sharded_solver.h"
#include "gen/arrival_process.h"
#include "gen/delta_stream.h"
#include "gen/meetup_sim.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "serve/arrangement_service.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace {

using namespace igepa;

core::Instance MakeInstance(int32_t users) {
  Rng rng(11);
  gen::SyntheticConfig config;
  config.num_users = users;
  auto instance = gen::GenerateSynthetic(config, &rng);
  return std::move(instance).value();
}

void BM_GenerateSynthetic(benchmark::State& state) {
  gen::SyntheticConfig config;
  config.num_users = static_cast<int32_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    auto instance = gen::GenerateSynthetic(config, &rng);
    benchmark::DoNotOptimize(instance);
  }
}
BENCHMARK(BM_GenerateSynthetic)->Arg(500)->Arg(2000);

void BM_GenerateMeetup(benchmark::State& state) {
  gen::MeetupConfig config;
  config.num_users = static_cast<int32_t>(state.range(0));
  config.num_events = 100;
  Rng rng(1);
  for (auto _ : state) {
    auto instance = gen::GenerateMeetup(config, &rng);
    benchmark::DoNotOptimize(instance);
  }
}
BENCHMARK(BM_GenerateMeetup)->Arg(1000);

void BM_BuildAdmissibleCatalog(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  core::AdmissibleOptions options;
  options.num_threads = 1;  // apples-to-apples with the serial legacy path
  for (auto _ : state) {
    auto catalog = core::AdmissibleCatalog::Build(instance, options);
    benchmark::DoNotOptimize(catalog);
  }
}
BENCHMARK(BM_BuildAdmissibleCatalog)->Arg(500)->Arg(1000)->Arg(2000);

void BM_RoundFractionalCatalog(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  const auto catalog = core::AdmissibleCatalog::Build(instance, {});
  auto fractional = core::SolveBenchmarkLpForPacking(instance, catalog, {});
  Rng rng(3);
  for (auto _ : state) {
    auto arrangement =
        core::RoundFractional(instance, catalog, *fractional, &rng, {});
    benchmark::DoNotOptimize(arrangement);
  }
}
BENCHMARK(BM_RoundFractionalCatalog)->Arg(500)->Arg(2000);

// Parallel-vs-serial counters for the shard-parallel pipeline: the same
// solve at 1, 2 and 8 workers (results are bit-identical; only the wall
// clock moves). The /1 row IS the serial baseline — speedup(t) =
// real_time(/1) / real_time(/t). Every row borrows a pre-spawned pool via
// options.workers, so the curve measures the sharded sweep itself, not the
// per-solve thread spawn the borrowed-pool path exists to avoid.
void BM_StructuredDualThreads(benchmark::State& state) {
  const auto instance = MakeInstance(1000);
  core::AdmissibleOptions enumerate;
  enumerate.num_threads = 1;
  const auto catalog = core::AdmissibleCatalog::Build(instance, enumerate);
  ThreadPool pool(static_cast<int32_t>(state.range(0)));
  core::StructuredDualOptions options;
  options.max_iterations = 400;
  options.workers = &pool;
  for (auto _ : state) {
    auto sol = core::SolveBenchmarkLpStructured(instance, catalog, options);
    benchmark::DoNotOptimize(sol);
  }
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_StructuredDualThreads)->Arg(1)->Arg(2)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_RoundFractionalCatalogThreads(benchmark::State& state) {
  const auto instance = MakeInstance(2000);
  const auto catalog = core::AdmissibleCatalog::Build(instance, {});
  auto fractional = core::SolveBenchmarkLpForPacking(instance, catalog, {});
  ThreadPool pool(static_cast<int32_t>(state.range(0)));
  core::LpPackingOptions options;
  options.workers = &pool;
  Rng rng(3);
  for (auto _ : state) {
    auto arrangement =
        core::RoundFractional(instance, catalog, *fractional, &rng, options);
    benchmark::DoNotOptimize(arrangement);
  }
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_RoundFractionalCatalogThreads)->Arg(1)->Arg(2)->Arg(8);

// Catalog construction thread curve: enumeration chunks and the SoA scoring
// finalize share one pool. Bit-identical output at every width; the /1 row
// is the serial baseline for the speedup table in DESIGN.md §5 (S18).
void BM_CatalogBuildThreads(benchmark::State& state) {
  const auto instance = MakeInstance(2000);
  core::AdmissibleOptions options;
  options.num_threads = static_cast<int32_t>(state.range(0));
  for (auto _ : state) {
    auto catalog = core::AdmissibleCatalog::Build(instance, options);
    benchmark::DoNotOptimize(catalog);
  }
  state.counters["threads"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
}
BENCHMARK(BM_CatalogBuildThreads)->Arg(1)->Arg(2)->Arg(8);

// The SoA batch-scoring entry point in isolation: a full-catalog Rescore on
// the 1k-user instance with the SIMD dispatch pinned to scalar (/0) vs the
// detected best level (/1 — AVX2 where available, else the same scalar
// path). Identical weights bit for bit; columns_per_s is the headline
// scoring throughput.
void BM_ScoreColumnsSoA(benchmark::State& state) {
  const auto instance = MakeInstance(1000);
  auto catalog = core::AdmissibleCatalog::Build(instance, {});
  util::simd::ForceLevel(state.range(0) != 0 ? util::simd::DetectedLevel()
                                             : util::simd::Level::kScalar);
  int64_t columns = 0;
  for (auto _ : state) {
    columns += catalog.Rescore(instance);
    benchmark::DoNotOptimize(catalog);
  }
  util::simd::ResetLevel();
  state.counters["columns_per_s"] = benchmark::Counter(
      static_cast<double>(columns), benchmark::Counter::kIsRate);
  state.counters["simd"] = benchmark::Counter(
      static_cast<double>(util::simd::DetectedLevel() !=
                              util::simd::Level::kScalar &&
                          state.range(0) != 0));
}
BENCHMARK(BM_ScoreColumnsSoA)->Arg(0)->Arg(1);

// Incremental catalog maintenance: one ApplyDelta tick (re-enumerate ~1% of
// users, tombstone + append + inverted-index patch, auto-compaction at the
// default thresholds) on the 1k-user instance. Compare against
// BM_BuildAdmissibleCatalog/1000 — the full rebuild a delta replaces.
void BM_CatalogApplyDelta(benchmark::State& state) {
  auto instance = MakeInstance(1000);
  auto catalog = core::AdmissibleCatalog::Build(instance, {});
  Rng rng(19);
  gen::DeltaStreamConfig config;
  config.num_ticks = 64;
  config.user_updates_per_tick = static_cast<int32_t>(state.range(0));
  config.event_updates_per_tick = 1;
  const auto stream = gen::GenerateDeltaStream(instance, config, &rng);
  size_t next = 0;
  int64_t compactions = 0;
  for (auto _ : state) {
    const auto& delta = stream[next];
    next = (next + 1) % stream.size();
    auto status = core::ApplyDelta(&instance, delta);
    auto result = catalog.ApplyDelta(instance, delta, {});
    if (!status.ok() || !result.ok()) {
      state.SkipWithError("delta apply failed");
      break;
    }
    compactions += result->compacted ? 1 : 0;
    benchmark::DoNotOptimize(catalog);
  }
  state.counters["touched_users"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["compactions"] =
      benchmark::Counter(static_cast<double>(compactions));
}
BENCHMARK(BM_CatalogApplyDelta)->Arg(10)->Arg(50);

// Kernel re-scoring, the weight half of the incremental engine. Arg 0: a
// full-catalog Rescore on the 1k-user instance — the objective-swap path
// (set_kernel then Rescore), an upper bound on any weight delta and the
// "rebuild replaced" comparison is BM_BuildAdmissibleCatalog/1000. Arg N>0:
// one weight-only ApplyDelta tick with N graph-edge + N interest-drift
// mutations — touched columns only, no tombstones, no re-enumeration.
void BM_KernelRescore(benchmark::State& state) {
  auto instance = MakeInstance(1000);
  auto catalog = core::AdmissibleCatalog::Build(instance, {});
  const auto mutations = static_cast<int32_t>(state.range(0));
  int64_t rescored = 0;
  if (mutations == 0) {
    for (auto _ : state) {
      rescored += catalog.Rescore(instance);
      benchmark::DoNotOptimize(catalog);
    }
  } else {
    Rng rng(23);
    gen::DeltaStreamConfig config;
    config.num_ticks = 64;
    config.user_updates_per_tick = 0;
    config.event_updates_per_tick = 0;
    config.graph_updates_per_tick = mutations;
    config.interest_updates_per_tick = mutations;
    const auto stream = gen::GenerateDeltaStream(instance, config, &rng);
    size_t next = 0;
    for (auto _ : state) {
      const auto& delta = stream[next];
      next = (next + 1) % stream.size();
      auto status = core::ApplyDelta(&instance, delta);
      auto result = catalog.ApplyDelta(instance, delta, {});
      if (!status.ok() || !result.ok()) {
        state.SkipWithError("weight delta failed");
        break;
      }
      rescored += result->columns_rescored;
      benchmark::DoNotOptimize(catalog);
    }
  }
  state.counters["columns_rescored"] =
      benchmark::Counter(static_cast<double>(rescored),
                         benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_KernelRescore)->Arg(0)->Arg(4)->Arg(16);

// The S15 acceptance comparison: re-solving the benchmark LP after a small
// delta (10 touched users = 1% of the 1k-user instance), cold (/0) vs warm
// started from the pre-delta optimum (/1). Warm rescans only the touched
// users at its first iteration and certifies at that iteration's gap check,
// so the /1 row is one oracle sweep, one primal extraction and the linear-
// time polish sort; the gap between the rows is the latency the incremental
// engine saves per tick.
void BM_StructuredDualWarmVsCold(benchmark::State& state) {
  auto instance = MakeInstance(1000);
  auto catalog = core::AdmissibleCatalog::Build(instance, {});
  core::StructuredDualOptions options;
  options.num_threads = 1;
  core::DualWarmStart warm;
  auto base = core::SolveBenchmarkLpStructured(instance, catalog, options,
                                               &warm);
  if (!base.ok()) {
    state.SkipWithError("base solve failed");
    return;
  }
  Rng rng(23);
  gen::DeltaStreamConfig config;
  config.num_ticks = 1;
  config.user_updates_per_tick = 10;  // 1% of users
  config.event_updates_per_tick = 1;
  const auto stream = gen::GenerateDeltaStream(instance, config, &rng);
  if (!core::ApplyDelta(&instance, stream[0]).ok()) {
    state.SkipWithError("instance delta failed");
    return;
  }
  auto delta_result = catalog.ApplyDelta(instance, stream[0], {});
  if (!delta_result.ok()) {
    state.SkipWithError("catalog delta failed");
    return;
  }
  warm.stale.assign(static_cast<size_t>(instance.num_users()), 0);
  for (core::UserId u : delta_result->touched_users) {
    warm.stale[static_cast<size_t>(u)] = 1;
  }
  const bool warm_started = state.range(0) != 0;
  core::StructuredDualOptions solve_options = options;
  if (warm_started) solve_options.warm = &warm;
  int64_t iterations = 0;
  for (auto _ : state) {
    auto sol =
        core::SolveBenchmarkLpStructured(instance, catalog, solve_options);
    if (!sol.ok()) {
      state.SkipWithError("solve failed");
      break;
    }
    iterations = sol->iterations;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["warm"] =
      benchmark::Counter(static_cast<double>(state.range(0)));
  state.counters["iterations"] =
      benchmark::Counter(static_cast<double>(iterations));
}
BENCHMARK(BM_StructuredDualWarmVsCold)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond);

// A cold solve of the Table II Meetup simulation (default config: 190 events,
// 2,811 users) at one thread, about 2,000 iterations. Most of its user scans
// are certified unchanged and skipped (DESIGN.md §5, S19), so this row slows by
// about 2.4x if the skip stops firing. The catalog is built outside the
// timed loop.
void BM_StructuredDualMeetup(benchmark::State& state) {
  Rng rng(1);
  auto instance = gen::GenerateMeetup(gen::MeetupConfig{}, &rng);
  if (!instance.ok()) {
    state.SkipWithError("GenerateMeetup failed");
    return;
  }
  const auto catalog = core::AdmissibleCatalog::Build(*instance, {});
  core::StructuredDualOptions options;
  options.num_threads = 1;
  int64_t iterations = 0;
  for (auto _ : state) {
    auto sol = core::SolveBenchmarkLpStructured(*instance, catalog, options);
    if (!sol.ok()) {
      state.SkipWithError("solve failed");
      break;
    }
    iterations = sol->iterations;
    benchmark::DoNotOptimize(sol);
  }
  state.counters["iterations"] =
      benchmark::Counter(static_cast<double>(iterations));
}
BENCHMARK(BM_StructuredDualMeetup)->Unit(benchmark::kMillisecond);

// One serving epoch end to end (S16): coalesce `batch` queued single-mutation
// deltas, run the warm incremental pipeline, publish a snapshot. Sweeping the
// batch size shows the amortization the epoch loop buys — items_per_second is
// the service's sustained delta throughput at that batch size.
void BM_ServeEpoch(benchmark::State& state) {
  const int32_t batch = static_cast<int32_t>(state.range(0));
  const auto instance = MakeInstance(1000);
  Rng rng(27);
  gen::ArrivalProcessConfig config;
  config.num_arrivals = 4096;
  const auto arrivals = gen::GenerateArrivalProcess(instance, config, &rng);
  serve::ServeOptions options;
  options.num_threads = 1;
  options.max_batch = batch;
  options.queue_capacity = batch;
  auto service = serve::ArrangementService::Create(instance, options);
  if (!service.ok()) {
    state.SkipWithError("service bootstrap failed");
    return;
  }
  size_t next = 0;
  for (auto _ : state) {
    for (int32_t i = 0; i < batch; ++i) {
      if (!(*service)->Submit(arrivals[next].delta).ok()) {
        state.SkipWithError("submit rejected");
        return;
      }
      next = (next + 1) % arrivals.size();
    }
    auto metrics = (*service)->RunEpoch();
    if (!metrics.ok()) {
      state.SkipWithError("epoch failed");
      return;
    }
    benchmark::DoNotOptimize(metrics);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_ServeEpoch)->Arg(1)->Arg(16)->Arg(256)
    ->Unit(benchmark::kMillisecond);

// Background serve, submit-to-drain, at pipeline depth D (the --pipeline-depth
// knob): one iteration Start()s the service, bursts a fixed single-mutation
// stream through it and Stop()s (which drains). Depth 1 is the sequential
// background loop; deeper runs overlap coalesce/publish with the solve, so
// items_per_second across the args shows what stage overlap buys on an
// in-memory service (the WAL-fsync amortization on top of this is measured by
// the durable load-smoke harness, not here).
void BM_ServePipelined(benchmark::State& state) {
  const int32_t depth = static_cast<int32_t>(state.range(0));
  constexpr int32_t kDeltas = 64;
  const auto instance = MakeInstance(1000);
  Rng rng(29);
  gen::ArrivalProcessConfig config;
  config.num_arrivals = kDeltas;
  const auto arrivals = gen::GenerateArrivalProcess(instance, config, &rng);
  serve::ServeOptions options;
  options.num_threads = 1;
  options.max_batch = 1;
  options.queue_capacity = kDeltas;
  options.epoch_ms = 0.2;
  options.pipeline_depth = depth;
  auto service = serve::ArrangementService::Create(instance, options);
  if (!service.ok()) {
    state.SkipWithError("service bootstrap failed");
    return;
  }
  for (auto _ : state) {
    if (!(*service)->Start().ok()) {
      state.SkipWithError("start failed");
      return;
    }
    for (const core::ArrivalEvent& arrival : arrivals) {
      while (true) {
        const Status submitted = (*service)->Submit(arrival.delta);
        if (submitted.ok()) break;
        if (submitted.code() != StatusCode::kResourceExhausted) {
          state.SkipWithError("submit failed");
          return;
        }
      }
    }
    if (!(*service)->Stop().ok()) {
      state.SkipWithError("stop failed");
      return;
    }
  }
  state.SetItemsProcessed(state.iterations() * kDeltas);
}
// Real time, not CPU: the work happens on the service's stage threads while
// the bench thread sleeps in Submit/Stop.
BENCHMARK(BM_ServePipelined)->Arg(1)->Arg(2)->Arg(4)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_GreedyBestSet(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  const auto catalog = core::AdmissibleCatalog::Build(instance, {});
  for (auto _ : state) {
    auto arrangement = algo::GreedyBestSet(instance, catalog);
    benchmark::DoNotOptimize(arrangement);
  }
}
BENCHMARK(BM_GreedyBestSet)->Arg(2000);

void BM_LpPackingEndToEnd(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  Rng rng(3);
  for (auto _ : state) {
    auto arrangement = core::LpPacking(instance, &rng, {});
    benchmark::DoNotOptimize(arrangement);
  }
}
BENCHMARK(BM_LpPackingEndToEnd)->Arg(500)->Arg(2000);

// The two-level sharded solver end to end (decompose, coordinate, legalize)
// at a fixed 4-shard split — the same pipeline bench_sharded runs at 20k/100k
// users, kept here at micro scale so the tracked trajectory catches
// coordination-loop regressions cheaply. items_per_second is users/sec.
void BM_ShardedSolve(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  core::ShardedSolveOptions options;
  options.num_shards = 4;
  for (auto _ : state) {
    Rng rng(3);
    auto arrangement = core::ShardedSolve(instance, &rng, options);
    benchmark::DoNotOptimize(arrangement);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ShardedSolve)->Arg(2000)->Unit(benchmark::kMillisecond);

// The same 4-shard solve with catalogs spilled to the igepa-cat,1 file and a
// pathological one-shard residency budget — every shard acquisition evicts,
// so the tracked trajectory prices the worst-case mmap/munmap overhead of
// the budgeted path against BM_ShardedSolve's in-memory row.
void BM_ShardedSolveSpill(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  core::ShardedSolveStats stats;
  core::ShardedSolveOptions options;
  options.num_shards = 4;
  options.memory_budget_bytes = uint64_t{1} << 40;  // probe: all resident
  {
    Rng rng(3);
    auto arrangement = core::ShardedSolve(instance, &rng, options, &stats);
    benchmark::DoNotOptimize(arrangement);
  }
  options.memory_budget_bytes = stats.shard_footprint_bytes;
  for (auto _ : state) {
    Rng rng(3);
    auto arrangement = core::ShardedSolve(instance, &rng, options, &stats);
    benchmark::DoNotOptimize(arrangement);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
  state.counters["evictions"] =
      benchmark::Counter(static_cast<double>(stats.evictions));
}
BENCHMARK(BM_ShardedSolveSpill)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_GreedyGg(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  for (auto _ : state) {
    auto arrangement = algo::GreedyGg(instance);
    benchmark::DoNotOptimize(arrangement);
  }
}
BENCHMARK(BM_GreedyGg)->Arg(500)->Arg(2000);

void BM_RandomU(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  Rng rng(5);
  for (auto _ : state) {
    auto arrangement = algo::RandomU(instance, &rng);
    benchmark::DoNotOptimize(arrangement);
  }
}
BENCHMARK(BM_RandomU)->Arg(2000);

void BM_CheckFeasible(benchmark::State& state) {
  const auto instance = MakeInstance(static_cast<int32_t>(state.range(0)));
  auto arrangement = algo::GreedyGg(instance);
  for (auto _ : state) {
    auto status = arrangement->CheckFeasible(instance);
    benchmark::DoNotOptimize(status);
  }
}
BENCHMARK(BM_CheckFeasible)->Arg(2000);

void BM_ErdosRenyi(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    auto g = graph::ErdosRenyi(static_cast<graph::NodeId>(state.range(0)),
                               0.5, &rng);
    benchmark::DoNotOptimize(g);
  }
}
BENCHMARK(BM_ErdosRenyi)->Arg(1000)->Arg(2000);

void BM_ConflictGraphColoring(benchmark::State& state) {
  Rng rng(9);
  const auto m = conflict::MatrixConflict::Bernoulli(
      static_cast<conflict::EventId>(state.range(0)), 0.3, &rng);
  for (auto _ : state) {
    auto colors = conflict::GreedyColoring(m);
    benchmark::DoNotOptimize(colors);
  }
}
BENCHMARK(BM_ConflictGraphColoring)->Arg(200);

}  // namespace

// BENCHMARK_MAIN with a default JSON sink: BENCH_micro_core.json in the
// working directory, unless the caller already chose a --benchmark_out.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    // Match only the file-sink flag, not --benchmark_out_format.
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_micro_core.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  // The library_build_type the JSON reports describes google-benchmark's own
  // build, not this tree's; stamp the igepa compile mode so bench_compare can
  // refuse debug-build baselines.
  benchmark::AddCustomContext("igepa_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
