// offline-solve: cold Algorithm-1 solves (core::LpPacking) of the paper's
// instance families, read from CSV the way `igepa solve` reads them — the
// simulated Meetup dataset of Table II and a Table-I synthetic sweep over
// |U|. Every round solves every instance once; solve_s is the sum over
// instances of each one's median solve-call CPU time (process CPU seconds,
// see ProcessCpuSeconds).

#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"
#include "core/admissible_catalog.h"
#include "core/lp_packing.h"
#include "gen/meetup_sim.h"
#include "gen/synthetic.h"
#include "io/instance_io.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2ebench {
namespace {

using igepa::Rng;
using igepa::core::AdmissibleCatalog;
using igepa::core::Arrangement;
using igepa::core::Instance;
using igepa::core::LpPackingOptions;
using igepa::core::LpPackingStats;

struct OfflineInstance {
  std::string name;
  std::string path;
  Instance instance;
  CheckInstance check;
  uint64_t solve_seed = 0;
  bool bound_applies = false;
};

// The Table-I sweep of Fig. 1(b) (|V| = 200, paper defaults otherwise).
// 500 users is the size kAuto still sends to the dense simplex; the rest
// run on the structured dual.
constexpr int32_t kSweepUsers[] = {500, 1000, 2000, 5000, 10000, 50000};

Claims ClaimsFor(const OfflineInstance& in, const Arrangement& arrangement,
                 double upper_bound) {
  Claims claims;
  claims.utility = arrangement.Utility(in.instance);
  claims.kernel_utility = arrangement.KernelUtility(in.instance);
  if (in.bound_applies) claims.upper_bound = upper_bound;
  return claims;
}

}  // namespace

void RunOfflineSolve(const RunOptions& options, RunResult* result) {
  Tracer tracer(options.trace);
  std::vector<OfflineInstance> instances;

  // ---- Set-up: generate, write and read back every instance. ----
  std::vector<std::pair<std::string, Instance>> generated;
  {
    Rng rng(SubSeed(kInstanceSeed, 1));
    auto meetup = igepa::gen::GenerateMeetup(igepa::gen::MeetupConfig{}, &rng);
    if (!meetup.ok()) {
      result->OperationFailed("GenerateMeetup: " + meetup.status().ToString());
      return;
    }
    generated.emplace_back("meetup", std::move(*meetup));
  }
  uint64_t stream = 2;
  for (int32_t users : kSweepUsers) {
    igepa::gen::SyntheticConfig config;
    config.num_users = users;
    Rng rng(SubSeed(kInstanceSeed, stream++));
    auto synthetic = igepa::gen::GenerateSynthetic(config, &rng);
    if (!synthetic.ok()) {
      result->OperationFailed("GenerateSynthetic: " +
                              synthetic.status().ToString());
      return;
    }
    generated.emplace_back("synthetic-" + std::to_string(users),
                           std::move(*synthetic));
  }
  double read_csv_s = 0.0;
  for (auto& [name, instance] : generated) {
    const std::string path = options.work_dir + "/" + name + ".csv";
    if (auto s = igepa::io::WriteInstanceCsv(instance, path); !s.ok()) {
      result->OperationFailed("WriteInstanceCsv: " + s.ToString());
      return;
    }
    Scope read(&tracer, "io.read_csv");
    auto loaded = igepa::io::ReadInstanceCsv(path);
    read_csv_s += read.Stop();
    ++result->attempted;
    if (!loaded.ok()) {
      result->OperationFailed("ReadInstanceCsv: " + loaded.status().ToString());
      return;
    }
    OfflineInstance in{name, path, std::move(*loaded), {}, 0, false};
    instances.push_back(std::move(in));
  }
  generated.clear();
  const double setup_s = SecondsSince(options.process_start);

  // The checker's own parse of every file (not part of the measured set-up).
  int64_t total_users = 0;
  for (size_t i = 0; i < instances.size(); ++i) {
    OfflineInstance& in = instances[i];
    if (std::string err = ParseInstanceCsv(in.path, &in.check); !err.empty()) {
      result->CheckFailed("checker parse: " + err);
      return;
    }
    in.solve_seed = SubSeed(options.seed, 100 + i);
    in.bound_applies = EnumerationCannotTruncate(
        in.check, igepa::core::AdmissibleOptions{}.max_sets_per_user);
    total_users += in.instance.num_users();
  }

  const LpPackingOptions solve_options = ColdSolveOptions(kSolverThreads);

  if (options.trace) {
    // One round with LpPacking's three stages called separately, each in
    // its own span, plus the LP-certificate check; then the same instances
    // once more at kScalingThreads as the scaling figure.
    double build_s = 0, structured_s = 0, dense_s = 0, round_s = 0;
    double traced_s = 0, scaling_s = 0;
    int64_t columns = 0, truncated_users = 0, structured_iterations = 0;
    int64_t dense_iterations = 0, pairs_repaired = 0;
    std::vector<Arrangement> traced(instances.size());
    for (size_t i = 0; i < instances.size(); ++i) {
      const OfflineInstance& in = instances[i];
      const double start_cpu = ProcessCpuSeconds();
      Scope solve(&tracer, "solve." + in.name);
      Scope build(&tracer, "catalog.build");
      const AdmissibleCatalog catalog =
          AdmissibleCatalog::Build(in.instance, solve_options.admissible);
      build_s += build.Stop();
      Scope lp(&tracer, "lp");
      auto fractional = igepa::core::SolveBenchmarkLpForPacking(
          in.instance, catalog, solve_options);
      const double lp_s = lp.Stop();
      ++result->attempted;
      if (!fractional.ok()) {
        result->OperationFailed(in.name + ": SolveBenchmarkLpForPacking: " +
                                fractional.status().ToString());
        continue;
      }
      lp.Rename(fractional->structured ? "lp.structured" : "lp.dense");
      (fractional->structured ? structured_s : dense_s) += lp_s;
      (fractional->structured ? structured_iterations : dense_iterations) +=
          fractional->lp.iterations;
      Rng rng(in.solve_seed);
      LpPackingStats stats;
      Scope round(&tracer, "round");
      auto arrangement = igepa::core::RoundFractional(
          in.instance, catalog, *fractional, &rng, solve_options, &stats);
      round_s += round.Stop();
      solve.Stop();
      traced_s += ProcessCpuSeconds() - start_cpu;
      if (!arrangement.ok()) {
        result->OperationFailed(in.name + ": RoundFractional: " +
                                arrangement.status().ToString());
        continue;
      }
      columns += catalog.num_columns();
      for (int32_t u = 0; u < catalog.num_users(); ++u) {
        truncated_users += catalog.truncated(u) ? 1 : 0;
      }
      pairs_repaired += stats.pairs_repaired;

      const auto& sol = fractional->lp;
      const size_t nu = static_cast<size_t>(in.instance.num_users());
      // Duals are user rows then event rows; the checker wants one per event.
      const std::span<const double> mu =
          sol.duals.size() >= nu ? std::span<const double>(sol.duals).subspan(nu)
                                 : std::span<const double>();
      LpCertificate cert{catalog.pool(),   catalog.col_begin(),
                         catalog.col_users(), catalog.weights(),
                         sol.x,            sol.objective,
                         sol.upper_bound,  mu};
      Report(in.name, CheckLpCertificate(in.check, cert), result);
      CheckOutput(in.check, *arrangement,
                  ClaimsFor(in, *arrangement, sol.upper_bound), in.name,
                  result);
      traced[i] = std::move(*arrangement);
    }
    const LpPackingOptions scaling = ColdSolveOptions(kScalingThreads);
    for (size_t i = 0; i < instances.size(); ++i) {
      if (traced[i].num_users() == 0) continue;  // its traced solve failed
      const OfflineInstance& in = instances[i];
      Rng rng(in.solve_seed);
      Scope solve(&tracer, "solve.two_threads." + in.name);
      auto arrangement = igepa::core::LpPacking(in.instance, &rng, scaling);
      scaling_s += solve.Stop();
      ++result->attempted;
      if (!arrangement.ok()) {
        result->OperationFailed(in.name + ": LpPacking(" +
                                std::to_string(kScalingThreads) +
                                " threads): " +
                                arrangement.status().ToString());
        continue;
      }
      Report(in.name,
             CheckSameBytes("thread-identity",
                            std::to_string(kSolverThreads) + "- and " +
                                std::to_string(kScalingThreads) +
                                "-thread arrangements",
                            PairBytes(traced[i]), PairBytes(*arrangement)),
             result);
    }
    result->Set("catalog.build_s", build_s, "s");
    result->Set("catalog.columns", static_cast<double>(columns), "count");
    result->Set("catalog.truncated_users", static_cast<double>(truncated_users),
                "count");
    result->Set("lp.structured_s", structured_s, "s");
    result->Set("lp.structured_iterations",
                static_cast<double>(structured_iterations), "count");
    result->Set("lp.dense_s", dense_s, "s");
    result->Set("lp.dense_iterations", static_cast<double>(dense_iterations),
                "count");
    result->Set("round.s", round_s, "s");
    result->Set("round.pairs_repaired", static_cast<double>(pairs_repaired),
                "count");
    result->Set("solve.traced_s", traced_s, "s");
    result->Set("solve.two_threads_s", scaling_s, "s");
    result->Set("io.read_csv_s", read_csv_s, "s");
    tracer.WriteTraceEvents(options.out_dir + "/offline-solve.trace.json");
    tracer.WriteLayerTable(options.out_dir + "/offline-solve.layers.tsv");
    return;
  }

  // ---- Measured rounds: each instance read from its CSV and solved cold,
  // once per round, as one `igepa solve --in` run does. Times are process
  // CPU seconds (the process runs nothing else meanwhile). solve_s sums each
  // instance's median solve time over rounds, so a burst of host contention
  // during one solve does not move it; recover_s sums the medians of read +
  // solve, the time until a restarted offline user has the arrangements
  // again. ----
  std::vector<std::vector<double>> solve_seconds(instances.size());
  std::vector<std::vector<double>> reload_seconds(instances.size());
  std::vector<double> call_ms;
  double utility = 0.0;
  bool first_round = true;
  const Clock::time_point measure_start = Clock::now();
  do {
    double round_utility = 0.0;
    for (size_t i = 0; i < instances.size(); ++i) {
      const OfflineInstance& in = instances[i];
      const double read_cpu = ProcessCpuSeconds();
      auto loaded = igepa::io::ReadInstanceCsv(in.path);
      ++result->attempted;
      if (!loaded.ok()) {
        result->OperationFailed("ReadInstanceCsv: " +
                                loaded.status().ToString());
        continue;
      }
      Rng rng(in.solve_seed);
      LpPackingStats stats;
      const double solve_cpu = ProcessCpuSeconds();
      auto arrangement =
          igepa::core::LpPacking(*loaded, &rng, solve_options, &stats);
      const double end_cpu = ProcessCpuSeconds();
      const double seconds = end_cpu - solve_cpu;
      ++result->attempted;
      if (!arrangement.ok()) {
        result->OperationFailed(in.name + ": LpPacking: " +
                                arrangement.status().ToString());
        continue;
      }
      solve_seconds[i].push_back(seconds);
      reload_seconds[i].push_back(end_cpu - read_cpu);
      call_ms.push_back(seconds * 1e3);
      const Claims claims = ClaimsFor(in, *arrangement, stats.lp_upper_bound);
      CheckOutput(in.check, *arrangement, claims, in.name, result);
      round_utility += claims.utility;
    }
    if (first_round) utility = round_utility;
    first_round = false;
  } while (SecondsSince(measure_start) < options.seconds);

  double solve_s = 0.0;
  double reload_s = 0.0;
  for (size_t i = 0; i < instances.size(); ++i) {
    solve_s += Median(solve_seconds[i]);
    reload_s += Median(reload_seconds[i]);
  }
  for (size_t i = 0; i < instances.size(); ++i) {
    std::cerr << "offline-solve: " << instances[i].name << " CPU s:";
    for (double x : solve_seconds[i]) std::cerr << " " << x;
    std::cerr << "\n";
  }
  result->Set("solve_s", solve_s, "s");
  result->Set("utility", utility, "utility");
  result->Set("publish_p50_ms", Quantile(call_ms, 0.5), "ms");
  result->Set("publish_p99_ms", Quantile(call_ms, 0.99), "ms");
  result->Set("drain_deltas_per_s",
              static_cast<double>(total_users) / solve_s, "deltas/s");
  result->Set("recover_s", reload_s, "s");
  result->Set("setup_s", setup_s, "s");
  result->Set("peak_rss_mb", PeakRssMiB(), "MiB");
}

}  // namespace e2ebench
