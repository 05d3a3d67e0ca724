// Empirical Theorem-2 study: with α = 1/2 the expected utility of Algorithm 1
// is at least OPT/4. This bench measures E[ALG]/OPT over tiny instances where
// the exact optimum is computed by branch-and-bound, and reports the minimum
// observed ratio (which must stay >= 0.25 up to Monte-Carlo noise; in
// practice it is far higher). The "LP" column is the structured dual's
// objective, the x* that is rounded: a kApproximate solve certifies it within
// target_gap of the exact LP optimum LP*, so it can sit just below LP*.

#include <cstdio>

#include "algo/exact.h"
#include "bench/bench_common.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "util/stats.h"

int main() {
  using namespace igepa;
  const int32_t instances = static_cast<int32_t>(GetEnvInt("IGEPA_RATIO_INSTANCES", 20));
  const int32_t trials = static_cast<int32_t>(GetEnvInt("IGEPA_RATIO_TRIALS", 200));

  gen::SyntheticConfig config;
  config.num_events = 8;
  config.num_users = 7;
  config.max_event_capacity = 3;
  config.max_user_capacity = 3;

  std::printf("igepa reproduction — Theorem 2 ratio study (alpha = 1/2)\n");
  std::printf("%d tiny instances (|V|=%d, |U|=%d), %d sampling trials each\n\n",
              instances, config.num_events, config.num_users, trials);
  std::printf("%-10s %12s %12s %12s %12s\n", "instance", "OPT", "LP",
              "E[ALG]", "E[ALG]/OPT");

  Rng master(GetEnvInt("IGEPA_SEED", 20190408));
  RunningStat ratios;
  double min_ratio = 1e9;
  for (int32_t i = 0; i < instances; ++i) {
    Rng gen_rng = master.Fork();
    auto instance = gen::GenerateSynthetic(config, &gen_rng);
    if (!instance.ok()) return 1;
    algo::ExactStats exact_stats;
    auto exact = algo::SolveExact(*instance, {}, &exact_stats);
    if (!exact.ok()) {
      std::fprintf(stderr, "exact failed: %s\n",
                   exact.status().ToString().c_str());
      return 1;
    }
    if (exact_stats.optimum <= 1e-9) continue;

    core::LpPackingOptions options;
    options.alpha = 0.5;
    const auto catalog = core::AdmissibleCatalog::Build(*instance, {});
    auto fractional =
        core::SolveBenchmarkLpForPacking(*instance, catalog, options);
    if (!fractional.ok()) return 1;
    double total = 0.0;
    for (int32_t t = 0; t < trials; ++t) {
      Rng rng = master.Fork();
      auto arrangement = core::RoundFractional(*instance, catalog,
                                               *fractional, &rng, options);
      if (!arrangement.ok()) return 1;
      total += arrangement->Utility(*instance);
    }
    const double expected = total / trials;
    const double ratio = expected / exact_stats.optimum;
    ratios.Add(ratio);
    min_ratio = std::min(min_ratio, ratio);
    std::printf("%-10d %12.4f %12.4f %12.4f %12.4f\n", i,
                exact_stats.optimum, fractional->lp.objective, expected,
                ratio);
  }
  std::printf("\nmean ratio %.4f, min ratio %.4f  (Theorem 2 bound: 0.25)\n",
              ratios.mean(), min_ratio);
  return min_ratio >= 0.25 ? 0 : 2;
}
