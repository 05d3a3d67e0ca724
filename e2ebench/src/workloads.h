#ifndef IGEPA_E2EBENCH_WORKLOADS_H_
#define IGEPA_E2EBENCH_WORKLOADS_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "checker.h"
#include "common.h"
#include "core/arrangement.h"
#include "core/lp_packing.h"

namespace e2ebench {

// Each workload fills `result` with every end-to-end metric (untraced run)
// or every per-layer metric it measures (traced run); main() adds the
// per-layer metrics a workload does not touch as 0.
void RunOfflineSolve(const RunOptions& options, RunResult* result);
void RunShardedSpill(const RunOptions& options, RunResult* result);
void RunServeDurable(const RunOptions& options, RunResult* result);

/// serve-durable's restart, run by the workload in a child process:
/// ArrangementService::Recover on `dir`, checked against the backlog
/// service's final arrangement. Writes "<seconds> <peak MiB> <verdict>" to
/// `result_path`; returns the process exit code.
int RunRestart(const std::string& dir, const std::string& expect_csv,
               int64_t expect_version, const std::string& result_path,
               uint64_t seed);

/// Options of a cold `igepa solve`-style LpPacking at `threads` threads.
inline igepa::core::LpPackingOptions ColdSolveOptions(int32_t threads) {
  igepa::core::LpPackingOptions options;
  options.num_threads = threads;
  options.structured.num_threads = threads;
  options.admissible.num_threads = threads;
  return options;
}

/// Records every failure a checker function returned, under `label`.
inline void Report(const std::string& label,
                   const std::vector<std::string>& failures,
                   RunResult* result) {
  for (const std::string& failure : failures) {
    result->CheckFailed(label + ": " + failure);
  }
}

/// Runs the output checker on one arrangement and records every failure
/// under `label`.
inline void CheckOutput(const CheckInstance& instance,
                        const igepa::core::Arrangement& arrangement,
                        const Claims& claims, const std::string& label,
                        RunResult* result) {
  Report(label, CheckArrangement(instance, arrangement.pairs(), claims),
         result);
}

/// An arrangement's pairs as bytes, for CheckSameBytes.
inline std::string_view PairBytes(const igepa::core::Arrangement& arrangement) {
  return RawBytes(std::span<const Pair>(arrangement.pairs()));
}

}  // namespace e2ebench

#endif  // IGEPA_E2EBENCH_WORKLOADS_H_
