#ifndef IGEPA_E2EBENCH_COMMON_H_
#define IGEPA_E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
double SecondsBetween(Clock::time_point from, Clock::time_point to);

/// Seconds since `from`.
double SecondsSince(Clock::time_point from);

/// Linear-interpolation quantile (q in [0, 1]) of `values`, the same rule as
/// numpy's default; 0 for an empty vector.
double Quantile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// CPU seconds this process has used, all threads (CLOCK_PROCESS_CPUTIME_ID).
/// Single-threaded library calls are timed with it: on the 4-vCPU host the
/// hypervisor at times steals three times the benchmark's own busy time,
/// which stretches wall time by up to 2x between runs but is not charged
/// to the process.
double ProcessCpuSeconds();

/// Peak resident set of this process in MiB (VmHWM from /proc/self/status).
double PeakRssMiB();

/// The whole file as bytes ("" when it cannot be read).
std::string FileBytes(const std::string& path);

/// Solver threads of every measured solve and service. On the 4-vCPU host
/// the hypervisor steals up to a third of busy vCPU time, and a 2-thread
/// solve waits at every per-iteration barrier for whichever vCPU was
/// descheduled: repeated 100,000-user sharded solves spread 35 % at 2
/// threads against 5 % at 1. The traced run checks that 2 threads give the
/// identical arrangements and reports their time as the scaling figure.
inline constexpr int32_t kSolverThreads = 1;
inline constexpr int32_t kScalingThreads = 2;

/// One named metric as printed in the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What a workload run hands back to main: its metrics (end-to-end or
/// per-layer, by mode), operation counts and check failures.
struct RunResult {
  std::map<std::string, Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// One entry per failed output check; `correct` is true iff empty.
  std::vector<std::string> check_failures;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed output check (printed to stderr by main).
  void CheckFailed(const std::string& what);
  /// Records a failed operation (a library call that returned an error).
  void OperationFailed(const std::string& what);
};

/// Options every workload receives from the command line.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory inside the checkout (inputs, spill files,
  /// durable serve state); removed when the run ends.
  std::string work_dir;
  /// Where the traced run writes its trace-event JSON and layer table.
  std::string out_dir;
  /// Process start, the origin of setup_s.
  Clock::time_point process_start;
};

/// Derives a decorrelated 64-bit seed for input `stream` from the run seed.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Seed of each workload's fixed inputs: its instances and serve-durable's
/// backlog stream (the CLI's default seed). --seed drives everything else
/// random in a run: every solve's and service's sampling seed and the
/// open-loop arrival stream. Instances drawn per seed spread offline-solve's
/// solve_s 40 % over five seeds (their duals need different iteration
/// counts), far more than any useful bound.
inline constexpr uint64_t kInstanceSeed = 20190408;

}  // namespace e2ebench

#endif  // IGEPA_E2EBENCH_COMMON_H_
