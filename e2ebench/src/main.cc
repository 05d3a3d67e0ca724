// End-to-end benchmark of the igepa library: cold Algorithm-1 solves,
// a budgeted sharded solve and a durable arrangement service, each checked
// against the paper's definitions by an independent checker.
//
//   e2ebench --workload <offline-solve|sharded-spill|serve-durable>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--work-dir <dir>] [--out-dir <dir>]
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end set;
// with --trace 1 they are the per-layer set, and the trace-event JSON and
// the flat layer table land in --out-dir.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "workloads.h"

namespace e2ebench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end list.
constexpr MetricSpec kEndToEnd[] = {
    {"solve_s", "s"},
    {"utility", "utility"},
    {"publish_p50_ms", "ms"},
    {"publish_p99_ms", "ms"},
    {"drain_deltas_per_s", "deltas/s"},
    {"recover_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Must match BENCHMARK.json's per_layer list. A workload reports the layers
// it calls; the others are printed as 0 (that layer did no work).
constexpr MetricSpec kPerLayer[] = {
    {"catalog.build_s", "s"},
    {"catalog.columns", "count"},
    {"catalog.truncated_users", "count"},
    {"lp.structured_s", "s"},
    {"lp.structured_iterations", "count"},
    {"lp.dense_s", "s"},
    {"lp.dense_iterations", "count"},
    {"round.s", "s"},
    {"round.pairs_repaired", "count"},
    {"solve.traced_s", "s"},
    {"solve.two_threads_s", "s"},
    {"io.read_csv_s", "s"},
    {"io.write_bin_s", "s"},
    {"io.open_bin_s", "s"},
    {"io.materialize_s", "s"},
    {"sharded.solve_s", "s"},
    {"sharded.inmem_solve_s", "s"},
    {"sharded.columns", "count"},
    {"sharded.level1_iterations", "count"},
    {"sharded.coordination_iterations", "count"},
    {"sharded.pairs_repaired", "count"},
    {"spill.bytes", "bytes"},
    {"spill.page_ins", "count"},
    {"spill.evictions", "count"},
    {"spill.peak_resident_bytes", "bytes"},
    {"wal.sync_s", "s"},
    {"wal.bytes", "bytes"},
    {"tick.s", "s"},
    {"tick.catalog_delta_s", "s"},
    {"tick.warm_dual_s", "s"},
    {"tick.warm_iterations", "count"},
    {"tick.reround_s", "s"},
    {"tick.touched_users", "count"},
    {"checkpoint.write_s", "s"},
    {"checkpoint.bytes", "bytes"},
    {"checkpoint.load_s", "s"},
    {"recover.replay_s", "s"},
    {"recover.wall_s", "s"},
    {"serve.epochs", "count"},
    {"serve.batch_deltas", "count"},
    {"load.late_ms", "ms"},
};

int Usage(const std::string& why) {
  std::cerr << "e2ebench: " << why
            << "\nusage: e2ebench --workload <offline-solve|sharded-spill|"
               "serve-durable> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--out-dir <dir>]\n";
  return 2;
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  if (argc == 7 && std::string(argv[1]) == "restart") {
    // serve-durable's restart child (not a workload; see RunRestart).
    return RunRestart(argv[2], argv[3], std::strtoll(argv[4], nullptr, 10),
                      argv[5], std::strtoull(argv[6], nullptr, 10));
  }
  RunOptions options;
  options.process_start = Clock::now();
  std::string workload;
  std::string work_root = ".bench_build/e2ebench/work";
  options.out_dir = ".bench_build/e2ebench/out";
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     options.seconds > 0 && options.seconds <= 600;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      work_root = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (0 < s <= 600) and --trace (0|1) are "
                 "required");
  }
  void (*run)(const RunOptions&, RunResult*) = nullptr;
  if (workload == "offline-solve") {
    run = RunOfflineSolve;
  } else if (workload == "sharded-spill") {
    run = RunShardedSpill;
  } else if (workload == "serve-durable") {
    run = RunServeDurable;
  } else {
    return Usage("unknown --workload '" + workload + "'");
  }

  namespace fs = std::filesystem;
  options.work_dir = (fs::path(work_root) /
                      (workload + "-" + std::to_string(::getpid())))
                         .string();
  std::error_code ec;
  fs::remove_all(options.work_dir, ec);
  fs::create_directories(options.work_dir, ec);
  if (ec) return Usage("cannot create " + options.work_dir);
  if (options.trace) {
    fs::create_directories(options.out_dir, ec);
    if (ec) return Usage("cannot create " + options.out_dir);
  }

  RunResult result;
  run(options, &result);
  fs::remove_all(options.work_dir, ec);

  bool complete = true;
  std::map<std::string, Metric> printed;
  if (options.trace) {
    for (const MetricSpec& spec : kPerLayer) {
      auto it = result.metrics.find(spec.name);
      printed[spec.name] = it != result.metrics.end()
                               ? it->second
                               : Metric{0.0, spec.unit};
    }
  } else {
    for (const MetricSpec& spec : kEndToEnd) {
      auto it = result.metrics.find(spec.name);
      if (it == result.metrics.end()) {
        std::cerr << "e2ebench: workload did not measure " << spec.name << "\n";
        complete = false;
        continue;
      }
      printed[spec.name] = it->second;
    }
  }
  if (!complete || result.attempted < 1) {
    std::cerr << "e2ebench: run incomplete, no result\n";
    return 1;
  }
  std::string line = "{\"correct\": ";
  line += result.check_failures.empty() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : printed) {
    line += first ? "" : ", ";
    first = false;
    line += "\"" + name + "\": {\"value\": " + JsonNumber(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return 0;
}
