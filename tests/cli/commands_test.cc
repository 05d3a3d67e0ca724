#include "cli/commands.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace igepa {
namespace cli {
namespace {

struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunTool(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(CliTest, NoArgsShowsUsageAndFails) {
  const CliRun run = RunTool({});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("usage"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  EXPECT_EQ(RunTool({"--help"}).code, 0);
  EXPECT_EQ(RunTool({"help"}).code, 0);
}

TEST(CliTest, HelpListsEveryRegisteredSubcommand) {
  // The dispatcher and the help listing are derived from one command table;
  // this pins that every subcommand the tool accepts is also documented.
  const CliRun help = RunTool({"--help"});
  ASSERT_EQ(help.code, 0);
  for (const char* command : {"generate", "solve", "evaluate", "describe",
                              "convert", "replay", "serve"}) {
    EXPECT_NE(help.out.find(command), std::string::npos)
        << "igepa --help does not list '" << command << "'";
    // And each listed command actually dispatches (its --help succeeds).
    const CliRun run = RunTool({command, "--help"});
    EXPECT_EQ(run.code, 0) << command;
    EXPECT_NE(run.out.find("usage"), std::string::npos) << command;
  }
}

TEST(CliTest, UnknownCommandFails) {
  const CliRun run = RunTool({"frobnicate"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("frobnicate"), std::string::npos);
}

TEST(CliTest, GenerateRequiresOut) {
  const CliRun run = RunTool({"generate", "--kind=synthetic"});
  EXPECT_NE(run.code, 0);
  EXPECT_NE(run.err.find("--out"), std::string::npos);
}

TEST(CliTest, GenerateSolveEvaluateDescribeRoundTrip) {
  const std::string instance_path = TempPath("cli_instance.csv");
  const std::string arrangement_path = TempPath("cli_arrangement.csv");

  const CliRun gen = RunTool({"generate", "--kind=synthetic", "--events=15",
                          "--users=30", "--out=" + instance_path});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("|V|=15"), std::string::npos);

  const CliRun solve =
      RunTool({"solve", "--in=" + instance_path, "--algorithm=lp-packing",
           "--out=" + arrangement_path});
  ASSERT_EQ(solve.code, 0) << solve.err;
  EXPECT_NE(solve.out.find("utility"), std::string::npos);

  const CliRun eval = RunTool({"evaluate", "--in=" + instance_path,
                           "--arrangement=" + arrangement_path});
  ASSERT_EQ(eval.code, 0) << eval.err;
  EXPECT_NE(eval.out.find("feasible: yes"), std::string::npos);
  EXPECT_NE(eval.out.find("utility"), std::string::npos);

  const CliRun describe = RunTool({"describe", "--in=" + instance_path});
  ASSERT_EQ(describe.code, 0) << describe.err;
  EXPECT_NE(describe.out.find("bid-set sizes"), std::string::npos);
}

TEST(CliTest, SolveEveryAlgorithm) {
  const std::string instance_path = TempPath("cli_algos.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=12", "--users=20",
                 "--out=" + instance_path})
                .code,
            0);
  for (const char* algorithm :
       {"lp-packing", "gg", "random-u", "random-v", "online"}) {
    const CliRun run = RunTool({"solve", "--in=" + instance_path,
                            std::string("--algorithm=") + algorithm});
    EXPECT_EQ(run.code, 0) << algorithm << ": " << run.err;
    EXPECT_NE(run.out.find(algorithm), std::string::npos);
  }
}

TEST(CliTest, SolveEveryKernel) {
  const std::string instance_path = TempPath("cli_kernels.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=15",
                     "--users=40", "--seed=1", "--out=" + instance_path})
                .code,
            0);
  std::string default_line, interest_line;
  for (const char* kernel :
       {"interaction_interest", "interest_only", "cohesion"}) {
    const CliRun run = RunTool({"solve", "--in=" + instance_path,
                                std::string("--kernel=") + kernel});
    EXPECT_EQ(run.code, 0) << kernel << ": " << run.err;
    // The report names the active kernel.
    EXPECT_NE(run.out.find(std::string("[") + kernel + "]"),
              std::string::npos)
        << run.out;
    if (std::string(kernel) == "interaction_interest") default_line = run.out;
    if (std::string(kernel) == "interest_only") interest_line = run.out;
  }
  // No --kernel = the default objective, bit-identical result line modulo
  // the wall-clock suffix (the pre-kernel pipeline pin at CLI level).
  auto strip_timing = [](const std::string& line) {
    return line.substr(0, line.rfind(" in "));
  };
  const CliRun plain = RunTool({"solve", "--in=" + instance_path});
  EXPECT_EQ(plain.code, 0);
  EXPECT_EQ(strip_timing(plain.out), strip_timing(default_line));
  // The interest ablation must actually produce a different solve.
  EXPECT_NE(strip_timing(interest_line).substr(interest_line.find(':')),
            strip_timing(default_line).substr(default_line.find(':')));
}

TEST(CliTest, SolveUnknownKernelFailsWithKnownIds) {
  const std::string instance_path = TempPath("cli_badkernel.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=5", "--users=8",
                     "--out=" + instance_path})
                .code,
            0);
  const CliRun run =
      RunTool({"solve", "--in=" + instance_path, "--kernel=mystery"});
  EXPECT_NE(run.code, 0);
  EXPECT_NE(run.err.find("interaction_interest"), std::string::npos);
}

TEST(CliTest, GenerateWithKernelPinsFormatV2) {
  const std::string instance_path = TempPath("cli_v2.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=10",
                     "--users=16", "--kernel=interest_only",
                     "--out=" + instance_path})
                .code,
            0);
  std::ifstream in(instance_path);
  std::string header, kernel_line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, kernel_line)));
  EXPECT_EQ(header.rfind("igepa,2,", 0), 0u) << header;
  EXPECT_EQ(kernel_line, "kernel,interest_only");
  // Solving the v2 file without --kernel uses the pinned objective.
  const CliRun run = RunTool({"solve", "--in=" + instance_path});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("[interest_only]"), std::string::npos) << run.out;
}

TEST(CliTest, ReplayWeightDeltasSmoke) {
  const CliRun run = RunTool(
      {"replay", "--ticks=4", "--users=120", "--events=25",
       "--updates-per-tick=1", "--edge-updates-per-tick=2",
       "--interest-updates-per-tick=2", "--check-tolerance=0.05"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("replay check OK"), std::string::npos) << run.out;
}

TEST(CliTest, ServeWeightMixSmoke) {
  const CliRun run = RunTool({"serve", "--users=120", "--events=25",
                              "--count=30", "--p-edge=0.3",
                              "--p-interest=0.3", "--max-batch=8"});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("served 30 deltas"), std::string::npos) << run.out;
}

TEST(CliTest, SolveUnknownAlgorithmFails) {
  const std::string instance_path = TempPath("cli_badalgo.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=5", "--users=8",
                 "--out=" + instance_path})
                .code,
            0);
  const CliRun run =
      RunTool({"solve", "--in=" + instance_path, "--algorithm=simplex2000"});
  EXPECT_NE(run.code, 0);
}

TEST(CliTest, GenerateMeetupKind) {
  const std::string instance_path = TempPath("cli_meetup.csv");
  const CliRun run = RunTool({"generate", "--kind=meetup", "--events=40",
                          "--users=150", "--out=" + instance_path});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("|V|=40"), std::string::npos);
  const CliRun solve = RunTool({"solve", "--in=" + instance_path,
                            "--algorithm=gg"});
  EXPECT_EQ(solve.code, 0) << solve.err;
}

TEST(CliTest, ConvertRoundTripIsByteIdenticalAndSolvable) {
  const std::string csv1 = TempPath("cli_convert1.csv");
  const std::string bin = TempPath("cli_convert.bin");
  const std::string csv2 = TempPath("cli_convert2.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=20",
                     "--users=60", "--seed=4", "--out=" + csv1})
                .code,
            0);
  const CliRun to_bin = RunTool({"convert", "--in=" + csv1, "--out=" + bin});
  ASSERT_EQ(to_bin.code, 0) << to_bin.err;
  EXPECT_NE(to_bin.out.find("csv -> binary"), std::string::npos);
  const CliRun to_csv = RunTool({"convert", "--in=" + bin, "--out=" + csv2});
  ASSERT_EQ(to_csv.code, 0) << to_csv.err;
  EXPECT_NE(to_csv.out.find("binary -> csv"), std::string::npos);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  ASSERT_FALSE(slurp(csv1).empty());
  EXPECT_EQ(slurp(csv1), slurp(csv2));

  // solve/evaluate/describe accept the binary file directly (auto-detected),
  // and produce the same result line as the CSV. Strip the timing suffix.
  const auto stable_prefix = [](const std::string& out) {
    return out.substr(0, out.rfind(" pairs in "));
  };
  const CliRun solve_csv =
      RunTool({"solve", "--in=" + csv1, "--seed=2", "--algorithm=lp-packing"});
  const CliRun solve_bin =
      RunTool({"solve", "--in=" + bin, "--seed=2", "--algorithm=lp-packing"});
  ASSERT_EQ(solve_csv.code, 0) << solve_csv.err;
  ASSERT_EQ(solve_bin.code, 0) << solve_bin.err;
  EXPECT_EQ(stable_prefix(solve_csv.out), stable_prefix(solve_bin.out));
  EXPECT_EQ(RunTool({"describe", "--in=" + bin}).code, 0);
}

TEST(CliTest, GenerateBinaryWritesSolvableV3) {
  const std::string bin = TempPath("cli_genbin.bin");
  const CliRun gen =
      RunTool({"generate", "--kind=synthetic", "--events=15", "--users=200",
               "--seed=6", "--binary", "--out=" + bin});
  ASSERT_EQ(gen.code, 0) << gen.err;
  EXPECT_NE(gen.out.find("igepa-bin,3"), std::string::npos) << gen.out;
  const CliRun solve = RunTool({"solve", "--in=" + bin});
  EXPECT_EQ(solve.code, 0) << solve.err;
  // --binary only exists for the synthetic kind.
  EXPECT_NE(RunTool({"generate", "--kind=meetup", "--events=10", "--users=50",
                     "--binary", "--out=" + TempPath("cli_genbin2.bin")})
                .code,
            0);
}

TEST(CliTest, SolveShardedIsThreadCountInvariant) {
  const std::string bin = TempPath("cli_sharded.bin");
  const std::string arr1 = TempPath("cli_sharded1.csv");
  const std::string arr2 = TempPath("cli_sharded2.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=20",
                     "--users=600", "--seed=8", "--binary", "--out=" + bin})
                .code,
            0);
  const CliRun a =
      RunTool({"solve", "--in=" + bin, "--algorithm=lp-packing", "--sharded",
               "--shards=3", "--seed=5", "--threads=1", "--out=" + arr1});
  ASSERT_EQ(a.code, 0) << a.err;
  EXPECT_NE(a.out.find("sharded: 3 shards"), std::string::npos) << a.out;
  const CliRun b =
      RunTool({"solve", "--in=" + bin, "--algorithm=lp-packing", "--sharded",
               "--shards=3", "--seed=5", "--threads=4", "--out=" + arr2});
  ASSERT_EQ(b.code, 0) << b.err;
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  const std::string arrangement = slurp(arr1);
  ASSERT_FALSE(arrangement.empty());
  EXPECT_EQ(arrangement, slurp(arr2));
  // --sharded is an lp-packing mode, not a standalone algorithm.
  EXPECT_NE(
      RunTool({"solve", "--in=" + bin, "--algorithm=gg", "--sharded"}).code,
      0);
}

TEST(CliTest, ConvertRejectsBadArguments) {
  EXPECT_NE(RunTool({"convert", "--in=/nonexistent/i.csv",
                     "--out=" + TempPath("cli_convert_out.bin")})
                .code,
            0);
  EXPECT_NE(RunTool({"convert", "--in=" + TempPath("nope.csv")}).code, 0);
}

TEST(CliTest, EvaluateDetectsInfeasibleArrangement) {
  const std::string instance_path = TempPath("cli_infeasible_inst.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=5", "--users=8",
                 "--out=" + instance_path})
                .code,
            0);
  // Hand-craft an arrangement with an out-of-bid pair: user 0 on every event
  // is almost surely infeasible (bids are sparse).
  const std::string arrangement_path = TempPath("cli_infeasible_arr.csv");
  {
    std::ofstream f(arrangement_path);
    f << "arrangement,5,8\n";
    for (int v = 0; v < 5; ++v) f << "pair," << v << ",0\n";
  }
  const CliRun run = RunTool({"evaluate", "--in=" + instance_path,
                          "--arrangement=" + arrangement_path});
  EXPECT_EQ(run.code, 2);
  EXPECT_NE(run.out.find("INFEASIBLE"), std::string::npos);
}

TEST(CliTest, MissingFilesSurfaceIoErrors) {
  EXPECT_NE(RunTool({"solve", "--in=/nonexistent/i.csv"}).code, 0);
  EXPECT_NE(RunTool({"describe", "--in=/nonexistent/i.csv"}).code, 0);
  EXPECT_NE(RunTool({"evaluate", "--in=/nonexistent/i.csv",
                 "--arrangement=/nonexistent/a.csv"})
                .code,
            0);
}

TEST(CliTest, SolveThreadsKnobIsPurePerformance) {
  // --threads must never change the arrangement: identical stdout for 1, 2
  // and 8 workers on the same instance and seed.
  // 520 users clears every parallel gate (catalog build >= 256, dual oracle
  // >= 128, rounding >= 512), so --threads=2/8 genuinely exercise the
  // sharded paths rather than comparing serial to serial.
  const std::string instance_path = TempPath("cli_threads_inst.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=50",
                 "--users=520", "--out=" + instance_path})
                .code,
            0);
  // The report line ends with a wall-clock figure; compare everything up to
  // " pairs in " (utility, breakdown and pair count are the determinism
  // surface).
  const auto stable_prefix = [](const std::string& out) {
    return out.substr(0, out.rfind(" pairs in "));
  };
  const CliRun serial = RunTool({"solve", "--in=" + instance_path,
                             "--algorithm=lp-packing", "--seed=9",
                             "--threads=1"});
  ASSERT_EQ(serial.code, 0) << serial.err;
  ASSERT_NE(serial.out.rfind(" pairs in "), std::string::npos);
  for (const char* threads : {"2", "8"}) {
    const CliRun run = RunTool({"solve", "--in=" + instance_path,
                            "--algorithm=lp-packing", "--seed=9",
                            std::string("--threads=") + threads});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(stable_prefix(run.out), stable_prefix(serial.out))
        << "threads=" << threads;
  }
  EXPECT_NE(RunTool({"solve", "--in=" + instance_path, "--threads=-2"}).code,
            0);
}

TEST(CliTest, ReplaySmokeMatchesColdWithinTolerance) {
  // Small synthetic replay; the driver itself asserts feasibility per tick
  // and --check-tolerance turns LP drift into the exit code.
  const CliRun run =
      RunTool({"replay", "--ticks=3", "--users=120", "--events=20",
               "--updates-per-tick=3", "--threads=1",
               "--check-tolerance=0.02"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("replay check OK"), std::string::npos);
  EXPECT_NE(run.out.find("total warm"), std::string::npos);
}

TEST(CliTest, ReplayReadsDeltaStreamFile) {
  const std::string instance_path = TempPath("cli_replay_instance.csv");
  const std::string deltas_path = TempPath("cli_replay_deltas.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=12",
                     "--users=40", "--out=" + instance_path})
                .code,
            0);
  {
    std::ofstream out(deltas_path);
    out << "igepa-deltas,1,2,12,40\n"
        << "tick,0\n"
        << "user,3,2,0;4;7\n"
        << "event,5,9\n"
        << "tick,1\n"
        << "user,3,0,\n";
  }
  const CliRun run =
      RunTool({"replay", "--in=" + instance_path, "--deltas=" + deltas_path,
               "--threads=1", "--check-tolerance=0.02"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("2 ticks"), std::string::npos);
}

TEST(CliTest, ReplayRejectsBadFlags) {
  EXPECT_NE(RunTool({"replay", "--ticks=0"}).code, 0);
  EXPECT_NE(RunTool({"replay", "--threads=-1"}).code, 0);
  EXPECT_NE(
      RunTool({"replay", "--no-cold", "--check-tolerance=0.01"}).code, 0);
}

// (Per-command --help coverage lives in HelpListsEveryRegisteredSubcommand.)

TEST(CliTest, ServeVirtualTimeSmoke) {
  const CliRun run =
      RunTool({"serve", "--users=100", "--events=15", "--count=20",
               "--rate=100", "--epoch-ms=50", "--threads=1"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("virtual time"), std::string::npos);
  EXPECT_NE(run.out.find("served 20 deltas"), std::string::npos);
  EXPECT_NE(run.out.find("0 rejected, 0 pending"), std::string::npos);
  EXPECT_NE(run.out.find("snapshot v"), std::string::npos);
}

TEST(CliTest, ServeIsDeterministicInVirtualTime) {
  const std::vector<std::string> args = {
      "serve", "--users=100", "--events=15", "--count=15",
      "--rate=200", "--epoch-ms=40", "--threads=1", "--seed=33"};
  const CliRun a = RunTool(args);
  const CliRun b = RunTool(args);
  ASSERT_EQ(a.code, 0) << a.err;
  // Strip the wall-clock columns: compare the epoch/lp/utility layout via
  // the final summary lines, which carry no timing on the snapshot line.
  const auto snapshot_line = [](const std::string& out) {
    return out.substr(out.rfind("snapshot v"));
  };
  EXPECT_EQ(snapshot_line(a.out), snapshot_line(b.out));
}

TEST(CliTest, ServeReadsArrivalStreamFile) {
  const std::string instance_path = TempPath("cli_serve_instance.csv");
  const std::string arrivals_path = TempPath("cli_serve_arrivals.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=12",
                     "--users=40", "--out=" + instance_path})
                .code,
            0);
  {
    std::ofstream out(arrivals_path);
    out << "igepa-arrivals,1,3,12,40\n"
        << "user,0.01,3,2,0;4;7\n"
        << "event,0.05,5,9\n"
        << "user,0.30,3,0,\n";
  }
  const CliRun run = RunTool({"serve", "--in=" + instance_path,
                              "--arrivals=" + arrivals_path, "--threads=1",
                              "--epoch-ms=100"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("3 arrivals"), std::string::npos);
  EXPECT_NE(run.out.find("served 3 deltas"), std::string::npos);
}

TEST(CliTest, ServeSweepSmoke) {
  const CliRun run =
      RunTool({"serve", "--users=100", "--events=15", "--count=12",
               "--sweep=1,4", "--threads=1"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("serve sweep"), std::string::npos);
  EXPECT_NE(run.out.find("max-drift"), std::string::npos);
}

TEST(CliTest, ServeRealtimeSmoke) {
  const CliRun run =
      RunTool({"serve", "--users=80", "--events=12", "--count=10",
               "--rate=500", "--epoch-ms=5", "--realtime", "--speed=100",
               "--threads=1"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("realtime"), std::string::npos);
  EXPECT_NE(run.out.find("served 10 deltas"), std::string::npos);
}

TEST(CliTest, ServeHandlesHugeTimestampsWithoutHanging) {
  // A far-future (but finite) timestamp must not spin the virtual-time
  // window advance: past ~2^52·window, `window_end += window` stops making
  // progress, so the CLI jumps in closed form instead.
  const std::string instance_path = TempPath("cli_serve_huge_ts_inst.csv");
  const std::string arrivals_path = TempPath("cli_serve_huge_ts_arr.csv");
  ASSERT_EQ(RunTool({"generate", "--kind=synthetic", "--events=12",
                     "--users=40", "--out=" + instance_path})
                .code,
            0);
  {
    std::ofstream out(arrivals_path);
    out << "igepa-arrivals,1,2,12,40\n"
        << "user,0.5,3,2,0;4\n"
        << "user,1e15,7,1,2\n";
  }
  const CliRun run = RunTool({"serve", "--in=" + instance_path,
                              "--arrivals=" + arrivals_path, "--threads=1",
                              "--epoch-ms=100"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("served 2 deltas"), std::string::npos);
}

TEST(CliTest, ServeToleratesQueueSmallerThanBatch) {
  // queue-capacity below max-batch must force epochs before backpressure
  // would reject a submit, not abort the run mid-stream.
  const CliRun run =
      RunTool({"serve", "--users=80", "--events=12", "--count=12",
               "--rate=1000", "--epoch-ms=60", "--queue-capacity=3",
               "--max-batch=256", "--threads=1"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("served 12 deltas"), std::string::npos);
  EXPECT_NE(run.out.find("0 rejected, 0 pending"), std::string::npos);
}

TEST(CliTest, ServeRejectsBadFlags) {
  EXPECT_NE(RunTool({"serve", "--threads=-1"}).code, 0);
  EXPECT_NE(RunTool({"serve", "--max-batch=0"}).code, 0);
  EXPECT_NE(RunTool({"serve", "--queue-capacity=0"}).code, 0);
  EXPECT_NE(RunTool({"serve", "--epoch-ms=0"}).code, 0);
  EXPECT_NE(RunTool({"serve", "--sweep=1,zero"}).code, 0);
  EXPECT_NE(RunTool({"serve", "--in=/nonexistent/i.csv"}).code, 0);
  EXPECT_NE(RunTool({"serve", "--arrivals=/nonexistent/a.csv"}).code, 0);
  EXPECT_NE(RunTool({"serve", "--pipeline-depth=0"}).code, 0);
}

TEST(CliTest, ServeHelpDocumentsPipelineDepth) {
  const CliRun help = RunTool({"serve", "--help"});
  ASSERT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("--pipeline-depth"), std::string::npos) << help.out;
}

TEST(CliTest, ServePipelinedRealtimePrintsStageMetrics) {
  const CliRun run =
      RunTool({"serve", "--users=80", "--events=12", "--count=10",
               "--rate=500", "--epoch-ms=5", "--realtime", "--speed=100",
               "--threads=1", "--pipeline-depth=3"});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("served 10 deltas"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("stage ms p50/p99"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("pipeline depth 3"), std::string::npos) << run.out;
}

TEST(CliTest, ServePipelinedLoadTestReportsStageFamilies) {
  const std::string json_path = TempPath("cli_pipelined_load.json");
  const CliRun run =
      RunTool({"serve", "--load-test", "--users=60", "--events=12",
               "--rate=2000", "--duration=0.3", "--epoch-ms=1",
               "--max-batch=8", "--threads=1", "--pipeline-depth=4",
               "--json=" + json_path});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("load test:"), std::string::npos);
  EXPECT_NE(run.out.find("stage ms p50/p99"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("pipeline depth 4"), std::string::npos) << run.out;
  std::ifstream in(json_path);
  ASSERT_TRUE(in.is_open());
  const std::string json((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  for (const char* family :
       {"LT_ServeStageIngest/p50", "LT_ServeStageIngest/p99",
        "LT_ServeStageSolve/p50", "LT_ServeStageSolve/p99",
        "LT_ServeStageCommit/p50", "LT_ServeStageCommit/p99",
        "\"pipeline_depth\": 4"}) {
    EXPECT_NE(json.find(family), std::string::npos)
        << "load-test JSON is missing " << family;
  }
}

}  // namespace
}  // namespace cli
}  // namespace igepa
