// Durable serve recovery: a service recovered from snapshot + WAL replay is
// bit-identical to one that never crashed — at every kill point, across
// checkpoint boundaries, and under per-epoch catalog compaction. The strongest
// pin compares whole checkpoint files byte for byte (DESIGN.md §7).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "gen/arrival_process.h"
#include "gen/synthetic.h"
#include "serve/arrangement_service.h"
#include "serve/checkpoint.h"
#include "serve/delta_wal.h"
#include "util/rng.h"

namespace igepa {
namespace serve {
namespace {

core::Instance MakeInstance(int32_t users, uint64_t seed) {
  Rng rng(seed);
  gen::SyntheticConfig config;
  config.num_users = users;
  config.num_events = 24;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

std::vector<core::InstanceDelta> MakeDeltas(const core::Instance& instance,
                                            int32_t count, uint64_t seed) {
  Rng rng(seed);
  gen::ArrivalProcessConfig config;
  config.num_arrivals = count;
  config.p_graph_edge = 0.1;
  config.p_interest_drift = 0.1;
  std::vector<core::InstanceDelta> deltas;
  for (core::ArrivalEvent& arrival :
       gen::GenerateArrivalProcess(instance, config, &rng)) {
    deltas.push_back(std::move(arrival.delta));
  }
  return deltas;
}

/// Fresh per-test state directory under the gtest temp root.
std::string StateDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::remove(Checkpointer::SnapshotPath(dir).c_str());
  std::remove(Checkpointer::WalPath(dir).c_str());
  return dir;
}

ServeOptions DurableOptions(const std::string& dir) {
  ServeOptions options;
  options.num_threads = 1;
  options.seed = 4242;
  options.durable_dir = dir;
  options.checkpoint_every = 2;
  return options;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Drives `count` deltas through the service one per epoch, starting at
/// `first`.
void RunEpochs(ArrangementService* service,
               const std::vector<core::InstanceDelta>& deltas, size_t first,
               size_t count) {
  for (size_t i = first; i < first + count; ++i) {
    ASSERT_TRUE(service->Submit(deltas[i]).ok());
    auto metrics = service->RunEpoch();
    ASSERT_TRUE(metrics.ok()) << "epoch " << i << ": "
                              << metrics.status().ToString();
  }
}

struct EndState {
  int64_t version = 0;
  double lp_objective = 0.0;
  double utility = 0.0;
  std::vector<std::pair<core::EventId, core::UserId>> pairs;
};

EndState CaptureEndState(const ArrangementService& service) {
  EndState state;
  auto snapshot = service.snapshot();
  EXPECT_NE(snapshot, nullptr);
  state.version = snapshot->version();
  state.lp_objective = snapshot->lp_objective();
  state.utility = snapshot->utility();
  state.pairs = snapshot->arrangement().pairs();
  return state;
}

using Batches = std::vector<std::vector<core::InstanceDelta>>;

/// Drives epochs [first, first + count) through the service, one batch of
/// `batches` per epoch.
void RunBatches(ArrangementService* service, const Batches& batches,
                size_t first, size_t count) {
  for (size_t i = first; i < first + count; ++i) {
    for (const core::InstanceDelta& delta : batches[i]) {
      ASSERT_TRUE(service->Submit(delta).ok());
    }
    auto metrics = service->RunEpoch();
    ASSERT_TRUE(metrics.ok()) << "epoch " << i << ": "
                              << metrics.status().ToString();
  }
}

/// Crash after epoch k for every k, recover, finish the stream: the end
/// state is bit-identical to the uninterrupted run, and so is the final
/// checkpoint file — the whole serialized engine state (RNG stream, warm
/// duals, rounding state, LP vectors, counters, instance), byte for byte.
/// Dropping the service IS the kill: every WAL append and checkpoint is
/// already fsync'd, nothing is flushed at destruction.
void ExpectEveryKillPointRecovers(const core::Instance& base,
                                  const Batches& batches,
                                  ServeOptions options,
                                  const std::string& name) {
  options.durable_dir = StateDir(name + "_ref");
  auto reference = ArrangementService::Create(base, options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  RunBatches(reference->get(), batches, 0, batches.size());
  ASSERT_TRUE((*reference)->Checkpoint().ok());
  const EndState want = CaptureEndState(**reference);
  const std::string want_snapshot =
      FileBytes(Checkpointer::SnapshotPath(options.durable_dir));

  int64_t deltas_before_kill = 0;
  for (size_t kill = 0; kill <= batches.size(); ++kill) {
    options.durable_dir = StateDir(name + "_kill_" + std::to_string(kill));
    {
      auto service = ArrangementService::Create(base, options);
      ASSERT_TRUE(service.ok());
      RunBatches(service->get(), batches, 0, kill);
    }
    auto recovered = ArrangementService::Recover(options);
    ASSERT_TRUE(recovered.ok())
        << "kill after epoch " << kill << ": "
        << recovered.status().ToString();
    EXPECT_EQ((*recovered)->Stats().deltas_applied, deltas_before_kill);
    RunBatches(recovered->get(), batches, kill, batches.size() - kill);
    ASSERT_TRUE((*recovered)->Checkpoint().ok());

    const EndState got = CaptureEndState(**recovered);
    EXPECT_EQ(got.version, want.version) << "kill " << kill;
    EXPECT_EQ(got.lp_objective, want.lp_objective) << "kill " << kill;
    EXPECT_EQ(got.utility, want.utility) << "kill " << kill;
    EXPECT_EQ(got.pairs, want.pairs) << "kill " << kill;
    EXPECT_EQ(FileBytes(Checkpointer::SnapshotPath(options.durable_dir)),
              want_snapshot)
        << "kill " << kill;
    if (kill < batches.size()) {
      deltas_before_kill += static_cast<int64_t>(batches[kill].size());
    }
  }
}

// The core guarantee, exercised at EVERY kill point of a 9-epoch run.
// checkpoint_every=2 makes the kill points alternate between "checkpoint
// just fired, WAL empty" and "WAL holds a tail to replay".
TEST(RecoveryTest, EveryKillPointRecoversBitIdentically) {
  const core::Instance base = MakeInstance(160, 51);
  const auto deltas = MakeDeltas(base, 9, 52);
  ASSERT_EQ(deltas.size(), 9u);
  Batches batches;
  for (const core::InstanceDelta& delta : deltas) batches.push_back({delta});
  ExpectEveryKillPointRecovers(base, batches, DurableOptions(""), "recovery");
}

// The same sweep over the stream of `igepa serve --events 40 --users 250
// --p-interest 0.2 --p-edge 0.1 --count 60 --seed 11 --max-batch 8
// --checkpoint-every 2`, batched into its 9 epochs the way the CLI's
// virtual-time loop cuts them. Its interest drifts reorder users' bids, so
// the catalog re-enumerates those users instead of re-scoring them in
// place; otherwise a checkpoint's column ids would address a layout that
// recovery's rebuilt catalog does not have.
TEST(RecoveryTest, EveryKillPointRecoversUnderBidReorderingDrift) {
  Rng rng(11);
  gen::SyntheticConfig instance_config;
  instance_config.num_events = 40;
  instance_config.num_users = 250;
  auto base = gen::GenerateSynthetic(instance_config, &rng);
  ASSERT_TRUE(base.ok());
  gen::ArrivalProcessConfig stream_config;
  stream_config.num_arrivals = 60;
  stream_config.rate_per_second = 200.0;
  stream_config.p_graph_edge = 0.1;
  stream_config.p_interest_drift = 0.2;
  stream_config.p_register = 1.0 - stream_config.p_cancel -
                             stream_config.p_event_capacity -
                             stream_config.p_graph_edge -
                             stream_config.p_interest_drift;
  const auto arrivals =
      gen::GenerateArrivalProcess(*base, stream_config, &rng);

  // Virtual time: an epoch closes when an arrival falls past its 100 ms
  // window or when 8 deltas are pending.
  constexpr double kWindow = 0.1;
  constexpr size_t kMaxBatch = 8;
  Batches batches(1);
  double window_end = kWindow;
  for (const core::ArrivalEvent& arrival : arrivals) {
    if (!batches.back().empty() && arrival.at_seconds >= window_end) {
      batches.emplace_back();
    }
    if (arrival.at_seconds >= window_end) {
      window_end = (std::floor(arrival.at_seconds / kWindow) + 1.0) * kWindow;
    }
    batches.back().push_back(arrival.delta);
    if (batches.back().size() >= kMaxBatch) batches.emplace_back();
  }
  if (batches.back().empty()) batches.pop_back();
  ASSERT_EQ(batches.size(), 9u);

  ServeOptions options = DurableOptions("");
  options.seed = 11 ^ 0x9E3779B97F4A7C15ULL;
  ExpectEveryKillPointRecovers(*base, batches, options, "recovery_drift");
}

// Recovery replays through compaction: with every tombstoning epoch forcing a
// catalog compact, column ids churn between checkpoints and the remapped
// warm/rounding state must still land bit-identically.
TEST(RecoveryTest, RecoversAcrossPerEpochCompaction) {
  const core::Instance base = MakeInstance(140, 61);
  const auto deltas = MakeDeltas(base, 8, 62);
  const std::string ref_dir = StateDir("recovery_compact_ref");
  ServeOptions options = DurableOptions(ref_dir);
  options.compact_tombstone_fraction = 0.0;
  options.compact_min_dead_columns = 1;  // compact every tombstoning epoch
  options.checkpoint_every = 3;

  auto reference = ArrangementService::Create(base, options);
  ASSERT_TRUE(reference.ok());
  RunEpochs(reference->get(), deltas, 0, deltas.size());
  const EndState want = CaptureEndState(**reference);

  const std::string dir = StateDir("recovery_compact_crash");
  options.durable_dir = dir;
  {
    auto service = ArrangementService::Create(base, options);
    ASSERT_TRUE(service.ok());
    RunEpochs(service->get(), deltas, 0, 5);  // dies with a 2-record WAL tail
  }
  auto recovered = ArrangementService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  RunEpochs(recovered->get(), deltas, 5, 3);
  const EndState got = CaptureEndState(**recovered);
  EXPECT_EQ(got.lp_objective, want.lp_objective);
  EXPECT_EQ(got.utility, want.utility);
  EXPECT_EQ(got.pairs, want.pairs);
}

// Durable bookkeeping must not perturb the engine: a durable run's published
// arrangement matches a plain in-memory service bit for bit.
TEST(RecoveryTest, DurableRunMatchesNonDurableRun) {
  const core::Instance base = MakeInstance(120, 71);
  const auto deltas = MakeDeltas(base, 6, 72);
  ServeOptions plain;
  plain.num_threads = 1;
  plain.seed = 4242;
  auto in_memory = ArrangementService::Create(base, plain);
  ASSERT_TRUE(in_memory.ok());
  RunEpochs(in_memory->get(), deltas, 0, deltas.size());

  auto durable = ArrangementService::Create(
      base, DurableOptions(StateDir("recovery_vs_plain")));
  ASSERT_TRUE(durable.ok());
  RunEpochs(durable->get(), deltas, 0, deltas.size());

  const EndState a = CaptureEndState(**in_memory);
  const EndState b = CaptureEndState(**durable);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.lp_objective, b.lp_objective);
  EXPECT_EQ(a.utility, b.utility);
  EXPECT_EQ(a.pairs, b.pairs);
}

TEST(RecoveryTest, ColdStartIsNotFound) {
  ServeOptions options = DurableOptions(StateDir("recovery_cold"));
  auto recovered = ArrangementService::Recover(options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kNotFound);
  // The documented cold-start dance: NotFound → Create, which bootstraps the
  // directory so the NEXT process recovers.
  auto created =
      ArrangementService::Create(MakeInstance(60, 81), options);
  ASSERT_TRUE(created.ok());
  auto now_recoverable = ArrangementService::Recover(options);
  EXPECT_TRUE(now_recoverable.ok()) << now_recoverable.status().ToString();
}

// Create() refuses a directory that already holds a snapshot: silently
// re-bootstrapping would shadow recoverable state.
TEST(RecoveryTest, CreateRefusesExistingDurableState) {
  const core::Instance base = MakeInstance(60, 83);
  const ServeOptions options = DurableOptions(StateDir("recovery_exists"));
  ASSERT_TRUE(ArrangementService::Create(base, options).ok());
  auto second = ArrangementService::Create(base, options);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kAlreadyExists);
}

// A snapshot with an empty WAL (crash exactly between a checkpoint and the
// next epoch) recovers to the checkpoint state with nothing to replay.
TEST(RecoveryTest, SnapshotWithEmptyWalRecovers) {
  const core::Instance base = MakeInstance(100, 91);
  const auto deltas = MakeDeltas(base, 4, 92);
  const ServeOptions options =
      DurableOptions(StateDir("recovery_empty_wal"));
  EndState want;
  {
    auto service = ArrangementService::Create(base, options);
    ASSERT_TRUE(service.ok());
    // checkpoint_every=2: after epoch 4 a checkpoint just fired, WAL empty.
    RunEpochs(service->get(), deltas, 0, 4);
    want = CaptureEndState(**service);
  }
  auto wal_bytes = FileBytes(Checkpointer::WalPath(options.durable_dir));
  EXPECT_TRUE(wal_bytes.empty());
  auto recovered = ArrangementService::Recover(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  const EndState got = CaptureEndState(**recovered);
  EXPECT_EQ(got.lp_objective, want.lp_objective);
  EXPECT_EQ(got.pairs, want.pairs);
  EXPECT_EQ((*recovered)->Stats().deltas_applied, 4);
}

// A WAL record whose epoch skips past the snapshot's next epoch means a log
// went missing — recovery must refuse rather than silently skip work.
TEST(RecoveryTest, WalEpochGapIsAnError) {
  const core::Instance base = MakeInstance(80, 95);
  const auto deltas = MakeDeltas(base, 3, 96);
  const ServeOptions options = DurableOptions(StateDir("recovery_gap"));
  {
    auto service = ArrangementService::Create(base, options);
    ASSERT_TRUE(service.ok());
    RunEpochs(service->get(), deltas, 0, 1);
  }
  // Forge a record far past the next expected epoch behind the intact tail.
  {
    std::vector<WalRecord> records;
    auto wal = DeltaWal::Open(Checkpointer::WalPath(options.durable_dir),
                              base.num_events(), base.num_users(), &records);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(40, 1, deltas[1]).ok());
  }
  auto recovered = ArrangementService::Recover(options);
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kIOError);
}

// Recover() keeps serving: the recovered service still checkpoints on cadence
// and a SECOND crash/recover cycle lands on the same state.
TEST(RecoveryTest, RepeatedCrashRecoverCyclesStayPinned) {
  const core::Instance base = MakeInstance(120, 101);
  const auto deltas = MakeDeltas(base, 8, 102);
  const std::string ref_dir = StateDir("recovery_repeat_ref");
  auto reference = ArrangementService::Create(base, DurableOptions(ref_dir));
  ASSERT_TRUE(reference.ok());
  RunEpochs(reference->get(), deltas, 0, deltas.size());
  const EndState want = CaptureEndState(**reference);

  const ServeOptions options = DurableOptions(StateDir("recovery_repeat"));
  {
    auto service = ArrangementService::Create(base, options);
    ASSERT_TRUE(service.ok());
    RunEpochs(service->get(), deltas, 0, 3);
  }
  {
    auto recovered = ArrangementService::Recover(options);
    ASSERT_TRUE(recovered.ok());
    RunEpochs(recovered->get(), deltas, 3, 2);
  }
  auto recovered = ArrangementService::Recover(options);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ((*recovered)->Stats().deltas_applied, 5);
  RunEpochs(recovered->get(), deltas, 5, 3);
  const EndState got = CaptureEndState(**recovered);
  EXPECT_EQ(got.lp_objective, want.lp_objective);
  EXPECT_EQ(got.utility, want.utility);
  EXPECT_EQ(got.pairs, want.pairs);
}

// Pipelined kill sweep, one level deeper than the epoch-granular sweep
// above: the in-process halt hook freezes the pipeline at EVERY stage
// boundary (0 = batch durable but not handed to the engine, 1 = applied and
// possibly checkpointed but not published, 2 = published) of chosen epochs —
// the SIGKILL-equivalent points a 3-deep pipeline adds over the sequential
// loop. Recovery must land on SOME consistent prefix of the submit order:
// at least the halt epoch's batch survives (it was durable before the
// boundary), and whatever count A survived must be byte-identical to a
// sequential run over the first A deltas. Group-committed WAL appends and
// in-flight stage tasks make A itself schedule-dependent; the byte pin is
// what rules out every torn state.
TEST(RecoveryTest, PipelinedStageBoundaryHaltsRecoverBitIdentically) {
  const core::Instance base = MakeInstance(100, 201);
  const auto deltas = MakeDeltas(base, 6, 202);
  const int64_t total = static_cast<int64_t>(deltas.size());

  // Per-prefix sequential references, built lazily: forced-checkpoint
  // snapshot bytes after the first `applied` deltas, one epoch each.
  std::map<int64_t, std::string> ref_bytes;
  auto reference_bytes = [&](int64_t applied) {
    auto it = ref_bytes.find(applied);
    if (it == ref_bytes.end()) {
      const std::string dir =
          StateDir("recovery_stage_ref_" + std::to_string(applied));
      ServeOptions options = DurableOptions(dir);
      options.max_batch = 1;
      auto service = ArrangementService::Create(base, options);
      EXPECT_TRUE(service.ok()) << service.status().ToString();
      RunEpochs(service->get(), deltas, 0, static_cast<size_t>(applied));
      EXPECT_TRUE((*service)->Checkpoint().ok());
      it = ref_bytes
               .emplace(applied, FileBytes(Checkpointer::SnapshotPath(dir)))
               .first;
    }
    return it->second;
  };

  for (const int64_t halt_epoch : {0, 2, 4}) {
    for (int32_t stage = 0; stage <= 2; ++stage) {
      const std::string label = "halt epoch " + std::to_string(halt_epoch) +
                                " stage " + std::to_string(stage);
      const std::string dir =
          StateDir("recovery_stage_" + std::to_string(halt_epoch) + "_" +
                   std::to_string(stage));
      ServeOptions options = DurableOptions(dir);
      options.max_batch = 1;
      options.pipeline_depth = 3;
      options.epoch_ms = 0.2;
      // A frozen pipeline stops draining: the queue must hold the whole
      // stream or the submitter would spin on backpressure forever.
      options.queue_capacity = 64;
      options.stage_jitter_seed = static_cast<uint64_t>(7 * halt_epoch + stage);
      options.stage_jitter_max_micros = 100;
      options.halt_after_epoch = halt_epoch;
      options.halt_at_stage = stage;
      {
        auto service = ArrangementService::Create(base, options);
        ASSERT_TRUE(service.ok()) << label;
        ASSERT_TRUE((*service)->Start().ok()) << label;
        for (const core::InstanceDelta& delta : deltas) {
          ASSERT_TRUE((*service)->Submit(delta).ok()) << label;
        }
        // Stop() joins without draining once the halt latches; dropping the
        // frozen service here is the crash.
        ASSERT_TRUE((*service)->Stop().ok()) << label;
      }
      ServeOptions recover_options = options;
      recover_options.halt_after_epoch = -1;  // recovered service runs free
      auto recovered = ArrangementService::Recover(recover_options);
      ASSERT_TRUE(recovered.ok())
          << label << ": " << recovered.status().ToString();
      const int64_t applied = (*recovered)->Stats().deltas_applied;
      EXPECT_GE(applied, halt_epoch + 1) << label;
      EXPECT_LE(applied, total) << label;
      ASSERT_TRUE((*recovered)->Checkpoint().ok()) << label;
      EXPECT_EQ(FileBytes(Checkpointer::SnapshotPath(dir)),
                reference_bytes(applied))
          << label << " recovered " << applied << " deltas";
    }
  }
}

TEST(RecoveryTest, RecoverValidatesOptions) {
  ServeOptions options;
  auto no_dir = ArrangementService::Recover(options);
  ASSERT_FALSE(no_dir.ok());
  EXPECT_EQ(no_dir.status().code(), StatusCode::kInvalidArgument);
  options.durable_dir = StateDir("recovery_opts");
  options.checkpoint_every = 0;
  auto bad_cadence = ArrangementService::Recover(options);
  ASSERT_FALSE(bad_cadence.ok());
  EXPECT_EQ(bad_cadence.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace igepa
