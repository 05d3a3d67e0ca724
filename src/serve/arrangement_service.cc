#include "serve/arrangement_service.h"

#include <sys/stat.h>

#include <algorithm>
#include <csignal>
#include <string>
#include <utility>

#include "core/warm_tick.h"
#include "util/env.h"
#include "util/stats.h"
#include "util/stopwatch.h"

namespace igepa {
namespace serve {

using core::Arrangement;
using core::EventId;
using core::InstanceDelta;

ArrangementService::ArrangementService(core::Instance instance,
                                       const ServeOptions& options)
    : instance_(std::move(instance)),
      options_(options),
      master_(options.seed),
      crash_after_epoch_(GetEnvInt("IGEPA_CRASH_AFTER_EPOCH", -1)),
      crash_at_stage_(
          static_cast<int32_t>(GetEnvInt("IGEPA_CRASH_AT_STAGE", -1))) {
  dual_ = options_.dual;
  dual_.num_threads = options_.num_threads;
  delta_options_.admissible = options_.admissible;
  delta_options_.compact_tombstone_fraction =
      options_.compact_tombstone_fraction;
  delta_options_.compact_min_dead_columns = options_.compact_min_dead_columns;
  round_options_.alpha = options_.alpha;
  round_options_.num_threads = options_.num_threads;
  round_options_.structured = dual_;
}

Result<std::unique_ptr<ArrangementService>> ArrangementService::Create(
    core::Instance instance, const ServeOptions& options) {
  if (options.max_batch < 1) {
    return Status::InvalidArgument("ServeOptions::max_batch must be >= 1");
  }
  if (options.queue_capacity < 1) {
    return Status::InvalidArgument(
        "ServeOptions::queue_capacity must be >= 1");
  }
  if (options.epoch_ms < 0) {
    return Status::InvalidArgument("ServeOptions::epoch_ms must be >= 0");
  }
  if (options.metrics_history_limit < 1) {
    return Status::InvalidArgument(
        "ServeOptions::metrics_history_limit must be >= 1");
  }
  if (options.checkpoint_every < 1) {
    return Status::InvalidArgument(
        "ServeOptions::checkpoint_every must be >= 1");
  }
  if (options.pipeline_depth < 1) {
    return Status::InvalidArgument(
        "ServeOptions::pipeline_depth must be >= 1");
  }
  if (options.halt_at_stage < 0 || options.halt_at_stage > 2) {
    return Status::InvalidArgument(
        "ServeOptions::halt_at_stage must be in [0, 2]");
  }
  if (options.stage_jitter_max_micros < 0) {
    return Status::InvalidArgument(
        "ServeOptions::stage_jitter_max_micros must be >= 0");
  }
  std::unique_ptr<ArrangementService> service(
      new ArrangementService(std::move(instance), options));
  IGEPA_RETURN_IF_ERROR(service->Bootstrap());
  if (!options.durable_dir.empty()) {
    IGEPA_RETURN_IF_ERROR(service->InitDurable());
  }
  return service;
}

Result<std::unique_ptr<ArrangementService>> ArrangementService::Recover(
    const ServeOptions& options) {
  if (options.durable_dir.empty()) {
    return Status::InvalidArgument(
        "Recover: ServeOptions::durable_dir must be set");
  }
  if (options.checkpoint_every < 1) {
    return Status::InvalidArgument(
        "ServeOptions::checkpoint_every must be >= 1");
  }
  if (options.pipeline_depth < 1) {
    return Status::InvalidArgument(
        "ServeOptions::pipeline_depth must be >= 1");
  }
  IGEPA_ASSIGN_OR_RETURN(EngineSnapshot snap,
                         Checkpointer::Load(options.durable_dir));
  if (!snap.instance.has_value()) {
    return Status::Internal("loaded snapshot has no instance");
  }
  core::Instance instance = std::move(*snap.instance);
  snap.instance.reset();
  std::unique_ptr<ArrangementService> service(
      new ArrangementService(std::move(instance), options));
  IGEPA_RETURN_IF_ERROR(service->RestoreAndReplay(std::move(snap)));
  return service;
}

ArrangementService::~ArrangementService() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Destruction cannot drain: discard whatever is still queued.
    queue_.clear();
  }
  Stop();
}

Status ArrangementService::Bootstrap() {
  core::AdmissibleOptions admissible = options_.admissible;
  admissible.num_threads = options_.num_threads;
  catalog_ = core::AdmissibleCatalog::Build(instance_, admissible);
  IGEPA_ASSIGN_OR_RETURN(
      lp::LpSolution base_sol,
      core::SolveBenchmarkLpStructured(instance_, catalog_, dual_, &warm_));
  fractional_.lp = std::move(base_sol);
  Rng round_rng = master_.Fork();
  IGEPA_ASSIGN_OR_RETURN(
      Arrangement base_arr,
      core::RoundFractional(instance_, catalog_, fractional_, &round_rng,
                            round_options_, /*stats=*/nullptr,
                            &rounding_state_));
  IGEPA_RETURN_IF_ERROR(base_arr.CheckFeasible(instance_));
  const double utility = base_arr.Utility(instance_);
  Publish(/*epoch=*/-1, std::move(base_arr), fractional_.lp.objective,
          utility);
  return Status::OK();
}

Status ArrangementService::InitDurable() {
  IGEPA_RETURN_IF_ERROR(Checkpointer::EnsureDirectory(options_.durable_dir));
  struct stat st;
  if (::stat(Checkpointer::SnapshotPath(options_.durable_dir).c_str(), &st) ==
      0) {
    return Status::AlreadyExists(
        "durable directory " + options_.durable_dir +
        " already holds a snapshot; use ArrangementService::Recover");
  }
  // A WAL with no snapshot next to it is unreachable leftovers (its records
  // address state we no longer have); the epoch-0 checkpoint truncates it.
  std::vector<WalRecord> orphaned;
  IGEPA_ASSIGN_OR_RETURN(
      wal_, DeltaWal::Open(Checkpointer::WalPath(options_.durable_dir),
                           instance_.num_events(), instance_.num_users(),
                           &orphaned));
  return CheckpointInternal();
}

Status ArrangementService::RestoreAndReplay(EngineSnapshot snap) {
  const auto nv = static_cast<size_t>(instance_.num_events());
  const auto nu = static_cast<size_t>(instance_.num_users());
  // Snapshots are captured against the canonical layout, so a fresh Build on
  // the embedded instance reproduces exactly the catalog every column id in
  // the snapshot addresses. ids_revision is only a fence token between the
  // holders and the catalog — adopting the fresh catalog's value below keeps
  // the fence closed without persisting the token.
  core::AdmissibleOptions admissible = options_.admissible;
  admissible.num_threads = options_.num_threads;
  catalog_ = core::AdmissibleCatalog::Build(instance_, admissible);
  const auto cols = static_cast<size_t>(catalog_.num_columns());
  if (snap.mu.size() != nv || snap.choice.size() != nu ||
      snap.choice_value.size() != nu ||
      (!snap.stale.empty() && snap.stale.size() != nu) ||
      snap.sampled_col.size() != nu || snap.demand.size() != nv ||
      snap.cutoff.size() != nv || snap.x.size() != cols) {
    return Status::IOError(
        "snapshot state sizes do not match the catalog rebuilt from its "
        "instance");
  }
  for (const int32_t j : snap.choice) {
    if (j < -1 || j >= catalog_.num_columns()) {
      return Status::IOError("snapshot warm choice out of catalog range");
    }
  }
  for (const int32_t j : snap.sampled_col) {
    if (j < -1 || j >= catalog_.num_columns()) {
      return Status::IOError("snapshot sampled column out of catalog range");
    }
  }

  warm_.mu = std::move(snap.mu);
  warm_.choice = std::move(snap.choice);
  warm_.choice_value = std::move(snap.choice_value);
  warm_.stale = std::move(snap.stale);
  warm_.catalog_revision = catalog_.ids_revision();
  rounding_state_.sampled_col = std::move(snap.sampled_col);
  rounding_state_.demand = std::move(snap.demand);
  rounding_state_.cutoff = std::move(snap.cutoff);
  rounding_state_.catalog_revision = catalog_.ids_revision();
  fractional_.lp.status = static_cast<lp::SolveStatus>(snap.lp_status);
  fractional_.lp.objective = snap.lp_objective;
  fractional_.lp.upper_bound = snap.lp_upper_bound;
  fractional_.lp.iterations = snap.lp_iterations;
  fractional_.lp.x = std::move(snap.x);
  fractional_.lp.duals = std::move(snap.duals);
  master_.set_state(snap.rng_state);
  next_epoch_ = snap.next_epoch;
  next_version_ = snap.next_version;
  // Counters restart from what provably reached an epoch; queue-only
  // submissions died with the process (see the durability contract).
  deltas_applied_ = snap.deltas_applied;
  deltas_submitted_ = snap.deltas_applied;
  applied_cursor_ = snap.deltas_applied;
  epochs_total_ = snap.next_epoch;

  // Republish the checkpointed arrangement — a pure function of sampled_col
  // (RepairSampledColumns pins that), so it needs no persistence of its own.
  // It was originally published as version next_version - 1; stepping the
  // counter back keeps the recovered version numbering identical to the
  // uninterrupted run's.
  IGEPA_ASSIGN_OR_RETURN(
      Arrangement restored,
      core::RepairSampledColumns(instance_, catalog_,
                                 rounding_state_.sampled_col));
  IGEPA_RETURN_IF_ERROR(restored.CheckFeasible(instance_));
  const double restored_utility = restored.Utility(instance_);
  --next_version_;
  Publish(next_epoch_ == 0 ? -1 : next_epoch_ - 1, std::move(restored),
          fractional_.lp.objective, restored_utility);

  // Replay the WAL tail through the identical warm-tick pipeline. This is
  // NOT RunEpochInternal: no queue, no WAL re-append, no timing samples, no
  // crash hook — just the engine arithmetic, which is all that determinism
  // cares about.
  std::vector<WalRecord> records;
  IGEPA_ASSIGN_OR_RETURN(
      wal_, DeltaWal::Open(Checkpointer::WalPath(options_.durable_dir),
                           instance_.num_events(), instance_.num_users(),
                           &records));
  for (WalRecord& record : records) {
    if (record.epoch < next_epoch_) {
      // Logged before the snapshot was taken: the crash hit between the
      // snapshot rename and the WAL truncate. Already folded in; skip.
      continue;
    }
    if (record.epoch != next_epoch_) {
      return Status::IOError("WAL gap: expected epoch " +
                             std::to_string(next_epoch_) + ", found " +
                             std::to_string(record.epoch));
    }
    Rng epoch_rng = master_.Fork();
    auto tick = core::ApplyWarmTick(&instance_, &catalog_, &warm_,
                                    &rounding_state_, &fractional_,
                                    record.batch, &epoch_rng, dual_,
                                    delta_options_, round_options_);
    if (!tick.ok()) return tick.status();
    EpochMetrics metrics;
    metrics.epoch = next_epoch_++;
    metrics.deltas_coalesced = record.coalesced;
    metrics.touched_users = tick->touched_users;
    metrics.event_updates = tick->event_updates;
    metrics.compacted = tick->compacted;
    metrics.live_columns = catalog_.num_live_columns();
    metrics.lp_objective = fractional_.lp.objective;
    metrics.lp_iterations = fractional_.lp.iterations;
    metrics.utility = tick->arrangement.Utility(instance_);
    Publish(metrics.epoch, std::move(tick->arrangement), metrics.lp_objective,
            metrics.utility);
    metrics.snapshot_version = next_version_ - 1;
    deltas_applied_ += record.coalesced;
    deltas_submitted_ += record.coalesced;
    applied_cursor_ += record.coalesced;
    ++epochs_total_;
    history_.push_back(metrics);
  }
  // Fold the replayed tail into a fresh snapshot so the directory is clean
  // (and a crash loop cannot grow the WAL without bound).
  return CheckpointInternal();
}

Status ArrangementService::CheckpointInternal() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition("Checkpoint: service is not durable");
  }
  if (!catalog_.canonical()) {
    // Snapshot column ids must address the unique canonical Build layout so
    // recovery can rebuild the catalog from the instance alone. Compact is
    // pinned bit-identical to Build, and solves/rounds are pinned
    // bit-identical on dirty vs compacted catalogs, so canonicalizing here
    // never changes what the engine computes next.
    const std::vector<int32_t> remap = catalog_.Compact();
    warm_.Remap(remap, catalog_.ids_revision());
    rounding_state_.Remap(remap, catalog_.ids_revision());
    std::vector<double> new_x(static_cast<size_t>(catalog_.num_columns()),
                              0.0);
    for (size_t j = 0; j < remap.size() && j < fractional_.lp.x.size(); ++j) {
      if (remap[j] >= 0) {
        new_x[static_cast<size_t>(remap[j])] = fractional_.lp.x[j];
      }
    }
    fractional_.lp.x = std::move(new_x);
  }
  EngineSnapshot snap;
  snap.next_epoch = next_epoch_;
  snap.next_version = next_version_;
  // The ENGINE's applied cursor, not the commit-side deltas_applied_: in
  // pipelined mode the latter lags by in-flight commit tasks, and a snapshot
  // must describe the engine state it captures. Sequentially the two are
  // always equal here, so snapshot bytes are unchanged.
  snap.deltas_applied = applied_cursor_;
  snap.rng_state = master_.state();
  snap.mu = warm_.mu;
  snap.choice = warm_.choice;
  snap.choice_value = warm_.choice_value;
  snap.stale = warm_.stale;
  snap.sampled_col = rounding_state_.sampled_col;
  snap.demand = rounding_state_.demand;
  snap.cutoff = rounding_state_.cutoff;
  snap.lp_status = static_cast<int32_t>(fractional_.lp.status);
  snap.lp_objective = fractional_.lp.objective;
  snap.lp_upper_bound = fractional_.lp.upper_bound;
  snap.lp_iterations = fractional_.lp.iterations;
  snap.x = fractional_.lp.x;
  snap.duals = fractional_.lp.duals;
  snap.instance.emplace(instance_);
  IGEPA_RETURN_IF_ERROR(Checkpointer::Write(options_.durable_dir, snap));
  // Only after the snapshot rename is durable may the WAL shrink; recovery
  // additionally skips records older than the snapshot, so a crash between
  // these two steps loses nothing. In pipelined mode the ingest stage may
  // have appended records the engine has not applied yet — those are NOT in
  // this snapshot, so the truncate is skipped and recovery's stale-record
  // skip drops the already-captured prefix instead.
  std::lock_guard<std::mutex> wal_lock(wal_mutex_);
  if (wal_last_appended_epoch_ < next_epoch_) {
    return wal_->Reset();
  }
  return Status::OK();
}

Status ArrangementService::Checkpoint() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (running_) {
      return Status::FailedPrecondition(
          "Checkpoint: background epoch loop is running");
    }
    if (inline_epoch_) {
      return Status::FailedPrecondition("Checkpoint: an epoch is in progress");
    }
    if (!last_error_.ok()) return last_error_;
    inline_epoch_ = true;
  }
  const Status status = CheckpointInternal();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    inline_epoch_ = false;
    if (!status.ok() && last_error_.ok()) last_error_ = status;
  }
  return status;
}

Status ArrangementService::Submit(InstanceDelta delta) {
  // Validate against the fixed id space at the door (the shared
  // core::ValidateDelta — one definition of "well-formed delta" for every
  // consumer), so a batch epoch can never fail on ids and a bad client
  // delta cannot poison the engine.
  IGEPA_RETURN_IF_ERROR(core::ValidateDelta(instance_.num_events(),
                                            instance_.num_users(), delta));

  bool wake = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (static_cast<int64_t>(queue_.size()) >=
        static_cast<int64_t>(options_.queue_capacity)) {
      ++deltas_rejected_;
      return Status::ResourceExhausted(
          "Submit: queue full (" + std::to_string(options_.queue_capacity) +
          " pending deltas)");
    }
    ++deltas_submitted_;
    queue_.push_back({std::move(delta), std::chrono::steady_clock::now()});
    wake = running_ && static_cast<int64_t>(queue_.size()) >=
                           static_cast<int64_t>(options_.max_batch);
  }
  if (wake) queue_cv_.notify_all();
  return Status::OK();
}

Result<EpochMetrics> ArrangementService::RunEpoch() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (running_) {
      return Status::FailedPrecondition(
          "RunEpoch: background epoch loop is running");
    }
    if (inline_epoch_) {
      return Status::FailedPrecondition(
          "RunEpoch: another RunEpoch is in progress");
    }
    if (!last_error_.ok()) return last_error_;
    // Claimed under the same lock as the running_ check, so Start() cannot
    // slip a background loop in while this epoch runs unlocked.
    inline_epoch_ = true;
  }
  Result<EpochMetrics> metrics = RunEpochInternal();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    inline_epoch_ = false;
  }
  return metrics;
}

ArrangementService::EpochTask ArrangementService::CoalesceLocked() {
  // Coalesce: pop up to max_batch pending deltas in submit order. Updates
  // inside an InstanceDelta apply in order with later-wins semantics, so
  // concatenation IS sequential application of the popped deltas.
  EpochTask task;
  task.started = std::chrono::steady_clock::now();
  while (!queue_.empty() && task.coalesced < options_.max_batch) {
    Pending& p = queue_.front();
    task.batch.user_updates.insert(
        task.batch.user_updates.end(),
        std::make_move_iterator(p.delta.user_updates.begin()),
        std::make_move_iterator(p.delta.user_updates.end()));
    task.batch.event_updates.insert(task.batch.event_updates.end(),
                                    p.delta.event_updates.begin(),
                                    p.delta.event_updates.end());
    task.batch.graph_updates.insert(task.batch.graph_updates.end(),
                                    p.delta.graph_updates.begin(),
                                    p.delta.graph_updates.end());
    task.batch.interest_updates.insert(task.batch.interest_updates.end(),
                                       p.delta.interest_updates.begin(),
                                       p.delta.interest_updates.end());
    task.enqueue_times.push_back(p.enqueued);
    queue_.pop_front();
    ++task.coalesced;
  }
  if (!task.enqueue_times.empty()) {
    task.max_queue_delay_seconds =
        std::chrono::duration<double>(task.started - task.enqueue_times.front())
            .count();
  }
  return task;
}

Result<EpochMetrics> ArrangementService::RunEpochInternal() {
  Stopwatch watch;

  EpochTask task;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    task = CoalesceLocked();
  }
  const int32_t coalesced = task.coalesced;
  InstanceDelta batch = std::move(task.batch);
  std::vector<std::chrono::steady_clock::time_point> enqueue_times =
      std::move(task.enqueue_times);
  const double max_queue_delay = task.max_queue_delay_seconds;

  EpochMetrics metrics;
  metrics.deltas_coalesced = coalesced;
  if (coalesced == 0) {
    // No-op epoch: nothing to solve, nothing published, no RNG consumed.
    metrics.epoch = next_epoch_;
    metrics.snapshot_version = next_version_ - 1;
    metrics.lp_objective = fractional_.lp.objective;
    return metrics;
  }

  // ---- Durability point: the batch is WAL-logged and fsync'd BEFORE the
  // epoch computes anything, so once this epoch's effects are observable a
  // crash can always replay them. A failed append poisons the service — the
  // alternative would be applying a batch that recovery cannot reproduce.
  if (wal_ != nullptr) {
    std::lock_guard<std::mutex> wal_lock(wal_mutex_);
    if (Status logged = wal_->Append(next_epoch_, coalesced, batch);
        !logged.ok()) {
      std::unique_lock<std::mutex> lock(mutex_);
      last_error_ = logged;
      return logged;
    }
    wal_last_appended_epoch_ = next_epoch_;
  }
  metrics.ingest_seconds = watch.ElapsedSeconds();

  // ---- One tick of the shared incremental pipeline on the coalesced batch
  // (core::ApplyWarmTick — the same call a replay tick makes, which is what
  // keeps the service and the replay driver bit-identical by construction).
  Rng epoch_rng = master_.Fork();
  auto tick = core::ApplyWarmTick(&instance_, &catalog_, &warm_,
                                  &rounding_state_, &fractional_, batch,
                                  &epoch_rng, dual_, delta_options_,
                                  round_options_);
  if (!tick.ok()) {
    std::unique_lock<std::mutex> lock(mutex_);
    last_error_ = tick.status();
    return tick.status();
  }

  metrics.epoch = next_epoch_++;
  metrics.touched_users = tick->touched_users;
  metrics.event_updates = tick->event_updates;
  metrics.compacted = tick->compacted;
  metrics.live_columns = catalog_.num_live_columns();
  metrics.lp_objective = fractional_.lp.objective;
  metrics.lp_iterations = fractional_.lp.iterations;
  metrics.utility = tick->arrangement.Utility(instance_);
  metrics.max_queue_delay_seconds = max_queue_delay;
  metrics.solve_seconds = watch.ElapsedSeconds() - metrics.ingest_seconds;
  applied_cursor_ += coalesced;

  Publish(metrics.epoch, std::move(tick->arrangement), metrics.lp_objective,
          metrics.utility);
  metrics.snapshot_version = next_version_ - 1;
  metrics.epoch_seconds = watch.ElapsedSeconds();
  metrics.commit_seconds =
      metrics.epoch_seconds - metrics.ingest_seconds - metrics.solve_seconds;

  {
    const auto published = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    deltas_applied_ += coalesced;
    ++epochs_total_;
    total_epoch_seconds_ += metrics.epoch_seconds;
    history_.push_back(metrics);
    while (static_cast<int64_t>(history_.size()) >
           static_cast<int64_t>(std::max(1, options_.metrics_history_limit))) {
      history_.pop_front();
    }
    PushSample(&epoch_seconds_samples_, &epoch_seconds_next_,
               metrics.epoch_seconds);
    PushSample(&ingest_seconds_samples_, &ingest_seconds_next_,
               metrics.ingest_seconds);
    PushSample(&solve_seconds_samples_, &solve_seconds_next_,
               metrics.solve_seconds);
    PushSample(&commit_seconds_samples_, &commit_seconds_next_,
               metrics.commit_seconds);
    for (const auto& enqueued : enqueue_times) {
      PushSample(&publish_latency_samples_, &publish_latency_next_,
                 std::chrono::duration<double>(published - enqueued).count());
    }
  }

  if (wal_ != nullptr && next_epoch_ % options_.checkpoint_every == 0) {
    if (Status checkpointed = CheckpointInternal(); !checkpointed.ok()) {
      std::unique_lock<std::mutex> lock(mutex_);
      last_error_ = checkpointed;
      return checkpointed;
    }
  }

  if (crash_after_epoch_ >= 0 && metrics.epoch == crash_after_epoch_) {
    // CI kill-point hook (IGEPA_CRASH_AFTER_EPOCH): die unceremoniously
    // AFTER this epoch became durable and visible — no destructors, no
    // flushes — so the recovery suite can prove the restart reproduces it
    // bit for bit.
    std::raise(SIGKILL);
  }
  return metrics;
}

void ArrangementService::PushSample(std::vector<double>* ring, size_t* next,
                                    double value) {
  if (ring->size() < kLatencySampleCap) {
    ring->push_back(value);
  } else {
    (*ring)[*next] = value;
    *next = (*next + 1) % kLatencySampleCap;
  }
}

void ArrangementService::Publish(int64_t epoch, Arrangement arrangement,
                                 double lp_objective, double utility) {
  InstallSnapshot(std::make_shared<const ArrangementSnapshot>(
      next_version_++, epoch, std::move(arrangement), lp_objective, utility));
}

void ArrangementService::InstallSnapshot(
    std::shared_ptr<const ArrangementSnapshot> snapshot) {
  // Snapshot construction happens before this call (outside the lock); the
  // critical section is one pointer swap.
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snapshot);
}

Status ArrangementService::Start() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (running_) {
    return Status::FailedPrecondition("Start: epoch loop already running");
  }
  if (inline_epoch_) {
    return Status::FailedPrecondition(
        "Start: a caller-driven RunEpoch is in progress");
  }
  if (!last_error_.ok()) return last_error_;
  if (loop_.joinable()) loop_.join();  // previous loop fully stopped
  running_ = true;
  stop_requested_ = false;
  if (options_.pipeline_depth > 1) {
    engine_queue_ =
        std::make_shared<StageQueue<EpochTask>>(options_.pipeline_depth);
    commit_queue_ =
        std::make_shared<StageQueue<CommitTask>>(options_.pipeline_depth);
    loop_ = std::thread([this] { PipelineLoop(); });
  } else {
    loop_ = std::thread([this] { BackgroundLoop(); });
  }
  return Status::OK();
}

Status ArrangementService::Stop() {
  // Serialize Stop() calls (including the destructor's): the loser of a
  // concurrent Stop must wait for the winner's join, not return while the
  // loop thread is still inside an epoch. The thread handle is additionally
  // claimed under mutex_ so std::thread::join — which is not thread-safe —
  // is never entered twice.
  std::lock_guard<std::mutex> stop_lock(stop_mutex_);
  std::thread to_join;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!running_ && !loop_.joinable()) return last_error_;
    stop_requested_ = true;
    to_join = std::move(loop_);
  }
  queue_cv_.notify_all();
  if (to_join.joinable()) to_join.join();
  std::unique_lock<std::mutex> lock(mutex_);
  running_ = false;
  return last_error_;
}

void ArrangementService::BackgroundLoop() {
  const auto period = std::chrono::duration<double, std::milli>(
      options_.epoch_ms > 0 ? options_.epoch_ms : 1.0);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait_for(lock, period, [this] {
        return stop_requested_ ||
               static_cast<int64_t>(queue_.size()) >=
                   static_cast<int64_t>(options_.max_batch);
      });
      if (stop_requested_ && queue_.empty()) break;
      if (!last_error_.ok()) break;
    }
    auto metrics = RunEpochInternal();
    if (!metrics.ok()) break;  // RunEpochInternal latched last_error_
  }
  std::unique_lock<std::mutex> lock(mutex_);
  running_ = false;
}

// ---- Pipelined background mode (pipeline_depth >= 2; DESIGN.md §7). Three
// stage threads — ingest, engine, commit — with strictly partitioned state:
// ingest owns the submit queue drain and all WAL appends, the engine is the
// ONLY writer of engine state (instance/catalog/warm/rounding/fractional/
// master RNG/epoch+version counters) and the only checkpoint taker, commit
// owns the snapshot install and the mutex_-guarded bookkeeping. Handoffs are
// by-value through bounded StageQueues, so no stage ever aliases another's
// mutable data, and the queue mutexes give the cross-thread happens-before.

void ArrangementService::PipelineLoop() {
  std::thread engine([this] { EngineStage(); });
  std::thread commit([this] { CommitStage(); });
  IngestStage();
  // Close front to back: the engine drains whatever ingest admitted, then
  // closes the commit queue itself; the extra Close here is an idempotent
  // safety net for the engine-error path.
  engine_queue_->Close();
  engine.join();
  commit_queue_->Close();
  commit.join();
  std::unique_lock<std::mutex> lock(mutex_);
  running_ = false;
}

void ArrangementService::IngestStage() {
  const auto period = std::chrono::duration<double, std::milli>(
      options_.epoch_ms > 0 ? options_.epoch_ms : 1.0);
  Rng jitter(options_.stage_jitter_seed ^ 0xA11CE0FULL);
  // Epoch ids are assigned here, in admit order; the engine consumes them in
  // the same order (FIFO queue) and advances next_epoch_ in lockstep. Stable
  // to read once at stage start: the engine thread does not exist yet.
  int64_t ingest_epoch = next_epoch_;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait_for(lock, period, [this] {
        return stop_requested_ ||
               static_cast<int64_t>(queue_.size()) >=
                   static_cast<int64_t>(options_.max_batch);
      });
      if (!last_error_.ok()) return;
      if (halted_.load(std::memory_order_acquire)) return;
      if (stop_requested_ && queue_.empty()) return;
    }
    MaybeJitter(&jitter);
    if (halted_.load(std::memory_order_acquire)) return;
    Stopwatch ingest_watch;
    // Admit up to pipeline_depth epoch batches per wakeup so one fsync below
    // covers the whole group (group commit) — the durability cost amortizes
    // with depth while each batch still becomes durable before its handoff.
    std::vector<EpochTask> group;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      while (!queue_.empty() && static_cast<int32_t>(group.size()) <
                                    options_.pipeline_depth) {
        EpochTask task = CoalesceLocked();
        if (task.coalesced == 0) break;
        task.epoch = ingest_epoch++;
        group.push_back(std::move(task));
      }
    }
    if (group.empty()) continue;
    if (wal_ != nullptr) {
      std::lock_guard<std::mutex> wal_lock(wal_mutex_);
      Status logged = Status::OK();
      for (const EpochTask& task : group) {
        logged = wal_->Append(task.epoch, task.coalesced, task.batch,
                              /*sync=*/false);
        if (!logged.ok()) break;
      }
      if (logged.ok()) logged = wal_->Sync();
      if (!logged.ok()) {
        // A batch that might not be durable must never reach the engine —
        // recovery could not reproduce its effects. Poison and shut down.
        {
          std::unique_lock<std::mutex> lock(mutex_);
          if (last_error_.ok()) last_error_ = logged;
        }
        engine_queue_->Close();
        return;
      }
      wal_last_appended_epoch_ = group.back().epoch;
    }
    const double ingest_seconds =
        ingest_watch.ElapsedSeconds() / static_cast<double>(group.size());
    for (EpochTask& task : group) {
      task.ingest_seconds = ingest_seconds;
      const int64_t epoch = task.epoch;
      // Stage-0 boundary: the batch is durable but not handed off — a crash
      // or halt here leaves a WAL record the engine never applied, which
      // recovery replays.
      if (StageBoundary(0, epoch)) return;
      if (!engine_queue_->Push(std::move(task))) return;  // engine failed
    }
  }
}

void ArrangementService::EngineStage() {
  Rng jitter(options_.stage_jitter_seed ^ 0xE46142ULL);
  auto fail = [this](const Status& status) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (last_error_.ok()) last_error_ = status;
    }
    // Unblock a pushing ingest and a popping commit; PipelineLoop joins.
    engine_queue_->Close();
    commit_queue_->Close();
  };
  EpochTask task;
  while (engine_queue_->Pop(&task)) {
    if (halted_.load(std::memory_order_acquire)) continue;  // drain-discard
    MaybeJitter(&jitter);
    if (task.epoch != next_epoch_) {
      fail(Status::Internal("pipeline epoch out of order: ingest handed " +
                            std::to_string(task.epoch) + ", engine expects " +
                            std::to_string(next_epoch_)));
      return;
    }
    Stopwatch solve_watch;
    // The fork happens strictly after the ingest stage made this batch
    // durable (queue handoff order), preserving WAL-before-fork; exactly one
    // fork per non-empty epoch in epoch order keeps the RNG stream — and so
    // every published arrangement — bit-identical to the sequential loop.
    Rng epoch_rng = master_.Fork();
    auto tick = core::ApplyWarmTick(&instance_, &catalog_, &warm_,
                                    &rounding_state_, &fractional_, task.batch,
                                    &epoch_rng, dual_, delta_options_,
                                    round_options_);
    if (!tick.ok()) {
      fail(tick.status());
      return;
    }
    CommitTask out;
    out.metrics.epoch = next_epoch_++;
    out.metrics.deltas_coalesced = task.coalesced;
    out.metrics.touched_users = tick->touched_users;
    out.metrics.event_updates = tick->event_updates;
    out.metrics.compacted = tick->compacted;
    out.metrics.live_columns = catalog_.num_live_columns();
    out.metrics.lp_objective = fractional_.lp.objective;
    out.metrics.lp_iterations = fractional_.lp.iterations;
    out.metrics.utility = tick->arrangement.Utility(instance_);
    out.metrics.max_queue_delay_seconds = task.max_queue_delay_seconds;
    out.metrics.ingest_seconds = task.ingest_seconds;
    applied_cursor_ += task.coalesced;
    // Version assignment and snapshot construction stay in the engine (the
    // sole owner of next_version_) so a checkpoint taken below captures the
    // same counters a sequential run would; the commit stage only swaps the
    // pointer in.
    out.snapshot = std::make_shared<const ArrangementSnapshot>(
        next_version_++, out.metrics.epoch, std::move(tick->arrangement),
        out.metrics.lp_objective, out.metrics.utility);
    out.metrics.snapshot_version = next_version_ - 1;
    out.enqueue_times = std::move(task.enqueue_times);
    out.started = task.started;
    if (wal_ != nullptr && next_epoch_ % options_.checkpoint_every == 0) {
      if (Status checkpointed = CheckpointInternal(); !checkpointed.ok()) {
        fail(checkpointed);
        return;
      }
    }
    out.metrics.solve_seconds = solve_watch.ElapsedSeconds();
    // Stage-1 boundary: applied and (possibly) checkpointed, never
    // published — recovery rebuilds this state from the WAL record.
    if (StageBoundary(1, out.metrics.epoch)) continue;
    if (!commit_queue_->Push(std::move(out))) return;
  }
  commit_queue_->Close();
}

void ArrangementService::CommitStage() {
  Rng jitter(options_.stage_jitter_seed ^ 0xC03317ULL);
  CommitTask task;
  while (commit_queue_->Pop(&task)) {
    if (halted_.load(std::memory_order_acquire)) continue;  // drain-discard
    MaybeJitter(&jitter);
    Stopwatch commit_watch;
    InstallSnapshot(std::move(task.snapshot));
    const auto published = std::chrono::steady_clock::now();
    task.metrics.commit_seconds = commit_watch.ElapsedSeconds();
    task.metrics.epoch_seconds =
        std::chrono::duration<double>(published - task.started).count();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      deltas_applied_ += task.metrics.deltas_coalesced;
      ++epochs_total_;
      total_epoch_seconds_ += task.metrics.epoch_seconds;
      history_.push_back(task.metrics);
      while (static_cast<int64_t>(history_.size()) >
             static_cast<int64_t>(
                 std::max(1, options_.metrics_history_limit))) {
        history_.pop_front();
      }
      PushSample(&epoch_seconds_samples_, &epoch_seconds_next_,
                 task.metrics.epoch_seconds);
      PushSample(&ingest_seconds_samples_, &ingest_seconds_next_,
                 task.metrics.ingest_seconds);
      PushSample(&solve_seconds_samples_, &solve_seconds_next_,
                 task.metrics.solve_seconds);
      PushSample(&commit_seconds_samples_, &commit_seconds_next_,
                 task.metrics.commit_seconds);
      for (const auto& enqueued : task.enqueue_times) {
        PushSample(&publish_latency_samples_, &publish_latency_next_,
                   std::chrono::duration<double>(published - enqueued).count());
      }
    }
    // Stage-2 boundary: the epoch is fully visible (matches the sequential
    // IGEPA_CRASH_AFTER_EPOCH kill point).
    StageBoundary(2, task.metrics.epoch);
  }
}

bool ArrangementService::StageBoundary(int32_t stage, int64_t epoch) {
  if (crash_after_epoch_ >= 0 && epoch == crash_after_epoch_) {
    const int32_t crash_stage = crash_at_stage_ >= 0 ? crash_at_stage_ : 2;
    if (stage == crash_stage) {
      // CI kill-point hook: die unceremoniously — no destructors, no
      // flushes — so the recovery suite can prove the restart reproduces
      // the durable state bit for bit.
      std::raise(SIGKILL);
    }
  }
  if (options_.halt_after_epoch >= 0 && epoch == options_.halt_after_epoch &&
      stage == options_.halt_at_stage) {
    halted_.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

void ArrangementService::MaybeJitter(Rng* jitter_rng) {
  if (options_.stage_jitter_max_micros <= 0) return;
  std::this_thread::sleep_for(std::chrono::microseconds(jitter_rng->NextIndex(
      static_cast<uint64_t>(options_.stage_jitter_max_micros) + 1)));
}

ServiceStats ArrangementService::Stats() const {
  ServiceStats stats;
  stats.pipeline_depth = options_.pipeline_depth;
  std::shared_ptr<const ArrangementSnapshot> snap = snapshot();
  std::vector<double> epoch_sorted;
  std::vector<double> publish_sorted;
  std::vector<double> ingest_sorted;
  std::vector<double> solve_sorted;
  std::vector<double> commit_sorted;
  std::shared_ptr<StageQueue<EpochTask>> engine_queue;
  std::shared_ptr<StageQueue<CommitTask>> commit_queue;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    stats.epochs = epochs_total_;
    stats.total_epoch_seconds = total_epoch_seconds_;
    stats.deltas_submitted = deltas_submitted_;
    stats.deltas_applied = deltas_applied_;
    stats.deltas_rejected = deltas_rejected_;
    stats.deltas_pending = static_cast<int64_t>(queue_.size());
    epoch_sorted = epoch_seconds_samples_;  // bounded copies; sort unlocked
    publish_sorted = publish_latency_samples_;
    ingest_sorted = ingest_seconds_samples_;
    solve_sorted = solve_seconds_samples_;
    commit_sorted = commit_seconds_samples_;
    engine_queue = engine_queue_;
    commit_queue = commit_queue_;
  }
  if (snap != nullptr) {
    stats.snapshot_version = snap->version();
    stats.lp_objective = snap->lp_objective();
    stats.utility = snap->utility();
  }
  if (engine_queue != nullptr) {
    const StageQueueStats qs = engine_queue->stats();
    stats.engine_queue_peak = qs.peak_size;
    stats.ingest_stalls = qs.push_waits;
  }
  if (commit_queue != nullptr) {
    stats.commit_queue_peak = commit_queue->stats().peak_size;
  }
  auto fill = [](std::vector<double>* sorted, double* p50, double* p99) {
    std::sort(sorted->begin(), sorted->end());
    if (sorted->empty()) return;
    *p50 = SortedPercentile(*sorted, 0.50);
    *p99 = SortedPercentile(*sorted, 0.99);
  };
  fill(&epoch_sorted, &stats.p50_epoch_seconds, &stats.p99_epoch_seconds);
  fill(&publish_sorted, &stats.p50_publish_latency_seconds,
       &stats.p99_publish_latency_seconds);
  fill(&ingest_sorted, &stats.p50_ingest_seconds, &stats.p99_ingest_seconds);
  fill(&solve_sorted, &stats.p50_solve_seconds, &stats.p99_solve_seconds);
  fill(&commit_sorted, &stats.p50_commit_seconds, &stats.p99_commit_seconds);
  return stats;
}

std::vector<EpochMetrics> ArrangementService::MetricsHistory() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return std::vector<EpochMetrics>(history_.begin(), history_.end());
}

Status ArrangementService::last_error() const {
  std::unique_lock<std::mutex> lock(mutex_);
  return last_error_;
}

}  // namespace serve
}  // namespace igepa
