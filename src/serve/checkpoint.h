#ifndef IGEPA_SERVE_CHECKPOINT_H_
#define IGEPA_SERVE_CHECKPOINT_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "lp/solution.h"
#include "util/result.h"

namespace igepa {
namespace serve {

/// The complete engine state of an ArrangementService as of one completed
/// epoch — everything a deterministic restart needs to continue bit-identical
/// to a process that never died (DESIGN.md §7). Captured against a CANONICAL
/// catalog (the service compacts before checkpointing), so every column id in
/// here addresses the unique Build layout of the embedded instance and a
/// fresh Build at recovery resolves them all.
struct EngineSnapshot {
  /// Epoch/version counters: the NEXT epoch to run and snapshot version to
  /// publish, plus the Submit()-granularity deltas consumed so far (the
  /// arrival-stream cursor a resuming driver skips by).
  int64_t next_epoch = 0;
  int64_t next_version = 1;
  int64_t deltas_applied = 0;
  /// The master RNG's four xoshiro256** words. Restoring them is what keeps
  /// the fork-per-epoch sampling sequence identical across a restart.
  std::array<uint64_t, 4> rng_state{};
  // ---- DualWarmStart (stale is re-derived per tick but serialized anyway
  // so a snapshot is the whole struct, byte for byte). ----
  std::vector<double> mu;
  std::vector<int32_t> choice;
  std::vector<double> choice_value;
  std::vector<uint8_t> stale;
  // ---- RoundingState. ----
  std::vector<int32_t> sampled_col;
  std::vector<int32_t> demand;
  std::vector<int32_t> cutoff;
  // ---- FractionalSolution.lp (the structured dual's solution). ----
  int32_t lp_status = 0;
  double lp_objective = 0.0;
  double lp_upper_bound = 0.0;
  int64_t lp_iterations = 0;
  std::vector<double> x;
  std::vector<double> duals;
  /// The instance as of the checkpointed epoch. The file stores it by kind
  /// (docs/FORMATS.md §7): capacities, bids, conflict pairs and exact
  /// degrees as records, and SI as its base model — a HashUniformInterest
  /// seed, or else the |V|×|U| base table as one raw section — plus the
  /// sorted interest-drift overrides, which Load re-applies. Every SI value
  /// reads back bit for bit, non-bid pairs included, so a later
  /// re-registration sees the value the original model gives. Always set on
  /// Load; must be set for Write.
  std::optional<core::Instance> instance;
};

/// Atomic snapshot persistence — the checkpoint half of the serve durability
/// pair (the delta half is serve::DeltaWal). One self-contained file per
/// directory, `snapshot.igs`, replaced atomically (write tmp → fsync →
/// rename → fsync dir), so a crash at any instant leaves either the old
/// snapshot or the new one, never a torn mix.
///
/// Format version 2 (docs/FORMATS.md §7) is line-oriented text: a header
/// with the engine counters, the RNG words in hex, each state vector and
/// instance record length-prefixed, doubles as 16-hex-digit IEEE-754 bit
/// patterns (exact round-trip without trusting decimal formatting), one raw
/// little-endian section only for an interest base with no compact form, and
/// a trailing CRC-32 line over everything above it. Overrides are written
/// sorted, so the bytes do not depend on the order the drifts arrived in and
/// equal engine states write equal files. Load checks every count against
/// the bytes that remain before allocating, and refuses anything malformed —
/// a version-1 file included — with IOError.
class Checkpointer {
 public:
  /// `<dir>/snapshot.igs`.
  static std::string SnapshotPath(const std::string& dir);
  /// `<dir>/wal.log` — the WAL that accompanies the snapshot.
  static std::string WalPath(const std::string& dir);

  /// Creates `dir` (and missing parents). OK when it already exists.
  static Status EnsureDirectory(const std::string& dir);

  /// Serializes and atomically replaces `<dir>/snapshot.igs`. Requires
  /// snapshot.instance to be set.
  static Status Write(const std::string& dir, const EngineSnapshot& snapshot);

  /// Loads `<dir>/snapshot.igs`: NotFound when absent (cold start), IOError
  /// on CRC mismatch, another format version or malformed contents.
  static Result<EngineSnapshot> Load(const std::string& dir);
};

}  // namespace serve
}  // namespace igepa

#endif  // IGEPA_SERVE_CHECKPOINT_H_
