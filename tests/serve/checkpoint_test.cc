// Checkpointer: EngineSnapshot round trip with exact doubles (including the
// sub-0.1 values fixed-precision formatting would corrupt) for both interest
// encodings of format v2, canonical override order, refusal of v1 files,
// inflated counts and tampered or truncated files, the cold-start NotFound
// contract, and the size of a served 4,000-user snapshot.

#include "serve/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "io/instance_io.h"
#include "serve/arrangement_service.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace igepa {
namespace serve {
namespace {

std::string StateDir(const std::string& name) {
  const std::string dir = testing::TempDir() + "/" + name;
  EXPECT_TRUE(Checkpointer::EnsureDirectory(dir).ok());
  std::remove(Checkpointer::SnapshotPath(dir).c_str());
  std::remove(Checkpointer::WalPath(dir).c_str());
  return dir;
}

/// A synthetic instance: its SI is a HashUniformInterest.
core::Instance MakeInstance(int32_t users = 40, int32_t events = 10) {
  Rng rng(17);
  gen::SyntheticConfig config;
  config.num_users = users;
  config.num_events = events;
  auto instance = gen::GenerateSynthetic(config, &rng);
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

/// The same instance read back from its CSV: its SI is a TableInterest that
/// holds the bid pairs and reads 0 elsewhere.
core::Instance MakeTableInstance() {
  std::stringstream csv;
  EXPECT_TRUE(io::WriteInstanceCsv(MakeInstance(), csv, "table").ok());
  auto instance = io::ReadInstanceCsv(csv, "table");
  EXPECT_TRUE(instance.ok());
  return std::move(instance).value();
}

/// Interest drift on bid and non-bid pairs, and graph-edge drift.
void AddDrift(core::Instance* instance) {
  ASSERT_TRUE(instance->UpdateInterest(3, 7, 0.099999999999999992).ok());
  ASSERT_TRUE(instance->UpdateInterest(0, 39, 1.0).ok());
  ASSERT_TRUE(instance->UpdateInterest(9, 0, 0.0).ok());
  ASSERT_TRUE(instance->UpdateInterest(3, 7, 1.0 / 3.0).ok());  // overwrite
  const core::EventId bid = instance->bids(5).empty() ? 0
                                                       : instance->bids(5)[0];
  ASSERT_TRUE(instance->UpdateInterest(bid, 5, 0.0123456789).ok());
  ASSERT_TRUE(instance->ApplyGraphEdge(1, 2, /*add=*/true).ok());
  ASSERT_TRUE(instance->ApplyGraphEdge(1, 30, /*add=*/false).ok());
  ASSERT_TRUE(instance->ApplyGraphEdge(4, 2, /*add=*/true).ok());
}

EngineSnapshot MakeSnapshot(core::Instance instance = MakeInstance()) {
  EngineSnapshot snap;
  snap.next_epoch = 12;
  snap.next_version = 14;
  snap.deltas_applied = 57;
  snap.rng_state = {0x0123456789abcdefULL, 0xfedcba9876543210ULL, 1ULL,
                    0xffffffffffffffffULL};
  // Doubles chosen to break decimal round-tripping if the format were naive:
  // denormal-ish magnitudes, values below 0.1, and exact dyadics.
  snap.mu = {0.0123456789012345678, 1e-300, 0.5, -3.75};
  snap.choice = {-1, 0, 7, 2};
  snap.choice_value = {0.099999999999999997, 2.0 / 3.0, 0.0, 1.0};
  snap.stale = {1, 0, 0, 1};
  snap.sampled_col = {-1, 3, 5};
  snap.demand = {0, 2, 1};
  snap.cutoff = {1, 0, 4};
  snap.lp_status = 1;
  snap.lp_objective = 41.684018092384573;
  snap.lp_upper_bound = 41.684018092384609;
  snap.lp_iterations = 321;
  snap.x = {0.25, 0.031249999999999997, 1.0};
  snap.duals = {0.7, -0.0, 1e-17};
  snap.instance.emplace(std::move(instance));
  return snap;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// `body` followed by a valid CRC trailer, as Checkpointer::Write frames it.
std::string WithCrc(const std::string& body) {
  char trailer[16];
  std::snprintf(trailer, sizeof(trailer), "crc,%08x\n",
                static_cast<unsigned>(Crc32(body)));
  return body + trailer;
}

/// The file without its 13-byte CRC trailer.
std::string Body(const std::string& bytes) {
  return bytes.substr(0, bytes.size() - 13);
}

/// Every instance value Load must reproduce, compared bit for bit.
void ExpectSameInstance(const core::Instance& got, const core::Instance& want) {
  ASSERT_EQ(got.num_users(), want.num_users());
  ASSERT_EQ(got.num_events(), want.num_events());
  EXPECT_EQ(got.beta(), want.beta());
  EXPECT_EQ(got.kernel().id(), want.kernel().id());
  for (core::EventId v = 0; v < want.num_events(); ++v) {
    EXPECT_EQ(got.event_capacity(v), want.event_capacity(v)) << "event " << v;
    EXPECT_EQ(got.bidders(v), want.bidders(v)) << "event " << v;
    for (core::EventId w = 0; w < want.num_events(); ++w) {
      EXPECT_EQ(got.Conflicts(v, w), want.Conflicts(v, w));
    }
  }
  for (core::UserId u = 0; u < want.num_users(); ++u) {
    EXPECT_EQ(got.user_capacity(u), want.user_capacity(u)) << "user " << u;
    EXPECT_EQ(got.bids(u), want.bids(u)) << "user " << u;
    const double degree = got.Degree(u);
    const double want_degree = want.Degree(u);
    EXPECT_EQ(std::memcmp(&degree, &want_degree, sizeof(double)), 0)
        << "user " << u;
    for (core::EventId v = 0; v < want.num_events(); ++v) {
      const double interest = got.Interest(v, u);
      const double want_interest = want.Interest(v, u);
      EXPECT_EQ(std::memcmp(&interest, &want_interest, sizeof(double)), 0)
          << "pair (" << v << "," << u << ")";
    }
  }
}

TEST(CheckpointTest, RoundTripsEveryFieldExactly) {
  const std::string dir = StateDir("checkpoint_roundtrip");
  const EngineSnapshot snap = MakeSnapshot();
  ASSERT_TRUE(Checkpointer::Write(dir, snap).ok());
  auto loaded = Checkpointer::Load(dir);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  EXPECT_EQ(loaded->next_epoch, snap.next_epoch);
  EXPECT_EQ(loaded->next_version, snap.next_version);
  EXPECT_EQ(loaded->deltas_applied, snap.deltas_applied);
  EXPECT_EQ(loaded->rng_state, snap.rng_state);
  EXPECT_EQ(loaded->mu, snap.mu);
  EXPECT_EQ(loaded->choice, snap.choice);
  EXPECT_EQ(loaded->choice_value, snap.choice_value);
  EXPECT_EQ(loaded->stale, snap.stale);
  EXPECT_EQ(loaded->sampled_col, snap.sampled_col);
  EXPECT_EQ(loaded->demand, snap.demand);
  EXPECT_EQ(loaded->cutoff, snap.cutoff);
  EXPECT_EQ(loaded->lp_status, snap.lp_status);
  EXPECT_EQ(loaded->lp_objective, snap.lp_objective);
  EXPECT_EQ(loaded->lp_upper_bound, snap.lp_upper_bound);
  EXPECT_EQ(loaded->lp_iterations, snap.lp_iterations);
  EXPECT_EQ(loaded->x, snap.x);
  EXPECT_EQ(loaded->duals, snap.duals);
  ASSERT_TRUE(loaded->instance.has_value());
  ExpectSameInstance(*loaded->instance, *snap.instance);
}

// Both interest encodings, each under interest-drift and graph-edge
// overrides: every SI value (non-bid pairs included) and every D(G, u) reads
// back bit for bit, and writing the loaded snapshot again gives the same
// bytes.
TEST(CheckpointTest, BothInterestEncodingsRoundTripWithDrift) {
  core::Instance hash_instance = MakeInstance();
  core::Instance table_instance = MakeTableInstance();
  // A non-default kernel rides along on one of them.
  auto cohesion = core::MakeUtilityKernel("cohesion:0.5");
  ASSERT_TRUE(cohesion.ok());
  table_instance.set_kernel(*cohesion);
  for (core::Instance* instance : {&hash_instance, &table_instance}) {
    AddDrift(instance);
    const std::string dir = StateDir("checkpoint_encodings");
    ASSERT_TRUE(Checkpointer::Write(dir, MakeSnapshot(*instance)).ok());
    const std::string bytes = FileBytes(Checkpointer::SnapshotPath(dir));
    const bool table = instance == &table_instance;
    EXPECT_EQ(bytes.find("\ninterest,table,") != std::string::npos, table);
    EXPECT_EQ(bytes.find("\ninterest,hash,") != std::string::npos, !table);

    auto loaded = Checkpointer::Load(dir);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectSameInstance(*loaded->instance, *instance);
    EXPECT_EQ(loaded->instance->InterestOverrides().size(),
              instance->InterestOverrides().size());

    ASSERT_TRUE(Checkpointer::Write(dir, *loaded).ok());
    EXPECT_EQ(FileBytes(Checkpointer::SnapshotPath(dir)), bytes);
  }
}

TEST(CheckpointTest, OverrideOrderDoesNotChangeTheBytes) {
  std::vector<std::pair<core::EventId, core::UserId>> pairs;
  for (core::EventId v = 0; v < 10; ++v) {
    for (core::UserId u = v; u < 40; u += 3) pairs.emplace_back(v, u);
  }
  core::Instance forward = MakeInstance();
  core::Instance backward = MakeInstance();
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [v, u] = pairs[i];
    ASSERT_TRUE(forward.UpdateInterest(v, u, 1.0 / (1.0 + v + u)).ok());
    const auto [bv, bu] = pairs[pairs.size() - 1 - i];
    ASSERT_TRUE(backward.UpdateInterest(bv, bu, 1.0 / (1.0 + bv + bu)).ok());
  }
  const std::string dir_a = StateDir("checkpoint_order_a");
  const std::string dir_b = StateDir("checkpoint_order_b");
  ASSERT_TRUE(Checkpointer::Write(dir_a, MakeSnapshot(forward)).ok());
  ASSERT_TRUE(Checkpointer::Write(dir_b, MakeSnapshot(backward)).ok());
  EXPECT_EQ(FileBytes(Checkpointer::SnapshotPath(dir_a)),
            FileBytes(Checkpointer::SnapshotPath(dir_b)));
}

TEST(CheckpointTest, VersionOneFileIsRefused) {
  const std::string dir = StateDir("checkpoint_v1");
  WriteBytes(Checkpointer::SnapshotPath(dir),
             WithCrc("igepa-snapshot,1,0,1,0\nrng,0,0,0,0\n"));
  auto loaded = Checkpointer::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
  EXPECT_NE(loaded.status().message().find("version 1"), std::string::npos)
      << loaded.status().ToString();
}

// A count is checked against the bytes that follow it before anything is
// allocated: inflated counts with a valid CRC are IOError, not
// std::length_error or an allocation of the count's size.
TEST(CheckpointTest, InflatedCountsAreErrorsNotAllocations) {
  const std::string dir = StateDir("checkpoint_inflated");
  ASSERT_TRUE(
      Checkpointer::Write(dir, MakeSnapshot(MakeTableInstance())).ok());
  const std::string path = Checkpointer::SnapshotPath(dir);
  const std::string body = Body(FileBytes(path));
  const auto replace = [&](const std::string& from, const std::string& to) {
    std::string mutated = body;
    const size_t at = mutated.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return mutated.replace(at, from.size(), to);
  };
  const size_t table_at = body.find("\ninterest,table,") + 1;
  const std::string table_line =
      body.substr(table_at, body.find('\n', table_at) - table_at);
  const std::vector<std::string> mutants = {
      replace("\nmu,4,", "\nmu,4611686018427387904,"),
      replace("\nx,3,", "\nx,9223372036854775807,"),
      replace("\nbid_offsets,41,", "\nbid_offsets,2305843009213693952,"),
      replace("\ninstance,10,40,", "\ninstance,2147483647,2147483647,"),
      replace(table_line, "interest,table,9223372036854775800"),
      replace("\nmu,4,", "\nmu,99999999999999999999999,"),
  };
  for (const std::string& mutant : mutants) {
    WriteBytes(path, WithCrc(mutant));
    auto loaded = Checkpointer::Load(dir);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
        << loaded.status().ToString();
  }
}

/// The offsets where a truncated write could end between records: the start
/// of the file, just past each record's newline, and both edges of the raw
/// interest table, whose bytes are not records.
std::vector<size_t> RecordBoundaries(const std::string& body) {
  std::vector<size_t> ends{0};
  size_t pos = 0;
  while (pos < body.size()) {
    const size_t nl = body.find('\n', pos);
    const std::string_view line(body.data() + pos, nl - pos);
    pos = nl + 1;
    if (line.rfind("interest,table,", 0) == 0) {
      ends.push_back(pos);
      pos += std::stoull(std::string(line.substr(15))) + 1;
    }
    ends.push_back(pos);
  }
  return ends;
}

// Mutation property test for the v2 file, both encodings: seeded single-byte
// flips anywhere (the raw table section included) and truncation at every
// record boundary are IOError. With the CRC recomputed, so that the parser
// itself sees the damage, a mutant either loads or is IOError — never a
// crash, another error code or an unbounded allocation.
TEST(CheckpointTest, MutatedFilesAreRefusedNeverCrash) {
  constexpr int kFlips = 300;
  for (const bool table : {false, true}) {
    core::Instance instance = table ? MakeTableInstance() : MakeInstance();
    AddDrift(&instance);
    const std::string dir = StateDir("checkpoint_mutation");
    ASSERT_TRUE(Checkpointer::Write(dir, MakeSnapshot(instance)).ok());
    const std::string path = Checkpointer::SnapshotPath(dir);
    const std::string original = FileBytes(path);
    const std::string body = Body(original);

    // Flip positions: uniform over the file, plus a share aimed at the raw
    // interest section when there is one.
    size_t raw_begin = 0;
    size_t raw_size = 0;
    if (table) {
      const size_t line = body.find("\ninterest,table,") + 1;
      raw_begin = body.find('\n', line) + 1;
      raw_size = 10 * 40 * sizeof(double);
      ASSERT_EQ(body[raw_begin + raw_size], '\n');
    }
    Rng rng(table ? 0x5EED7AB1EULL : 0x5EED4A54ULL);
    int record_flips = 0;
    int record_flips_loaded = 0;
    for (int i = 0; i < kFlips; ++i) {
      const size_t at =
          table && i % 3 == 0
              ? raw_begin + rng.NextIndex(raw_size)
              : rng.NextIndex(original.size());
      const auto mask = static_cast<char>(1 + rng.NextIndex(255));
      // The raw table has no redundancy: most flips there give another
      // valid interest value.
      const bool in_raw = at >= raw_begin && at < raw_begin + raw_size;

      std::string flipped = original;
      flipped[at] ^= mask;
      WriteBytes(path, flipped);
      auto loaded = Checkpointer::Load(dir);
      ASSERT_FALSE(loaded.ok()) << "flip at " << at << " was accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
          << loaded.status().ToString();

      if (at >= body.size()) continue;  // the trailer itself
      std::string reframed = body;
      reframed[at] ^= mask;
      WriteBytes(path, WithCrc(reframed));
      loaded = Checkpointer::Load(dir);
      if (!loaded.ok()) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
            << "flip at " << at << ": " << loaded.status().ToString();
      }
      if (!in_raw) {
        ++record_flips;
        record_flips_loaded += loaded.ok() ? 1 : 0;
      }
    }
    // Most reframed flips in the text records are caught by the parser
    // itself.
    EXPECT_LT(record_flips_loaded, record_flips / 2);

    const std::vector<size_t> ends = RecordBoundaries(body);
    ASSERT_GT(ends.size(), 20u);
    ASSERT_EQ(ends.back(), body.size());
    for (const size_t end : ends) {
      if (end == body.size()) continue;  // the complete body
      WriteBytes(path, original.substr(0, end));
      auto loaded = Checkpointer::Load(dir);
      ASSERT_FALSE(loaded.ok()) << "cut at " << end << " was accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);

      WriteBytes(path, WithCrc(body.substr(0, end)));
      loaded = Checkpointer::Load(dir);
      ASSERT_FALSE(loaded.ok()) << "reframed cut at " << end
                                << " was accepted";
      EXPECT_EQ(loaded.status().code(), StatusCode::kIOError)
          << loaded.status().ToString();
    }
  }
}

// The epoch-0 snapshot of a durable 4,000-user, 200-event synthetic service
// — the shape of the end-to-end serve benchmark — stays small: its SI is a
// seed, not a |V|×|U| table.
TEST(CheckpointTest, ServedSyntheticSnapshotIsSmall) {
  const std::string dir = StateDir("checkpoint_size");
  ServeOptions options;
  options.num_threads = 1;
  options.durable_dir = dir;
  auto service = ArrangementService::Create(MakeInstance(4000, 200), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  const std::string bytes = FileBytes(Checkpointer::SnapshotPath(dir));
  EXPECT_GT(bytes.size(), 0u);
  EXPECT_LE(bytes.size(), 1500000u);
}

TEST(CheckpointTest, SecondWriteAtomicallyReplacesTheFirst) {
  const std::string dir = StateDir("checkpoint_replace");
  EngineSnapshot snap = MakeSnapshot();
  ASSERT_TRUE(Checkpointer::Write(dir, snap).ok());
  snap.next_epoch = 99;
  snap.deltas_applied = 1000;
  ASSERT_TRUE(Checkpointer::Write(dir, snap).ok());
  auto loaded = Checkpointer::Load(dir);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->next_epoch, 99);
  EXPECT_EQ(loaded->deltas_applied, 1000);
}

TEST(CheckpointTest, MissingSnapshotIsNotFound) {
  auto loaded = Checkpointer::Load(StateDir("checkpoint_missing"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, TamperedBytesFailTheCrc) {
  const std::string dir = StateDir("checkpoint_tamper");
  ASSERT_TRUE(Checkpointer::Write(dir, MakeSnapshot()).ok());
  const std::string path = Checkpointer::SnapshotPath(dir);
  std::string bytes = FileBytes(path);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteBytes(path, bytes);
  auto loaded = Checkpointer::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, TruncatedFileIsAnError) {
  const std::string dir = StateDir("checkpoint_truncated");
  ASSERT_TRUE(Checkpointer::Write(dir, MakeSnapshot()).ok());
  const std::string path = Checkpointer::SnapshotPath(dir);
  const std::string bytes = FileBytes(path);
  WriteBytes(path, bytes.substr(0, bytes.size() / 2));
  auto loaded = Checkpointer::Load(dir);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

TEST(CheckpointTest, WriteRequiresAnInstance) {
  EngineSnapshot snap = MakeSnapshot();
  snap.instance.reset();
  EXPECT_EQ(
      Checkpointer::Write(StateDir("checkpoint_noinst"), snap).code(),
      StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace serve
}  // namespace igepa
