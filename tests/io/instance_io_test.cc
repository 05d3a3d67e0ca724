#include "io/instance_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "algo/baselines.h"
#include "gen/synthetic.h"
#include "tests/core/test_instances.h"

namespace igepa {
namespace io {
namespace {

using core::Instance;
using core::MakeTinyInstance;

class InstanceIoTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    return testing::TempDir() + "/" + name;
  }
};

TEST_F(InstanceIoTest, RoundTripTinyInstance) {
  const Instance original = MakeTinyInstance();
  const std::string path = TempPath("tiny.csv");
  ASSERT_TRUE(WriteInstanceCsv(original, path).ok());
  auto loaded = ReadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->num_events(), original.num_events());
  EXPECT_EQ(loaded->num_users(), original.num_users());
  EXPECT_DOUBLE_EQ(loaded->beta(), original.beta());
  for (int32_t v = 0; v < original.num_events(); ++v) {
    EXPECT_EQ(loaded->event_capacity(v), original.event_capacity(v));
    for (int32_t b = 0; b < original.num_events(); ++b) {
      EXPECT_EQ(loaded->Conflicts(v, b), original.Conflicts(v, b));
    }
  }
  for (int32_t u = 0; u < original.num_users(); ++u) {
    EXPECT_EQ(loaded->user_capacity(u), original.user_capacity(u));
    EXPECT_EQ(loaded->bids(u), original.bids(u));
    EXPECT_DOUBLE_EQ(loaded->Degree(u), original.Degree(u));
    for (core::EventId v : original.bids(u)) {
      EXPECT_DOUBLE_EQ(loaded->Interest(v, u), original.Interest(v, u));
    }
  }
}

TEST_F(InstanceIoTest, RoundTripPreservesAlgorithmBehaviour) {
  // The serialized instance must be algorithm-equivalent: the deterministic
  // greedy must produce the identical arrangement and utility.
  Rng rng(11);
  gen::SyntheticConfig config;
  config.num_events = 30;
  config.num_users = 80;
  auto original = gen::GenerateSynthetic(config, &rng);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("synthetic.csv");
  ASSERT_TRUE(WriteInstanceCsv(*original, path).ok());
  auto loaded = ReadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok());

  auto greedy_orig = algo::GreedyGg(*original);
  auto greedy_load = algo::GreedyGg(*loaded);
  ASSERT_TRUE(greedy_orig.ok());
  ASSERT_TRUE(greedy_load.ok());
  EXPECT_EQ(greedy_orig->pairs(), greedy_load->pairs());
  EXPECT_NEAR(greedy_orig->Utility(*original), greedy_load->Utility(*loaded),
              1e-9);
}

TEST_F(InstanceIoTest, DefaultKernelKeepsWritingVersionOne) {
  // Pre-kernel files must stay byte-compatible: the default objective never
  // forces the v2 header.
  const Instance original = MakeTinyInstance();
  const std::string path = TempPath("tiny_v1.csv");
  ASSERT_TRUE(WriteInstanceCsv(original, path).ok());
  std::ifstream in(path);
  std::string header;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  EXPECT_EQ(header.rfind("igepa,1,", 0), 0u) << header;
  auto loaded = ReadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->kernel().id(), "interaction_interest");
}

TEST_F(InstanceIoTest, NonDefaultKernelRoundTripsViaVersionTwo) {
  Instance original = MakeTinyInstance();
  auto kernel = core::MakeUtilityKernel("interest_only");
  ASSERT_TRUE(kernel.ok());
  original.set_kernel(std::move(*kernel));
  const std::string path = TempPath("tiny_v2.csv");
  ASSERT_TRUE(WriteInstanceCsv(original, path).ok());
  std::ifstream in(path);
  std::string header, kernel_line;
  ASSERT_TRUE(static_cast<bool>(std::getline(in, header)));
  ASSERT_TRUE(static_cast<bool>(std::getline(in, kernel_line)));
  EXPECT_EQ(header.rfind("igepa,2,", 0), 0u) << header;
  EXPECT_EQ(kernel_line, "kernel,interest_only");

  auto loaded = ReadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->kernel().id(), "interest_only");
  // The pinned kernel is live: pair weights follow the ablated objective.
  for (core::UserId u = 0; u < loaded->num_users(); ++u) {
    for (core::EventId v : loaded->bids(u)) {
      EXPECT_EQ(loaded->PairWeight(v, u), loaded->Interest(v, u));
    }
  }
}

TEST_F(InstanceIoTest, CohesionGammaRoundTripsInTheKernelRecord) {
  // A parameterized kernel id carries its parameter: cohesion with a
  // non-default γ must come back with the same γ, not the registry default.
  Instance original = MakeTinyInstance();
  original.set_kernel(std::make_shared<core::CohesionKernel>(0.9));
  const std::string path = TempPath("tiny_cohesion.csv");
  ASSERT_TRUE(WriteInstanceCsv(original, path).ok());
  auto loaded = ReadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->kernel().id(), original.kernel().id());
  const auto* kernel =
      dynamic_cast<const core::CohesionKernel*>(&loaded->kernel());
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(kernel->gamma(), 0.9);
}

TEST_F(InstanceIoTest, UnknownKernelRecordIsRejected) {
  const std::string path = TempPath("bad_kernel.csv");
  {
    std::ofstream out(path);
    out << "igepa,2,1,1,0.5\n"
        << "kernel,not-a-kernel\n"
        << "event,0,1\n"
        << "user,0,1,0\n";
  }
  auto result = ReadInstanceCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  // v1 files must not smuggle kernel records either.
  {
    std::ofstream out(path);
    out << "igepa,1,1,1,0.5\n"
        << "kernel,interest_only\n"
        << "event,0,1\n"
        << "user,0,1,0\n";
  }
  result = ReadInstanceCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(InstanceIoTest, DriftOverlaysAreFoldedIntoTheTables) {
  // Live graph/interest drift state serializes as plain table values: the
  // re-read instance scores identically without carrying overlay state.
  Instance original = MakeTinyInstance();
  ASSERT_TRUE(original.UpdateInterest(1, 0, 0.33).ok());
  ASSERT_TRUE(original.ApplyGraphEdge(0, 2, /*add=*/true).ok());
  const std::string path = TempPath("drifted.csv");
  ASSERT_TRUE(WriteInstanceCsv(original, path).ok());
  auto loaded = ReadInstanceCsv(path);
  ASSERT_TRUE(loaded.ok());
  for (core::UserId u = 0; u < original.num_users(); ++u) {
    EXPECT_EQ(loaded->Degree(u), original.Degree(u));
    for (core::EventId v : original.bids(u)) {
      EXPECT_EQ(loaded->Interest(v, u), original.Interest(v, u));
      EXPECT_EQ(loaded->PairWeight(v, u), original.PairWeight(v, u));
    }
  }
}

TEST_F(InstanceIoTest, MissingFileIsIOError) {
  auto result = ReadInstanceCsv("/nonexistent/dir/instance.csv");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
  EXPECT_EQ(WriteInstanceCsv(MakeTinyInstance(),
                             "/nonexistent/dir/instance.csv")
                .code(),
            StatusCode::kIOError);
}

TEST_F(InstanceIoTest, CorruptHeaderRejected) {
  const std::string path = TempPath("corrupt.csv");
  std::ofstream(path) << "not-an-instance,1,2,3\n";
  auto result = ReadInstanceCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(InstanceIoTest, MalformedRecordRejectedWithLineNumber) {
  const std::string path = TempPath("badline.csv");
  std::ofstream(path) << "igepa,1,2,1,0.5\n"
                      << "event,0,3\n"
                      << "event,1,3\n"
                      << "user,0,2,0;1\n"
                      << "conflict,0,99\n";  // out of range
  auto result = ReadInstanceCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find(":5"), std::string::npos)
      << "error should carry the line number: " << result.status();
}

TEST_F(InstanceIoTest, OutOfRangeIntegersRefusedNotNarrowed) {
  // In an int32_t, 4294967297 = 2^32 + 1 and 4294967298 = 2^32 + 2 narrow
  // to capacities 1 and 2, and a count above INT32_MAX narrows while the
  // vectors are sized from the wide value: each is refused at its line.
  const auto expect_refused = [this](const std::string& name,
                                     const std::string& text,
                                     const std::string& line) {
    const std::string path = TempPath(name);
    std::ofstream(path) << text;
    auto result = ReadInstanceCsv(path);
    ASSERT_FALSE(result.ok()) << name;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << name;
    EXPECT_NE(result.status().message().find(line), std::string::npos)
        << name << ": " << result.status();
  };
  expect_refused("wide_event.csv",
                 "igepa,1,1,1,0.5\nevent,0,4294967297\nuser,0,4294967298,0\n",
                 ":2:");
  expect_refused("wide_user.csv",
                 "igepa,1,1,1,0.5\nevent,0,1\nuser,0,4294967298,0\n", ":3:");
  expect_refused("wide_header.csv", "igepa,1,2147483648,1,0.5\n", ":1:");
}

TEST_F(InstanceIoTest, UnknownRecordKindRejected) {
  const std::string path = TempPath("unknown.csv");
  std::ofstream(path) << "igepa,1,1,1,0.5\n"
                      << "event,0,1\n"
                      << "user,0,1,0\n"
                      << "mystery,1,2\n";
  auto result = ReadInstanceCsv(path);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("mystery"), std::string::npos);
}

TEST_F(InstanceIoTest, ArrangementRoundTrip) {
  const Instance instance = MakeTinyInstance();
  auto greedy = algo::GreedyGg(instance);
  ASSERT_TRUE(greedy.ok());
  const std::string path = TempPath("arrangement.csv");
  ASSERT_TRUE(WriteArrangementCsv(*greedy, path).ok());
  auto loaded = ReadArrangementCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(loaded->pairs(), greedy->pairs());
  EXPECT_NEAR(loaded->Utility(instance), greedy->Utility(instance), 1e-12);
  EXPECT_TRUE(loaded->CheckFeasible(instance).ok());
}

TEST_F(InstanceIoTest, EmptyArrangementRoundTrip) {
  core::Arrangement empty(4, 5);
  const std::string path = TempPath("empty_arrangement.csv");
  ASSERT_TRUE(WriteArrangementCsv(empty, path).ok());
  auto loaded = ReadArrangementCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_events(), 4);
  EXPECT_EQ(loaded->num_users(), 5);
  EXPECT_TRUE(loaded->empty());
}

TEST_F(InstanceIoTest, ArrangementOutOfRangeIntegersRefusedNotNarrowed) {
  // Narrowed to int32_t, both files would read as a 1 x 1 arrangement
  // holding pair (0, 0).
  const std::string wide_header = TempPath("wide_arrangement.csv");
  std::ofstream(wide_header) << "arrangement,4294967297,4294967297\n"
                             << "pair,4294967296,4294967296\n";
  auto header = ReadArrangementCsv(wide_header);
  ASSERT_FALSE(header.ok());
  EXPECT_EQ(header.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(header.status().message().find(":1:"), std::string::npos)
      << header.status();

  const std::string wide_pair = TempPath("wide_pair.csv");
  std::ofstream(wide_pair) << "arrangement,1,1\n"
                           << "pair,4294967296,4294967296\n";
  auto pair = ReadArrangementCsv(wide_pair);
  ASSERT_FALSE(pair.ok());
  EXPECT_EQ(pair.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(pair.status().message().find(":2:"), std::string::npos)
      << pair.status();
}

TEST_F(InstanceIoTest, ArrangementDuplicatePairRejected) {
  const std::string path = TempPath("dup_pairs.csv");
  std::ofstream(path) << "arrangement,2,2\n"
                      << "pair,0,1\n"
                      << "pair,0,1\n";
  EXPECT_FALSE(ReadArrangementCsv(path).ok());
}

}  // namespace
}  // namespace io
}  // namespace igepa
