// The seeded I/O fault shim (util/io_faults.h, DESIGN.md §11): spec
// parsing, per-operation determinism, and the atomic-publish guarantee
// under fault fuzz — a faulted atomic_write_file must never tear the
// published file, whatever the seed draws.
#include "util/io_faults.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "util/atomic_file.h"
#include "util/error.h"

namespace tgi::util {
namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::vector<IoFaultKind> draw(const IoFaultSpec& spec, std::size_t n) {
  ScopedIoFaults scoped(spec);
  std::vector<IoFaultKind> kinds;
  kinds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) kinds.push_back(next_io_fault());
  return kinds;
}

TEST(IoFaultSpecParse, AcceptsBareRateAndKeyValueForms) {
  const IoFaultSpec bare = parse_io_fault_spec("0.25");
  EXPECT_EQ(bare.seed, 0u);
  EXPECT_DOUBLE_EQ(bare.rate, 0.25);

  const IoFaultSpec kv = parse_io_fault_spec("seed=9,rate=0.5");
  EXPECT_EQ(kv.seed, 9u);
  EXPECT_DOUBLE_EQ(kv.rate, 0.5);

  const IoFaultSpec reversed = parse_io_fault_spec("rate=1,seed=3");
  EXPECT_EQ(reversed.seed, 3u);
  EXPECT_DOUBLE_EQ(reversed.rate, 1.0);
}

TEST(IoFaultSpecParse, RejectsBadInput) {
  EXPECT_THROW((void)parse_io_fault_spec(""), TgiError);
  EXPECT_THROW((void)parse_io_fault_spec("rate=2.0"), TgiError);   // > 1
  EXPECT_THROW((void)parse_io_fault_spec("-0.5"), TgiError);      // < 0
  EXPECT_THROW((void)parse_io_fault_spec("bogus=1"), TgiError);   // bad key
  EXPECT_THROW((void)parse_io_fault_spec("seed=1,0.5"), TgiError);
}

TEST(IoFaults, OffByDefaultAndAfterClear) {
  EXPECT_FALSE(io_faults_installed());
  EXPECT_EQ(next_io_fault(), IoFaultKind::kNone);
  {
    ScopedIoFaults scoped(parse_io_fault_spec("1.0"));
    EXPECT_TRUE(io_faults_installed());
    EXPECT_NE(next_io_fault(), IoFaultKind::kNone);
  }
  EXPECT_FALSE(io_faults_installed());
  EXPECT_EQ(next_io_fault(), IoFaultKind::kNone);
}

TEST(IoFaults, SameSpecReplaysTheIdenticalFaultSequence) {
  IoFaultSpec spec;
  spec.seed = 42;
  spec.rate = 0.5;
  const std::vector<IoFaultKind> first = draw(spec, 200);
  const std::vector<IoFaultKind> second = draw(spec, 200);
  EXPECT_EQ(first, second);

  // A different seed draws a different sequence.
  spec.seed = 43;
  EXPECT_NE(draw(spec, 200), first);
}

TEST(IoFaults, RateBoundsAreExact) {
  for (const IoFaultKind kind : draw(parse_io_fault_spec("seed=1,rate=0"), 100)) {
    EXPECT_EQ(kind, IoFaultKind::kNone);
  }
  for (const IoFaultKind kind : draw(parse_io_fault_spec("seed=1,rate=1"), 100)) {
    EXPECT_NE(kind, IoFaultKind::kNone);
  }
}

TEST(IoFaults, NamesAreStable) {
  EXPECT_STREQ(io_fault_name(IoFaultKind::kNone), "none");
  EXPECT_STREQ(io_fault_name(IoFaultKind::kShortWrite), "short-write");
  EXPECT_STREQ(io_fault_name(IoFaultKind::kEnospc), "enospc");
  EXPECT_STREQ(io_fault_name(IoFaultKind::kEio), "eio");
}

class IoFaultPublishTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("tgi_io_fault_test_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override {
    clear_io_faults();
    fs::remove_all(root_);
  }

  fs::path root_;
};

TEST_F(IoFaultPublishTest, FaultedPublishNeverTearsTheVisibleFile) {
  // Fault fuzz over many seeds: every injected kind (short write included)
  // must fail the STAGING write, leave the published bytes intact, and
  // clean up the temp file — the §11 "a failed publish can never tear a
  // visible artifact" contract.
  const std::string target = (root_ / "artifact.csv").string();
  const std::string good = "cores,tgi\n16,0.5\n48,0.4\n80,0.3\n";
  atomic_write_file(target, good);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    IoFaultSpec spec;
    spec.seed = seed;
    spec.rate = 1.0;
    ScopedIoFaults scoped(spec);
    EXPECT_THROW(atomic_write_file(target, "replacement that must not land"),
                 TgiError)
        << "seed " << seed;
    EXPECT_EQ(slurp(target), good) << "seed " << seed;
    for (const auto& entry : fs::directory_iterator(root_)) {
      EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                std::string::npos)
          << "staging file left behind, seed " << seed;
    }
  }
  // Shim cleared: the very next publish succeeds.
  atomic_write_file(target, "fresh\n");
  EXPECT_EQ(slurp(target), "fresh\n");
}

TEST_F(IoFaultPublishTest, PartialRatePublishesAreAllOrNothing) {
  // At rate 0.5 some publishes succeed and some fail; whatever the mix,
  // the file only ever holds a complete generation's bytes.
  const std::string target = (root_ / "mixed.csv").string();
  atomic_write_file(target, "gen 0\n");
  IoFaultSpec spec;
  spec.seed = 7;
  spec.rate = 0.5;
  ScopedIoFaults scoped(spec);
  std::string expected = "gen 0\n";
  std::size_t failed = 0;
  for (int gen = 1; gen <= 64; ++gen) {
    const std::string content = "gen " + std::to_string(gen) + "\n";
    try {
      atomic_write_file(target, content);
      expected = content;
    } catch (const TgiError&) {
      ++failed;
    }
    ASSERT_EQ(slurp(target), expected) << "generation " << gen;
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, 64u);
}

}  // namespace
}  // namespace tgi::util
