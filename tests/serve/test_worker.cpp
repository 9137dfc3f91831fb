// The campaign worker (DESIGN.md §13): an assigned SUBSET of global sweep
// indices must journal exactly the bytes an unsharded sweep would have
// journaled for those points — at every thread count, plain and faulted.
// Sharding is a pure partition of the record set, never a perturbation of
// it.
#include "serve/worker.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/checkpoint.h"
#include "serve/spec.h"
#include "util/error.h"

namespace tgi::serve {
namespace {

namespace fs = std::filesystem;

class WorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("tgi_worker_test_") + info->name());
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  [[nodiscard]] std::string dir(const std::string& rel) const {
    return (root_ / rel).string();
  }

  [[nodiscard]] static std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }

  fs::path root_;
};

CampaignSpec plain_spec() {
  return parse_campaign(
      "[w]\ncluster = fire\nsweep = 16,48,80\nseed = 7\n", "")[0];
}

CampaignSpec faulted_spec() {
  return parse_campaign(
      "[w]\ncluster = fire\nsweep = 16,48,80\nseed = 7\n"
      "faults = dropout=0.25,failure=0.1,timeout=0.05\n",
      "")[0];
}

/// Runs the worker and returns the reconciled records of its journal.
std::map<std::size_t, harness::PointRecord> run_and_reconcile(
    const CampaignSpec& spec, const std::vector<std::size_t>& indices,
    std::size_t threads, const std::string& journal_dir) {
  WorkerAssignment assignment;
  assignment.indices = indices;
  assignment.journal_dir = journal_dir;
  assignment.threads = threads;
  EXPECT_EQ(run_worker(spec, assignment), indices.size());
  const harness::JournalState state = harness::reconcile_journal(
      harness::read_journal_file(journal_dir + "/journal.tgij"),
      spec_hash(spec), spec_mode(spec), spec.sweep);
  EXPECT_TRUE(state.damage.empty());
  return state.completed;
}

void expect_same_records(
    const std::map<std::size_t, harness::PointRecord>& a,
    const std::map<std::size_t, harness::PointRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [k, record] : a) {
    ASSERT_TRUE(b.count(k)) << "index " << k;
    EXPECT_EQ(harness::encode_point_record(record),
              harness::encode_point_record(b.at(k)))
        << "index " << k;
  }
}

TEST_F(WorkerTest, JournalsExactlyTheAssignedIndices) {
  const CampaignSpec spec = plain_spec();
  const auto records = run_and_reconcile(spec, {1}, 1, dir("one"));
  ASSERT_EQ(records.size(), 1u);
  ASSERT_TRUE(records.count(1));
  EXPECT_EQ(records.at(1).index, 1u);
  EXPECT_EQ(records.at(1).value, 48u);
  EXPECT_TRUE(records.at(1).traced);
}

TEST_F(WorkerTest, RejectsMalformedAssignments) {
  const CampaignSpec spec = plain_spec();
  WorkerAssignment empty;
  empty.journal_dir = dir("x");
  EXPECT_THROW(run_worker(spec, empty), util::TgiError);
  WorkerAssignment outside;
  outside.indices = {0, 9};
  outside.journal_dir = dir("x");
  EXPECT_THROW(run_worker(spec, outside), util::TgiError);
  WorkerAssignment unsorted;
  unsorted.indices = {2, 1};
  unsorted.journal_dir = dir("x");
  EXPECT_THROW(run_worker(spec, unsorted), util::TgiError);
  WorkerAssignment nodir;
  nodir.indices = {0};
  EXPECT_THROW(run_worker(spec, nodir), util::TgiError);
}

TEST_F(WorkerTest, ShardedRecordsMatchTheFullRunByteForByte) {
  // The sharding invariant: {0,2} ∪ {1} computed separately must equal
  // the full {0,1,2} run record for record — global-index meter/RNG
  // keying is what makes the partition sound.
  const CampaignSpec spec = plain_spec();
  const auto full = run_and_reconcile(spec, {0, 1, 2}, 1, dir("full"));
  ASSERT_EQ(full.size(), 3u);
  auto merged = run_and_reconcile(spec, {0, 2}, 1, dir("even"));
  for (auto& [k, record] : run_and_reconcile(spec, {1}, 1, dir("odd"))) {
    merged.emplace(k, std::move(record));
  }
  expect_same_records(merged, full);
}

TEST_F(WorkerTest, RecordsAreThreadCountInvariant) {
  const CampaignSpec spec = plain_spec();
  const auto serial = run_and_reconcile(spec, {0, 1, 2}, 1, dir("t1"));
  const auto pooled = run_and_reconcile(spec, {0, 1, 2}, 4, dir("t4"));
  expect_same_records(pooled, serial);
}

TEST_F(WorkerTest, FaultedShardsMatchTheFullRobustRun) {
  const CampaignSpec spec = faulted_spec();
  const auto full = run_and_reconcile(spec, {0, 1, 2}, 1, dir("full"));
  ASSERT_EQ(full.size(), 3u);
  auto merged = run_and_reconcile(spec, {1, 2}, 2, dir("tail"));
  for (auto& [k, record] : run_and_reconcile(spec, {0}, 1, dir("head"))) {
    merged.emplace(k, std::move(record));
  }
  expect_same_records(merged, full);
  // And a pooled full run agrees too.
  expect_same_records(run_and_reconcile(spec, {0, 1, 2}, 4, dir("pooled")),
                      full);
  for (const auto& [k, record] : full) {
    EXPECT_TRUE(record.robust) << "index " << k;
  }
}

}  // namespace
}  // namespace tgi::serve
