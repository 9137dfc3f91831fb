// The campaign engine end to end (DESIGN.md §13): a warm cache rerun is a
// byte-identical NO-OP — zero recomputations (the engine's own counter
// pins it) and byte-identical report/CSVs/trace at every thread count,
// plain and faulted; cold runs agree at every thread count; corrupted
// cache shards cost recomputation, never bytes. The `tgi_serve --worker`
// process that perfbench's supervised replay drives journals the very
// records the engine banks.
//
// TGI_SERVE_BIN (injected by CMake) is the tgi_serve executable the
// worker-process cases spawn.
#include "serve/campaign.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "serve/spec.h"
#include "sim/catalog.h"
#include "sim/spec_io.h"
#include "util/error.h"
#include "util/subprocess.h"
#include "util/thread_pool.h"

namespace tgi::serve {
namespace {

namespace fs = std::filesystem;

class CampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    root_ = fs::temp_directory_path() /
            (std::string("tgi_campaign_test_") + info->name());
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

  static void spill(const std::string& path, const std::string& content) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
  }

  /// Every emitted artifact under an entry's outdir, relative path →
  /// bytes. provenance.json is cache-dependent by design and excluded.
  [[nodiscard]] static std::map<std::string, std::string> artifacts(
      const std::string& outdir) {
    std::map<std::string, std::string> files;
    for (const auto& entry : fs::recursive_directory_iterator(outdir)) {
      if (!entry.is_regular_file()) continue;
      const std::string rel =
          fs::relative(entry.path(), outdir).generic_string();
      if (rel == "provenance.json") continue;
      files.emplace(rel, slurp(entry.path().string()));
    }
    return files;
  }

  CampaignConfig config(const std::string& cache, const std::string& out,
                        std::size_t threads) const {
    CampaignConfig cfg;
    cfg.cache_dir = dir(cache);
    cfg.outdir = dir(out);
    cfg.threads = threads;
    cfg.trace = true;
    return cfg;
  }

  struct RunResult {
    CampaignStats stats;
    std::string report;
    std::map<std::string, std::string> files;
  };

  RunResult run(const std::vector<CampaignSpec>& entries,
                const CampaignConfig& cfg) const {
    CampaignEngine engine(cfg);
    std::ostringstream report;
    RunResult result;
    result.stats = engine.run(entries, report);
    result.report = report.str();
    result.files = artifacts(cfg.outdir);
    return result;
  }

  /// Every record `store` holds for `spec`, index → its journal line.
  [[nodiscard]] static std::map<std::size_t, std::string> journal_lines(
      const std::string& store, const CampaignSpec& spec) {
    const harness::StoreLoad loaded = harness::PointStore::load(
        store, spec_hash(spec), spec_mode(spec), spec.sweep, "test");
    EXPECT_TRUE(loaded.damage.empty()) << store;
    std::map<std::size_t, std::string> lines;
    for (const auto& [index, record] : loaded.completed) {
      lines.emplace(index, harness::encode_point_record(record));
    }
    return lines;
  }

  /// The records an engine run on `cache` banked for `spec`.
  [[nodiscard]] std::map<std::size_t, std::string> banked(
      const std::string& cache, const CampaignSpec& spec) const {
    return journal_lines(
        harness::ResultCache(dir(cache)).shard_path(spec_hash(spec)), spec);
  }

  /// Hands `spec` to a `tgi_serve --worker` process (the cluster as a
  /// spec file, as perfbench's replay does) and returns the records it
  /// journaled for `indices`.
  [[nodiscard]] std::map<std::size_t, std::string> worker_process(
      const CampaignSpec& spec, const std::vector<std::size_t>& indices,
      std::size_t threads, const std::string& tag) const {
    const std::string scratch = dir(tag);
    fs::create_directories(scratch);
    spill(scratch + "/cluster.conf", sim::cluster_to_config(spec.cluster));
    spill(scratch + "/spec.conf", worker_spec_config(spec, "cluster.conf"));
    std::string list;
    for (const std::size_t index : indices) {
      list += (list.empty() ? "" : ",") + std::to_string(index);
    }
    util::SubprocessOptions options;
    options.stderr_path = scratch + "/stderr.log";
    const util::ExitStatus status = util::run_process(
        {TGI_SERVE_BIN, "--worker", "spec=" + scratch + "/spec.conf",
         "indices=" + list, "journal=" + scratch + "/journal",
         "threads=" + std::to_string(threads)},
        options);
    EXPECT_TRUE(status.success()) << tag << ": " << status.describe();
    return journal_lines(scratch + "/journal/journal.tgij", spec);
  }

  fs::path root_;
};

std::vector<CampaignSpec> plain_campaign() {
  return parse_campaign(
      "[alpha]\ncluster = fire\nsweep = 16,48\nseed = 7\n"
      "[beta]\ncluster = fire\nsweep = 16\nseed = 7\ngranularity = point\n",
      "");
}

std::vector<CampaignSpec> faulted_campaign() {
  return parse_campaign(
      "[hot]\ncluster = fire\nsweep = 16,48\nseed = 7\n"
      "faults = dropout=0.25,failure=0.1\n",
      "");
}

void expect_same_bytes(const std::map<std::string, std::string>& got,
                       const std::map<std::string, std::string>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [rel, bytes] : want) {
    ASSERT_TRUE(got.count(rel)) << rel;
    EXPECT_EQ(got.at(rel), bytes) << rel;
  }
}

TEST_F(CampaignTest, WarmRerunIsAByteIdenticalNoOp) {
  const auto entries = plain_campaign();
  const auto cold = run(entries, config("cache", "cold", 2));
  // Cold: 3 sweep points + alpha's reference computed; beta shares the
  // reference machine, so its reference is already a hit WITHIN the run.
  EXPECT_EQ(cold.stats.entries, 2u);
  EXPECT_EQ(cold.stats.points, 5u);
  EXPECT_EQ(cold.stats.computed, 4u);
  EXPECT_EQ(cold.stats.cache_hits, 1u);
  EXPECT_EQ(cold.stats.quarantined, 0u);
  EXPECT_FALSE(cold.files.empty());

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const std::string tag = std::to_string(threads);
    // A cold run on its own cache computes the same bytes at every thread
    // count.
    const auto fresh =
        run(entries, config("cache_t" + tag, "cold_t" + tag, threads));
    EXPECT_EQ(fresh.stats.computed, 4u) << "threads=" << threads;
    EXPECT_EQ(fresh.report, cold.report) << "threads=" << threads;
    expect_same_bytes(fresh.files, cold.files);
    // THE acceptance invariant: a warm rerun recomputes nothing and
    // emits identical bytes.
    const auto warm = run(entries, config("cache", "warm_t" + tag, threads));
    EXPECT_EQ(warm.stats.computed, 0u) << "threads=" << threads;
    EXPECT_EQ(warm.stats.cache_hits, 5u) << "threads=" << threads;
    EXPECT_EQ(warm.report, cold.report) << "threads=" << threads;
    expect_same_bytes(warm.files, cold.files);
  }
}

TEST_F(CampaignTest, ConcurrentEnginesSharingACacheBothSucceed) {
  // Two engines racing on one cache directory (here in one process, so a
  // TSan build sees every shared write) must both finish with the bytes a
  // solo run emits, and leave a complete cache behind. Each round starts
  // from an empty cache, so both engines compute and publish every shard.
  const auto entries = plain_campaign();
  const RunResult solo = run(entries, config("solo_cache", "solo", 1));
  for (std::size_t round = 0; round < 4; ++round) {
    const std::string cache = "shared" + std::to_string(round);
    std::vector<RunResult> racers(2);
    util::ThreadPool pool(2);
    util::parallel_for(
        pool, racers.size(),
        [this, &entries, &racers, &cache, round](std::size_t i) {
          racers[i] = run(entries,
                          config(cache,
                                 "race" + std::to_string(round) + "_" +
                                     std::to_string(i),
                                 1 + i));
        });
    for (const RunResult& racer : racers) {
      EXPECT_EQ(racer.report, solo.report) << "round " << round;
      expect_same_bytes(racer.files, solo.files);
    }
    const RunResult warm =
        run(entries, config(cache, "warm" + std::to_string(round), 1));
    EXPECT_EQ(warm.stats.computed, 0u) << "round " << round;
    EXPECT_EQ(warm.report, solo.report);
  }
}

TEST_F(CampaignTest, WorkerProcessShardsMatchInProcessByteForByte) {
  // Two worker processes split alpha's points as a two-shard replay does;
  // at every thread count each journals exactly the records the
  // in-process engine banked.
  const auto entries = plain_campaign();
  (void)run(entries, config("cache", "ip", 2));
  const CampaignSpec& alpha = entries[0];
  const auto in_process = banked("cache", alpha);
  ASSERT_EQ(in_process.size(), 2u);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    for (const std::size_t index : {std::size_t{0}, std::size_t{1}}) {
      const auto shard = worker_process(
          alpha, {index}, threads,
          "w" + std::to_string(threads) + "_" + std::to_string(index));
      ASSERT_EQ(shard.size(), 1u) << "threads=" << threads;
      EXPECT_EQ(shard.at(index), in_process.at(index))
          << "threads=" << threads << " index=" << index;
    }
  }
}

TEST_F(CampaignTest, WorkersComputeTheExactClusterOfTheirEntry) {
  // A cluster file with a 7th decimal: a worker gets the cluster as text,
  // which must carry every digit, or it prices a different machine under
  // the entry's key.
  const std::string cluster =
      sim::cluster_to_config(sim::low_power_cluster());
  const std::string ghz = "\ncpu.ghz = ";
  const std::size_t at = cluster.find(ghz);
  ASSERT_NE(at, std::string::npos);
  spill(dir("b.conf"), cluster.substr(0, at) + ghz + "0.8500004" +
                           cluster.substr(cluster.find('\n', at + 1)));
  const auto entries = parse_campaign(
      "[seventh]\ncluster = b.conf\nsweep = 16,48,80\nseed = 7\n",
      root_.string());
  ASSERT_EQ(entries[0].cluster.node.cpu.ghz, 0.8500004);
  (void)run(entries, config("cache", "ip", 2));
  const auto in_process = banked("cache", entries[0]);
  ASSERT_EQ(in_process.size(), 3u);
  EXPECT_EQ(worker_process(entries[0], {0, 1, 2}, 2, "w"), in_process);
}

TEST_F(CampaignTest, FaultedCampaignIsCachedAndByteStable) {
  const auto entries = faulted_campaign();
  const auto cold = run(entries, config("cache", "cold", 2));
  EXPECT_NE(cold.report.find("[hot]"), std::string::npos);
  ASSERT_TRUE(cold.files.count("hot/faults_summary.csv"));
  const auto warm = run(entries, config("cache", "warm", 1));
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.report, cold.report);
  expect_same_bytes(warm.files, cold.files);
}

TEST_F(CampaignTest, CorruptedShardIsQuarantinedRecomputedAndHealed) {
  const auto entries = plain_campaign();
  const auto cold = run(entries, config("cache", "cold", 2));
  // Bit-flip the last record of every shard in the cache.
  std::size_t flipped = 0;
  for (const auto& file : fs::directory_iterator(dir("cache"))) {
    if (file.path().extension() != ".tgij") continue;
    std::string text = slurp(file.path().string());
    const std::size_t last = text.rfind("\nTGIJ2 point");
    ASSERT_NE(last, std::string::npos);
    text[last + 20] ^= 0x04;
    spill(file.path().string(), text);
    ++flipped;
  }
  ASSERT_GT(flipped, 0u);
  const auto healed = run(entries, config("cache", "healed", 2));
  EXPECT_GE(healed.stats.quarantined, flipped);
  EXPECT_GT(healed.stats.computed, 0u);
  EXPECT_EQ(healed.report, cold.report);
  expect_same_bytes(healed.files, cold.files);
  // The heal re-published pristine shards: the next rerun is a no-op.
  const auto warm = run(entries, config("cache", "warm", 1));
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.stats.quarantined, 0u);
  expect_same_bytes(warm.files, cold.files);
}

TEST_F(CampaignTest, ReportNamesEntriesNeverPaths) {
  const auto entries = plain_campaign();
  const auto cold = run(entries, config("cache", "cold", 1));
  // The report stream must stay byte-stable across output directories, so
  // it may never leak a filesystem path.
  EXPECT_EQ(cold.report.find(dir("")), std::string::npos);
  EXPECT_EQ(cold.report.find("cold"), std::string::npos);
  EXPECT_NE(cold.report.find("[alpha]"), std::string::npos);
  EXPECT_NE(cold.report.find("[beta]"), std::string::npos);
}

TEST_F(CampaignTest, ProvenanceEscapesEveryString) {
  // tgi_serve and tgi_sweep share one provenance writer: quotes,
  // backslashes and control characters in a name must still leave a valid
  // JSON string literal.
  EntryProvenance entry;
  entry.name = "a\"b\\c\n";
  CampaignStats stats;
  stats.entries = 1;
  write_provenance(dir("out"), stats, {entry});
  const std::string json = slurp(dir("out") + "/provenance.json");
  EXPECT_NE(json.find(R"("name": "a\"b\\c\n")"), std::string::npos) << json;
}

TEST_F(CampaignTest, RejectsMisconfiguration) {
  CampaignConfig no_cache;
  no_cache.outdir = dir("out");
  EXPECT_THROW(CampaignEngine{no_cache}, util::TgiError);
  // The engine computes in-process only; no caller may believe it got
  // worker processes.
  CampaignConfig workers = config("cache", "out", 1);
  workers.workers = 2;
  EXPECT_THROW(CampaignEngine{workers}, util::TgiError);
  CampaignEngine engine(config("cache", "out", 1));
  std::ostringstream report;
  EXPECT_THROW((void)engine.run({}, report), util::TgiError);
}

}  // namespace
}  // namespace tgi::serve
