// The campaign engine end to end (DESIGN.md §13): a warm cache rerun is a
// byte-identical NO-OP — zero recomputations (the engine's own counter
// pins it) and byte-identical report/CSVs/trace at every thread and worker
// count, plain and faulted; corrupted cache shards and dead worker
// processes cost recomputation, never bytes.
//
// TGI_SERVE_BIN (injected by CMake) is the tgi_serve executable the
// worker-process scenarios spawn.
#include "serve/campaign.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "serve/spec.h"
#include "sim/catalog.h"
#include "sim/spec_io.h"
#include "util/error.h"
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
                        std::size_t workers, std::size_t threads) const {
    CampaignConfig cfg;
    cfg.cache_dir = dir(cache);
    cfg.outdir = dir(out);
    cfg.workers = workers;
    cfg.threads = threads;
    cfg.worker_exe = TGI_SERVE_BIN;
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
  const auto cold = run(entries, config("cache", "cold", 0, 2));
  // Cold: 3 sweep points + alpha's reference computed; beta shares the
  // reference machine, so its reference is already a hit WITHIN the run.
  EXPECT_EQ(cold.stats.entries, 2u);
  EXPECT_EQ(cold.stats.points, 5u);
  EXPECT_EQ(cold.stats.computed, 4u);
  EXPECT_EQ(cold.stats.cache_hits, 1u);
  EXPECT_EQ(cold.stats.quarantined, 0u);
  EXPECT_FALSE(cold.files.empty());
  // In-process compute keeps its records in memory: no scratch at all.
  EXPECT_FALSE(fs::exists(dir("cache") + "/work"));

  std::size_t tag = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const auto warm = run(
        entries, config("cache", "warm" + std::to_string(tag++), 0, threads));
    // THE acceptance invariant: zero recomputations, identical bytes.
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
  const RunResult solo = run(entries, config("solo_cache", "solo", 0, 1));
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
                                 0, 1 + i));
        });
    for (const RunResult& racer : racers) {
      EXPECT_EQ(racer.report, solo.report) << "round " << round;
      expect_same_bytes(racer.files, solo.files);
    }
    const RunResult warm =
        run(entries, config(cache, "warm" + std::to_string(round), 0, 1));
    EXPECT_EQ(warm.stats.computed, 0u) << "round " << round;
    EXPECT_EQ(warm.report, solo.report);
    EXPECT_FALSE(fs::exists(dir(cache) + "/work") &&
                 !fs::is_empty(dir(cache) + "/work"))
        << "scratch left behind, round " << round;
  }
}

TEST_F(CampaignTest, WorkerProcessShardsMatchInProcessByteForByte) {
  const auto entries = plain_campaign();
  const auto in_process = run(entries, config("cache_ip", "ip", 0, 2));
  std::size_t tag = 0;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    const std::string suffix = std::to_string(tag++);
    const auto sharded =
        run(entries, config("cache_w" + suffix, "w" + suffix, workers, 2));
    EXPECT_EQ(sharded.stats.worker_failures, 0u) << "workers=" << workers;
    EXPECT_EQ(sharded.report, in_process.report) << "workers=" << workers;
    expect_same_bytes(sharded.files, in_process.files);
    // And the warm rerun over the worker-built cache is still a no-op.
    const auto warm = run(
        entries, config("cache_w" + suffix, "ww" + suffix, workers, 8));
    EXPECT_EQ(warm.stats.computed, 0u) << "workers=" << workers;
    expect_same_bytes(warm.files, in_process.files);
  }
}

TEST_F(CampaignTest, WorkersComputeTheExactClusterOfTheirEntry) {
  // A cluster file with a 7th decimal: the engine hands its workers the
  // cluster as text, which must carry every digit, or the workers price a
  // different machine under the entry's key.
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
  const auto in_process = run(entries, config("cache_ip", "ip", 0, 2));
  const auto sharded = run(entries, config("cache_w", "w", 2, 2));
  // The workers' journals were served as they are, not healed in-process.
  EXPECT_EQ(sharded.stats.worker_failures, 0u);
  EXPECT_EQ(sharded.stats.quarantined, 0u);
  EXPECT_EQ(sharded.report, in_process.report);
  expect_same_bytes(sharded.files, in_process.files);
}

TEST_F(CampaignTest, FaultedCampaignIsCachedAndByteStable) {
  const auto entries = faulted_campaign();
  const auto cold = run(entries, config("cache", "cold", 2, 2));
  EXPECT_EQ(cold.stats.worker_failures, 0u);
  EXPECT_NE(cold.report.find("[hot]"), std::string::npos);
  ASSERT_TRUE(cold.files.count("hot/faults_summary.csv"));
  const auto warm = run(entries, config("cache", "warm", 0, 1));
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.report, cold.report);
  expect_same_bytes(warm.files, cold.files);
}

TEST_F(CampaignTest, CorruptedShardIsQuarantinedRecomputedAndHealed) {
  const auto entries = plain_campaign();
  const auto cold = run(entries, config("cache", "cold", 0, 2));
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
  const auto healed = run(entries, config("cache", "healed", 0, 2));
  EXPECT_GE(healed.stats.quarantined, flipped);
  EXPECT_GT(healed.stats.computed, 0u);
  EXPECT_EQ(healed.report, cold.report);
  expect_same_bytes(healed.files, cold.files);
  // The heal re-published pristine shards: the next rerun is a no-op.
  const auto warm = run(entries, config("cache", "warm", 0, 1));
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.stats.quarantined, 0u);
  expect_same_bytes(warm.files, cold.files);
}

TEST_F(CampaignTest, DeadWorkersAreHealedInProcessWithIdenticalBytes) {
  const auto entries = plain_campaign();
  const auto baseline = run(entries, config("cache_ok", "ok", 0, 2));
  // A worker executable that cannot exec dies with code 127 before
  // journaling anything: every shard fails, the engine must WARN, heal
  // in-process, and still produce identical bytes.
  CampaignConfig broken = config("cache_broken", "broken", 2, 2);
  broken.worker_exe = dir("no_such_binary");
  const auto healed = run(entries, broken);
  EXPECT_GT(healed.stats.worker_failures, 0u);
  EXPECT_EQ(healed.report, baseline.report);
  expect_same_bytes(healed.files, baseline.files);
  // The healed cache is complete: a warm rerun recomputes nothing.
  const auto warm = run(entries, config("cache_broken", "warm", 2, 2));
  EXPECT_EQ(warm.stats.computed, 0u);
  expect_same_bytes(warm.files, baseline.files);
}

/// setenv/unsetenv RAII so a failing assertion never leaks a fault hook
/// into the next test.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const std::string& value) : name_(name) {
    ::setenv(name, value.c_str(), 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

/// Three sweep points so worker shard 0 gets indices {0, 2} at workers=2:
/// a fault after one journaled point leaves a genuine missing suffix for
/// the restart to recompute.
std::vector<CampaignSpec> supervised_campaign() {
  return parse_campaign(
      "[alpha]\ncluster = fire\nsweep = 16,48,80\nseed = 7\n", "");
}

/// The §15 supervision acceptance harness: run the faulted scenario twice
/// (cold, then warm over the same cache) and require byte-identity with
/// the undisturbed baseline plus a computed=0 warm rerun.
class SupervisedCampaignTest : public CampaignTest {
 protected:
  CampaignConfig supervised(const std::string& cache, const std::string& out,
                            std::size_t workers, std::size_t threads) const {
    CampaignConfig cfg = config(cache, out, workers, threads);
    // ~1 s stall deadline: generous against point compute (~ms), tiny
    // against a deliberate hang.
    cfg.supervisor.stall_polls = 500;
    return cfg;
  }

  void expect_heals_byte_identically(const RunResult& baseline,
                                     const std::string& tag) {
    const auto entries = supervised_campaign();
    const auto faulted =
        run(entries, supervised("cache_" + tag, tag, 2, 2));
    EXPECT_EQ(faulted.report, baseline.report) << tag;
    expect_same_bytes(faulted.files, baseline.files);
    // The healed cache is complete: the warm rerun recomputes nothing.
    const auto warm =
        run(entries, supervised("cache_" + tag, tag + "_warm", 2, 2));
    EXPECT_EQ(warm.stats.computed, 0u) << tag;
    EXPECT_EQ(warm.stats.worker_failures, 0u) << tag;
    expect_same_bytes(warm.files, baseline.files);
  }
};

TEST_F(SupervisedCampaignTest, WorkerFaultPlaneHealsByteIdentically) {
  const auto baseline =
      run(supervised_campaign(), supervised("cache_base", "base", 0, 2));

  {  // SIGKILL after one journaled point (first attempt only).
    ScopedEnv hook("TGI_SERVE_WORKER_DIE_AFTER", "0:1");
    expect_heals_byte_identically(baseline, "die");
  }
  {  // Nonzero exit after one journaled point.
    ScopedEnv hook("TGI_SERVE_WORKER_EXIT_AFTER", "0:1");
    expect_heals_byte_identically(baseline, "exit");
  }
  {  // Hang: stops journaling, ignores SIGTERM; watchdog must escalate.
    ScopedEnv hook("TGI_SERVE_WORKER_HANG_AFTER", "0:1");
    expect_heals_byte_identically(baseline, "hang");
  }
  {  // Torn garbage tail + CLEAN exit: journal-driven trust.
    ScopedEnv hook("TGI_SERVE_WORKER_GARBAGE_TAIL", "0:1");
    expect_heals_byte_identically(baseline, "garbage");
  }
  {  // Injected I/O faults on every worker write (first attempt only).
    ScopedEnv hook("TGI_SERVE_WORKER_IO_FAULTS", "0:1.0");
    expect_heals_byte_identically(baseline, "io");
  }
}

TEST_F(SupervisedCampaignTest, CrashLoopingShardIsQuarantinedAndHealed) {
  const auto entries = supervised_campaign();
  const auto baseline = run(entries, supervised("cache_base", "base", 0, 2));
  // The hook stays armed for every attempt: the shard crash-loops through
  // its restart budget, is quarantined, and heals in-process.
  ScopedEnv hook("TGI_SERVE_WORKER_EXIT_AFTER", "0:1:99");
  CampaignConfig cfg = supervised("cache_loop", "loop", 2, 2);
  cfg.supervisor.max_restarts = 1;
  const auto looped = run(entries, cfg);
  EXPECT_GT(looped.stats.worker_failures, 0u);
  EXPECT_EQ(looped.report, baseline.report);
  expect_same_bytes(looped.files, baseline.files);
}

TEST_F(SupervisedCampaignTest, SupervisionCountersReachStatsNotStdout) {
  const auto entries = supervised_campaign();
  ScopedEnv hook("TGI_SERVE_WORKER_EXIT_AFTER", "0:1");
  const auto faulted = run(entries, supervised("cache_st", "st", 2, 2));
  EXPECT_GT(faulted.stats.worker_failures, 0u);
  EXPECT_GT(faulted.stats.worker_restarts, 0u);
  const std::string summary = faulted.stats.summary();
  EXPECT_NE(summary.find("worker_restarts="), std::string::npos);
  EXPECT_NE(summary.find("worker_hangs="), std::string::npos);
  EXPECT_NE(summary.find("worker_quarantined="), std::string::npos);
  // The taxonomy never reaches the report stream.
  EXPECT_EQ(faulted.report.find("restart"), std::string::npos);
  EXPECT_EQ(faulted.report.find("quarantine"), std::string::npos);
}

TEST_F(CampaignTest, ReportNamesEntriesNeverPaths) {
  const auto entries = plain_campaign();
  const auto cold = run(entries, config("cache", "cold", 0, 1));
  // The report stream must stay byte-stable across output directories, so
  // it may never leak a filesystem path.
  EXPECT_EQ(cold.report.find(dir("")), std::string::npos);
  EXPECT_EQ(cold.report.find("cold"), std::string::npos);
  EXPECT_NE(cold.report.find("[alpha]"), std::string::npos);
  EXPECT_NE(cold.report.find("[beta]"), std::string::npos);
}

TEST_F(CampaignTest, ProvenanceEscapesEveryString) {
  // tgi_serve and tgi_sweep share one provenance writer: quotes,
  // backslashes and control characters in a name or a worker failure
  // detail must still leave valid JSON string literals.
  EntryProvenance entry;
  entry.name = "a\"b\\c";
  ShardAttempt attempt;
  attempt.detail = "killed by \"signal\" 9\n";
  ShardReport report;
  report.attempts.push_back(attempt);
  entry.shards.push_back(report);
  CampaignStats stats;
  stats.entries = 1;
  write_provenance(dir("out"), stats, {entry});
  const std::string json = slurp(dir("out") + "/provenance.json");
  EXPECT_NE(json.find(R"("name": "a\"b\\c")"), std::string::npos) << json;
  EXPECT_NE(json.find(R"("detail": "killed by \"signal\" 9\n")"),
            std::string::npos)
      << json;
}

TEST_F(CampaignTest, RejectsMisconfiguration) {
  CampaignConfig no_cache;
  no_cache.outdir = dir("out");
  EXPECT_THROW(CampaignEngine{no_cache}, util::TgiError);
  CampaignConfig no_exe;
  no_exe.cache_dir = dir("cache");
  no_exe.outdir = dir("out");
  no_exe.workers = 2;
  EXPECT_THROW(CampaignEngine{no_exe}, util::TgiError);
  CampaignEngine engine(config("cache", "out", 0, 1));
  std::ostringstream report;
  EXPECT_THROW((void)engine.run({}, report), util::TgiError);
}

}  // namespace
}  // namespace tgi::serve
