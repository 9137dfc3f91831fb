// Ablation: deterministic worker supervision (DESIGN.md §15). Runs one
// campaign four ways — in-process truth, supervised worker shards, a
// worker that dies mid-shard (restart recomputes only the missing
// suffix), and a zero-progress crash loop (quarantine + in-process heal)
// — and proves the supervisor's contract on the spot: every scenario's
// report and published artifacts are byte-identical to the truth, the
// healed cache serves a warm rerun with zero recomputation, and the
// restart backoff is accounted in provenance, never slept.
#include "bench_common.h"

#include <chrono>
#include <cstdlib>
#include <map>
#include <sstream>

#include "serve/campaign.h"
#include "serve/spec.h"

namespace {

using namespace tgi;
namespace fs = std::filesystem;

/// Every published artifact under outdir, relative path -> bytes.
/// provenance.json carries this run's supervision taxonomy by design and
/// is the one byte-comparison-exempt file.
std::map<std::string, std::string> artifacts(const std::string& outdir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::recursive_directory_iterator(outdir)) {
    if (!entry.is_regular_file()) continue;
    const std::string rel =
        fs::relative(entry.path(), outdir).generic_string();
    if (rel == "provenance.json") continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    files.emplace(rel, bytes.str());
  }
  return files;
}

struct RunResult {
  serve::CampaignStats stats;
  std::string report;
  std::map<std::string, std::string> files;
  double wall_ms = 0.0;
};

/// One environment hook armed for the duration of a campaign run.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

RunResult run_campaign(const std::vector<serve::CampaignSpec>& entries,
                       const serve::CampaignConfig& cfg) {
  serve::CampaignEngine engine(cfg);
  std::ostringstream report;
  RunResult result;
  const auto t0 = std::chrono::steady_clock::now();
  result.stats = engine.run(entries, report);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  result.report = report.str();
  result.files = artifacts(cfg.outdir);
  return result;
}

bool same_bytes(const RunResult& got, const RunResult& want) {
  return got.report == want.report && got.files == want.files;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "worker supervision: fault plane byte identity");
    namespace fs = std::filesystem;
    const fs::path scratch =
        fs::temp_directory_path() / "tgi_ablation_supervisor";
    fs::remove_all(scratch);
    fs::create_directories(scratch);

    // One campaign entry over the experiment's sweep; at workers=2 shard 0
    // owns the even indices, so a shard-0 fault after one journaled point
    // leaves a genuine missing suffix for the restart to recompute.
    serve::CampaignSpec spec;
    spec.name = "alpha";
    spec.cluster = e.system_under_test;
    spec.reference = e.reference_system;
    spec.sweep = e.sweep;
    spec.seed = e.seed;
    spec.exact_meter = (e.meter_kind == "model");
    const std::vector<serve::CampaignSpec> entries{spec};

    auto config = [&](const std::string& tag,
                      std::size_t workers) -> serve::CampaignConfig {
      serve::CampaignConfig cfg;
      cfg.cache_dir = (scratch / ("cache_" + tag)).string();
      cfg.outdir = (scratch / tag).string();
      cfg.workers = workers;
      cfg.threads = e.threads == 0 ? 2 : e.threads;
      cfg.worker_exe = TGI_SERVE_BIN;
      return cfg;
    };

    // Truth: in-process, no workers, no supervision anywhere.
    const RunResult truth = run_campaign(entries, config("truth", 0));

    // Supervised clean run: supervision must be observational.
    const RunResult clean = run_campaign(entries, config("clean", 2));
    bench::print_check(
        "supervised worker shards are byte-identical to in-process",
        same_bytes(clean, truth) && clean.stats.worker_failures == 0 &&
            clean.stats.worker_restarts == 0);

    // Worker death mid-shard: attempt 1 of shard 0 exits after one
    // journaled point; the restart recomputes only the missing suffix.
    RunResult faulted;
    {
      const ScopedEnv hook("TGI_SERVE_WORKER_EXIT_AFTER", "0:1");
      faulted = run_campaign(entries, config("faulted", 2));
    }
    bench::print_check(
        "a dying worker restarts and heals byte-identically",
        same_bytes(faulted, truth) && faulted.stats.worker_failures > 0 &&
            faulted.stats.worker_restarts > 0);

    // Zero-progress crash loop: every attempt's journal write faults, so
    // the shard exhausts its restart budget, is quarantined, and its
    // points fall back to in-process compute — still byte-identical.
    RunResult looped;
    {
      const ScopedEnv hook("TGI_SERVE_WORKER_IO_FAULTS", "0:1.0:99");
      looped = run_campaign(entries, config("looped", 2));
    }
    bench::print_check(
        "a crash-looping shard is quarantined and healed byte-identically",
        same_bytes(looped, truth) && looped.stats.worker_quarantined > 0);

    // The heal published complete shards: a warm rerun over the faulted
    // run's cache recomputes nothing and still matches the truth.
    serve::CampaignConfig warm_cfg = config("warm", 0);
    warm_cfg.cache_dir = (scratch / "cache_faulted").string();
    const RunResult warm = run_campaign(entries, warm_cfg);
    bench::print_check(
        "warm rerun over the healed cache is a byte-identical no-op",
        same_bytes(warm, truth) && warm.stats.computed == 0);

    util::TextTable table(
        {"scenario", "restarts", "hangs", "quarantined", "wall ms"});
    const auto row = [&](const std::string& name, const RunResult& r) {
      table.add_row({name, std::to_string(r.stats.worker_restarts),
                     std::to_string(r.stats.worker_hangs),
                     std::to_string(r.stats.worker_quarantined),
                     util::fixed(r.wall_ms, 1)});
    };
    row("in-process truth", truth);
    row("supervised clean", clean);
    row("worker death + restart", faulted);
    row("crash loop + quarantine", looped);
    row("warm rerun (healed cache)", warm);
    std::cout << table;

    fs::remove_all(scratch);
  });
}
