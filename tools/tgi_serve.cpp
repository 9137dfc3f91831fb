// tgi_serve — the campaign engine CLI (DESIGN.md §13): many sweep specs
// in one run, deduplicated through a persistent content-addressed result
// cache, with cache misses sharded across worker processes.
//
// Engine mode:
//
//   tgi_serve campaign=FILE cache=DIR outdir=DIR [workers=N] [threads=N]
//             [trace=1] [worker_exe=PATH] [restarts=N] [stall_polls=N]
//
// `campaign` lists sweep specs (see serve/spec.h for the format). Every
// (spec, point) pair is keyed by the FNV-1a cache hash; points already in
// `cache` are replayed from their journal records, the rest are computed —
// by `workers` tgi_serve --worker processes (round-robin shards, journals
// merged in fixed shard order), or in-process when workers=0 — and banked.
// A rerun against a warm cache recomputes NOTHING and emits stdout, CSVs,
// and trace.json byte-identical to the cold run, at every thread and
// worker count, plain and faulted. Damaged cache entries are quarantined
// (WARN on stderr) and recomputed; every worker shard runs under
// serve::Supervisor (DESIGN.md §15): hung workers are watchdog-killed,
// failed attempts are WARNed and restarted over the still-missing points
// (restarts= bounds the budget, stall_polls= the progress deadline), and
// crash-looping shards are quarantined and healed in-process.
// Cache-dependent stats go to stderr and outdir/provenance.json only.
//
// Worker mode (spawned by the engine; usable standalone for tests):
//
//   tgi_serve --worker spec=FILE indices=I,J,... journal=DIR [threads=N]
//             [shard=K]
//
// Computes the GLOBAL sweep-point indices of the handoff spec and journals
// them into DIR/journal.tgij, one whole sweep point per unit of work.
//
// Deterministic worker fault plane (DESIGN.md §15, serve_check.cmake) —
// env hooks of the form <shard>:<n>[:<attempts>], firing only in the named
// shard and only while the supervisor's attempt counter
// (TGI_SERVE_WORKER_ATTEMPT, 1-based) is <= <attempts> (default 1, so a
// restart self-heals; set it large to force a crash loop):
//   TGI_SERVE_WORKER_DIE_AFTER      raise SIGKILL after journaling n points
//   TGI_SERVE_WORKER_HANG_AFTER     stop journaling, ignore SIGTERM
//   TGI_SERVE_WORKER_EXIT_AFTER     _Exit(3) after journaling n points
//   TGI_SERVE_WORKER_GARBAGE_TAIL   append a torn record, then _Exit(0)
//   TGI_SERVE_WORKER_IO_FAULTS=<shard>:<rate>[:<attempts>]   seeded I/O
//       faults (short write / ENOSPC / EIO) on the worker's own journal
//       appends and atomic publishes (util/io_faults.h)
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "serve/campaign.h"
#include "serve/spec.h"
#include "serve/worker.h"
#include "util/config.h"
#include "util/error.h"
#include "util/io_faults.h"
#include "util/subprocess.h"

namespace {

using namespace tgi;

/// key=value tokens with `--flag VALUE` aliases; the bare `--worker` flag
/// selects worker mode and is not a key.
util::Config parse_tokens(int argc, const char* const* argv, bool& worker) {
  std::vector<const char*> args;
  worker = false;
  for (int i = 0; i < argc; ++i) {
    const bool is_worker = i > 0 && std::string(argv[i]) == "--worker";
    worker = worker || is_worker;
    if (!is_worker) args.push_back(argv[i]);
  }
  return util::Config::from_args(
      static_cast<int>(args.size()), args.data(),
      {"campaign", "cache", "outdir", "workers", "threads", "spec", "indices",
       "journal", "shard", "restarts", "stall_polls"});
}

/// The supervisor's 1-based attempt counter for this worker process
/// (TGI_SERVE_WORKER_ATTEMPT); 1 when launched by hand.
std::size_t worker_attempt() {
  const char* env = std::getenv("TGI_SERVE_WORKER_ATTEMPT");
  if (env == nullptr) return 1;
  const long long attempt = util::parse_int(env, "TGI_SERVE_WORKER_ATTEMPT");
  TGI_REQUIRE(attempt >= 1, "TGI_SERVE_WORKER_ATTEMPT must be >= 1");
  return static_cast<std::size_t>(attempt);
}

/// Splits an env hook value on ':' into its fields.
std::vector<std::string> split_fields(const std::string& text) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const std::size_t colon = text.find(':', start);
    if (colon == std::string::npos) {
      fields.push_back(text.substr(start));
      return fields;
    }
    fields.push_back(text.substr(start, colon - start));
    start = colon + 1;
  }
}

/// Parses a <shard>:<n>[:<attempts>] fault hook (DESIGN.md §15); returns
/// n when it names this worker's shard AND the supervisor attempt counter
/// is still <= <attempts> (default 1: first attempt only, so a restart
/// self-heals), else 0.
std::size_t hook_for_shard(const char* name, std::size_t shard,
                           std::size_t attempt) {
  const char* env = std::getenv(name);
  if (env == nullptr) return 0;
  const std::vector<std::string> fields = split_fields(env);
  TGI_REQUIRE(fields.size() == 2 || fields.size() == 3,
              name << " must be <shard>:<count>[:<attempts>], got '" << env
                   << "'");
  const auto target = static_cast<std::size_t>(
      util::parse_int(fields[0], std::string(name) + " shard"));
  const auto count = static_cast<std::size_t>(
      util::parse_int(fields[1], std::string(name) + " count"));
  std::size_t attempts = 1;
  if (fields.size() == 3) {
    attempts = static_cast<std::size_t>(
        util::parse_int(fields[2], std::string(name) + " attempts"));
  }
  if (target != shard || attempt > attempts) return 0;
  return count;
}

/// Parses TGI_SERVE_WORKER_IO_FAULTS=<shard>:<rate>[:<attempts>] and
/// installs the seeded I/O fault shim for this worker process when it
/// applies. The engine process NEVER installs the shim, so the in-process
/// heal path always converges.
void maybe_install_io_faults(std::size_t shard, std::size_t attempt,
                             std::uint64_t spec_seed) {
  const char* env = std::getenv("TGI_SERVE_WORKER_IO_FAULTS");
  if (env == nullptr) return;
  const std::vector<std::string> fields = split_fields(env);
  TGI_REQUIRE(fields.size() == 2 || fields.size() == 3,
              "TGI_SERVE_WORKER_IO_FAULTS must be "
              "<shard>:<rate>[:<attempts>], got '"
                  << env << "'");
  const auto target = static_cast<std::size_t>(
      util::parse_int(fields[0], "TGI_SERVE_WORKER_IO_FAULTS shard"));
  const double rate =
      util::parse_double(fields[1], "TGI_SERVE_WORKER_IO_FAULTS rate");
  std::size_t attempts = 1;
  if (fields.size() == 3) {
    attempts = static_cast<std::size_t>(
        util::parse_int(fields[2], "TGI_SERVE_WORKER_IO_FAULTS attempts"));
  }
  if (target != shard || attempt > attempts) return;
  util::IoFaultSpec spec;
  // Different attempts draw different fault streams, like robust retries.
  spec.seed = spec_seed + attempt;
  spec.rate = rate;
  util::install_io_faults(spec);
}

int run_worker_mode(const util::Config& cfg) {
  TGI_REQUIRE(!cfg.has("campaign"),
              "--worker and campaign= are contradictory: worker mode "
              "computes one handoff spec (spec=FILE indices=I,J,... "
              "journal=DIR); drop --worker to run a campaign");
  util::require_known_keys(
      cfg, {"spec", "indices", "journal", "threads", "shard"},
      "tgi_serve --worker");
  TGI_REQUIRE(cfg.has("spec"), "worker mode needs spec=FILE");
  TGI_REQUIRE(cfg.has("indices"), "worker mode needs indices=I,J,...");
  TGI_REQUIRE(cfg.has("journal"), "worker mode needs journal=DIR");
  const serve::CampaignSpec spec = serve::load_worker_spec(*cfg.get("spec"));
  serve::WorkerAssignment assignment;
  for (const long long index : cfg.get_int_list("indices", {})) {
    TGI_REQUIRE(index >= 0, "indices must be >= 0");
    assignment.indices.push_back(static_cast<std::size_t>(index));
  }
  assignment.journal_dir = *cfg.get("journal");
  const long long threads = cfg.get_int("threads", 1);
  TGI_REQUIRE(threads >= 0, "threads must be >= 0 (0 = default)");
  assignment.threads = static_cast<std::size_t>(threads);
  const long long shard_raw = cfg.get_int("shard", 0);
  TGI_REQUIRE(shard_raw >= 0, "shard must be >= 0");
  const auto shard = static_cast<std::size_t>(shard_raw);
  const std::size_t attempt = worker_attempt();
  assignment.die_after =
      hook_for_shard("TGI_SERVE_WORKER_DIE_AFTER", shard, attempt);
  assignment.hang_after =
      hook_for_shard("TGI_SERVE_WORKER_HANG_AFTER", shard, attempt);
  assignment.exit_after =
      hook_for_shard("TGI_SERVE_WORKER_EXIT_AFTER", shard, attempt);
  assignment.garbage_after =
      hook_for_shard("TGI_SERVE_WORKER_GARBAGE_TAIL", shard, attempt);
  maybe_install_io_faults(shard, attempt, spec.seed);
  const std::size_t journaled = serve::run_worker(spec, assignment);
  std::cerr << "tgi_serve: worker journaled " << journaled << " points to "
            << assignment.journal_dir << "\n";
  return 0;
}

int run_engine_mode(const util::Config& cfg) {
  util::require_known_keys(cfg,
                           {"campaign", "cache", "outdir", "workers",
                            "threads", "trace", "worker_exe", "restarts",
                            "stall_polls"},
                           "tgi_serve");
  TGI_REQUIRE(cfg.has("campaign"), "tgi_serve needs campaign=FILE");

  // Validate every knob BEFORE touching the campaign file, so a typo'd
  // bound is diagnosed even when the file path is also wrong.
  serve::CampaignConfig config;
  config.cache_dir = cfg.get_string("cache", "tgi_cache");
  config.outdir = cfg.get_string("outdir", "tgi_campaign");
  const long long workers = cfg.get_int("workers", 0);
  TGI_REQUIRE(workers >= 0 && workers <= 128,
              "workers must be in [0, 128] (0 = in-process), got "
                  << workers);
  config.workers = static_cast<std::size_t>(workers);
  const long long threads = cfg.get_int("threads", 1);
  TGI_REQUIRE(threads >= 0, "threads must be >= 0 (0 = default)");
  config.threads = static_cast<std::size_t>(threads);
  config.trace = cfg.get_bool("trace", false);
  config.worker_exe =
      cfg.get_string("worker_exe", util::current_executable());
  const long long restarts =
      cfg.get_int("restarts", static_cast<long long>(
                                  serve::SupervisorConfig{}.max_restarts));
  TGI_REQUIRE(restarts >= 0 && restarts <= 16,
              "restarts must be in [0, 16] (restarts per shard after the "
              "first attempt), got "
                  << restarts);
  config.supervisor.max_restarts = static_cast<std::size_t>(restarts);
  const long long stall_polls =
      cfg.get_int("stall_polls", static_cast<long long>(
                                     serve::SupervisorConfig{}.stall_polls));
  TGI_REQUIRE(stall_polls >= 10 && stall_polls <= 1000000,
              "stall_polls must be in [10, 1000000] (supervision polls "
              "without journal growth before a worker counts as hung), got "
                  << stall_polls);
  config.supervisor.stall_polls = static_cast<std::size_t>(stall_polls);

  const std::vector<serve::CampaignSpec> entries =
      serve::load_campaign_file(*cfg.get("campaign"));
  serve::CampaignEngine engine(std::move(config));
  const serve::CampaignStats stats = engine.run(entries, std::cout);
  std::cerr << "tgi_serve: " << stats.summary() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    bool worker = false;
    const util::Config cfg = parse_tokens(argc, argv, worker);
    return worker ? run_worker_mode(cfg) : run_engine_mode(cfg);
  } catch (const std::exception& ex) {
    std::cerr << "tgi_serve: error: " << ex.what() << "\n";
    return 1;
  }
}
