// tgi_serve — the campaign engine CLI (DESIGN.md §13): many sweep specs
// in one run, deduplicated through a persistent content-addressed result
// cache, cache misses computed in-process.
//
// Engine mode:
//
//   tgi_serve campaign=FILE cache=DIR outdir=DIR [threads=N] [trace=1]
//
// `campaign` lists sweep specs (see serve/spec.h for the format). Every
// (spec, point) pair is keyed by the FNV-1a cache hash; points already in
// `cache` are replayed from their journal records, the rest are computed
// on `threads` and banked as each finishes. A rerun against a warm cache
// recomputes NOTHING and emits stdout, CSVs, and trace.json byte-identical
// to the cold run, at every thread count, plain and faulted. Damaged cache
// entries are quarantined (WARN on stderr) and recomputed. Cache-dependent
// stats go to stderr and outdir/provenance.json only.
//
// Worker mode, kept only because perfbench/ drives it (ROADMAP item 1
// removes it; the engine never spawns it):
//
//   tgi_serve --worker spec=FILE indices=I,J,... journal=DIR [threads=N]
//             [shard=K]
//
// Computes the GLOBAL sweep-point indices of the handoff spec and journals
// them into DIR/journal.tgij, one whole sweep point per unit of work.
#include <iostream>
#include <string>
#include <vector>

#include "serve/campaign.h"
#include "serve/spec.h"
#include "serve/worker.h"
#include "util/config.h"
#include "util/error.h"

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
      {"campaign", "cache", "outdir", "threads", "spec", "indices",
       "journal", "shard"});
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
  TGI_REQUIRE(cfg.get_int("shard", 0) >= 0, "shard must be >= 0");
  const std::size_t journaled = serve::run_worker(spec, assignment);
  std::cerr << "tgi_serve: worker journaled " << journaled << " points to "
            << assignment.journal_dir << "\n";
  return 0;
}

int run_engine_mode(const util::Config& cfg) {
  util::require_known_keys(cfg, {"campaign", "cache", "outdir", "threads",
                                 "trace"},
                           "tgi_serve");
  TGI_REQUIRE(cfg.has("campaign"), "tgi_serve needs campaign=FILE");

  // Validate every option BEFORE touching the campaign file, so a typo'd
  // value is diagnosed even when the file path is also wrong.
  serve::CampaignConfig config;
  config.cache_dir = cfg.get_string("cache", "tgi_cache");
  config.outdir = cfg.get_string("outdir", "tgi_campaign");
  const long long threads = cfg.get_int("threads", 1);
  TGI_REQUIRE(threads >= 0, "threads must be >= 0 (0 = default)");
  config.threads = static_cast<std::size_t>(threads);
  config.trace = cfg.get_bool("trace", false);

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
