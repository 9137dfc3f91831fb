// tgi_sweep — one-command reproduction: runs the full Fire-vs-SystemG
// sweep and writes every figure/table CSV plus the measurement CSVs that
// tgi_calc consumes.
//
//   tgi_sweep outdir=results [sweep=16,32,...,128] [seed=N]
//             [meter=wattsup|model] [cluster=my.conf]
//             [reference_cluster=ref.conf] [threads=N]
//             [faults=dropout=0.2,stuck=0.1,failure=0.05]
//             [trace=DIR] [profile=DIR] [checkpoint=DIR]
//
// Sweep points run on serve::compute_points, the campaign's point body:
// `threads=N` (or `--threads N`, or the TGI_THREADS environment variable;
// default hardware concurrency) picks the worker count, and every value of
// it writes byte-identical CSVs. Every artifact is written from the
// points' records.
//
// `cluster`/`reference_cluster` load machine descriptions from spec files
// (see sim/spec_io.h and clusters/*.conf); defaults are the paper's Fire
// and SystemG.
//
// `faults=<spec>` (or `--faults <spec>`; see harness::parse_fault_spec for
// the keys) runs the sweep through the deterministic fault plane and
// recovery policy instead (DESIGN.md §9): benchmarks are retried with
// accounted backoff, dropped after retry exhaustion, and degraded points
// report a partial TGI over renormalized weights. This mode writes
// faults_summary.csv plus the per-point measurement CSVs; figure CSVs are
// only produced by fault-free sweeps. A fixed fault spec yields
// byte-identical output at every thread count.
//
// `trace=DIR` (or `--trace DIR`) additionally writes the deterministic
// observability record (DESIGN.md §10): DIR/trace.json (Chrome
// trace-event format on the SIMULATED timeline, spans keyed by
// point/benchmark/attempt) and DIR/metrics.csv (per-point and merged
// counters/gauges), rebuilt from the records (harness::replay_trace). Both
// files are bit-identical for every thread count, for plain and faulted
// sweeps alike. `profile=DIR` writes DIR/profile.json, the wall-clock
// profile channel — explicitly NON-deterministic, never byte-compared.
//
// `checkpoint=DIR` (or `--checkpoint DIR`) makes DIR a result cache
// (harness/cache.h, DESIGN.md §11), the one a one-entry `tgi_serve`
// campaign with the same keys uses, filled by ResultCache::fill: damaged
// records of the shard DIR/<spec hash>.tgij are quarantined with a WARN and
// recomputed, each computed point is appended as it finishes, the
// completed sweep is published in index order, and a clean complete shard
// is not rewritten; the reference run is banked beside it. After a crash
// (or SIGKILL), rerunning the same command computes only the missing
// points — byte-identical output at any thread count. Like `cache=`, the
// key is the spec, not the model code: use a fresh directory after
// changing the model. Replayed and computed counts go to stderr and
// outdir/provenance.json, never stdout.
//
// Produces in `outdir`:
//   fig2_hpl_ee.csv, fig3_stream_ee.csv, fig4_iozone_ee.csv,
//   fig5_tgi_am.csv, fig6_tgi_weighted.csv, table2_pcc.csv,
//   reference_systemg.csv, fire_<cores>.csv (one measurement set per
//   sweep point), sweep_summary.csv, and provenance.json. The figure and
//   table CSVs equal the bench/ harnesses' csv= files byte for byte; Fig. 4
//   is an IOzone node sweep of its own, neither checkpointed nor traced.
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <vector>

#include "core/tgi.h"
#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "harness/faults.h"
#include "harness/measurement_io.h"
#include "harness/report.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/campaign.h"
#include "serve/spec.h"
#include "util/atomic_file.h"
#include "util/config.h"
#include "util/error.h"

namespace {

using namespace tgi;

/// Accepts `--threads N` / `--threads=N` (and the same for `--faults`,
/// `--trace`, `--profile`, `--checkpoint`) as aliases for the `key=value`
/// forms. Unknown keys and unknown --flags are rejected with the full list
/// of valid options.
util::Config parse_args(int argc, const char* const* argv) {
  util::Config cfg = util::Config::from_args(
      argc, argv, {"threads", "faults", "trace", "profile", "checkpoint"});
  util::require_known_keys(
      cfg,
      {"outdir", "sweep", "seed", "meter", "cluster", "reference_cluster",
       "threads", "faults", "trace", "profile", "checkpoint"},
      "tgi_sweep");
  return cfg;
}

int run(int argc, const char* const* argv) {
  const util::Config cfg = parse_args(argc, argv);
  const serve::CampaignSpec spec = serve::command_line_spec(cfg, "tgi_sweep");
  const long long threads_raw = cfg.get_int("threads", 0);
  TGI_REQUIRE(threads_raw >= 0, "threads must be >= 0 (0 = default)");

  const std::string outdir = cfg.get_string("outdir", "tgi_results");
  std::filesystem::create_directories(outdir);
  auto path = [&](const std::string& name) { return outdir + "/" + name; };
  std::cout << "system: " << spec.cluster.name << " ("
            << spec.cluster.total_cores() << " cores), reference: "
            << spec.reference.name << "\n";

  // Checkpoint (DESIGN.md §11): DIR is a result cache, read and filled as
  // a one-entry campaign would.
  std::optional<harness::ResultCache> cache;
  if (const auto dir = cfg.get("checkpoint")) cache.emplace(*dir);
  serve::CampaignStats stats;
  stats.entries = 1;

  // Reference.
  const std::uint64_t reference_hash = serve::reference_spec_hash(spec);
  const harness::PointRecord reference = serve::reference_point(
      spec, reference_hash, cache ? &*cache : nullptr, stats);
  harness::write_measurements_file(path("reference_systemg.csv"),
                                   reference.point.measurements);
  const core::TgiCalculator calc(reference.point.measurements);

  // Observability knobs (DESIGN.md §10). The deterministic trace and the
  // wall profile are independent channels; either may be enabled alone.
  const auto trace_dir = cfg.get("trace");
  const auto profile_dir = cfg.get("profile");
  obs::WallProfiler profiler;
  if (spec.faulted()) {
    std::cout << "fault plane: " << harness::fault_spec_summary(spec.faults())
              << "\n";
  }

  // Sweep (reference_cluster is not in its key: it only affects TGI).
  const std::size_t threads = static_cast<std::size_t>(threads_raw);
  const std::map<std::size_t, harness::PointRecord> records =
      serve::sweep_records(spec, cache ? &*cache : nullptr, threads, stats,
                           profile_dir ? &profiler : nullptr);

  if (trace_dir) {
    const obs::SweepTrace trace = harness::replay_trace(records);
    trace.write_files(*trace_dir);
    std::cout << "wrote " << *trace_dir << "/trace.json ("
              << trace.event_count() << " events) and metrics.csv\n";
  }
  if (profile_dir) {
    std::filesystem::create_directories(*profile_dir);
    util::AtomicFile json(*profile_dir + "/profile.json");
    profiler.write_chrome_trace(json.stream());
    json.commit();
    std::cout << "wrote " << *profile_dir
              << "/profile.json (wall clock; non-deterministic)\n";
  }
  (void)serve::write_sweep_summary(spec, records, calc, outdir, "fire_", "",
                                   std::cout);
  serve::write_provenance(
      outdir, stats,
      {{spec.name, serve::spec_hash(spec), reference_hash, stats.points,
        stats.cache_hits, stats.computed}});
  std::cerr << "tgi_sweep: " << stats.summary() << "\n";
  if (spec.faulted()) {
    std::cout << "wrote " << outdir
              << "/ (faults_summary.csv and measurement CSVs; figure CSVs "
                 "need a fault-free sweep)\n";
    return 0;
  }

  std::vector<harness::SuitePoint> points;
  for (const auto& [k, record] : records) points.push_back(record.point);
  const serve::PaperSeries series = serve::paper_series(points, &calc);
  for (const serve::PaperCsv csv :
       {serve::PaperCsv::kFig2HplEe, serve::PaperCsv::kFig3StreamEe,
        serve::PaperCsv::kFig5TgiAm, serve::PaperCsv::kFig6Weighted,
        serve::PaperCsv::kTable2Pcc}) {
    // Correlations need at least two sweep points.
    if (csv == serve::PaperCsv::kTable2Pcc && points.size() < 2) continue;
    serve::write_paper_csv(csv, series, path(serve::paper_csv_name(csv)));
  }
  const auto node_points = serve::iozone_node_sweep(spec, threads);
  harness::write_csv(serve::fig4_series(node_points),
                     path("fig4_iozone_ee.csv"));

  std::cout << "wrote " << outdir << "/ (figures, tables, and "
            << spec.sweep.size() + 1 << " measurement CSVs)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "tgi_sweep: error: " << ex.what() << "\n";
    return 1;
  }
}
