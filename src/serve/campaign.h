// The campaign engine (DESIGN.md §13): many sweep specs in, deduplicated
// through the content-addressed result cache, cache misses sharded across
// worker processes, every artifact byte-identical to a cold serial run.
//
// Execution of one entry — steps 1-4 are one harness::ResultCache::fill:
//   1. look the spec's shard up — valid records are cache hits, damaged
//      ones are quarantined (WARN) and become misses; a clean all-hit
//      shard is served and never rewritten;
//   2. shard the missing GLOBAL indices round-robin across `workers`
//      `tgi_serve --worker` processes, each journaling into its own
//      scratch directory under <cache>/work/ (0 = compute in-process
//      through the same point body, serve::compute_points — no scratch);
//   3. supervise every shard through serve::Supervisor (DESIGN.md §15):
//      a progress watchdog SIGTERM→SIGKILLs hung workers, failed attempts
//      (signal / nonzero / hang / clean-but-incomplete journal) are WARNed
//      and restarted over ONLY the still-missing indices with accounted
//      exponential backoff, and a crash-looping shard is quarantined.
//      Attempt journals merge in FIXED SHARD-then-ATTEMPT ORDER (first
//      valid record per index wins — order only matters for damage
//      accounting, since a point's record bytes are identical whichever
//      worker computed them); whatever a quarantined shard still owes is
//      recomputed in-process (serve::compute_points) — the campaign
//      self-heals;
//   4. append each fresh record to the shard as it arrives, publish it in
//      index order, and emit from the records — byte-identical cold or
//      warm, since the store refuses a record its load would quarantine;
//   5. the entry's reference run is filled the same way under its own key
//      (reference_point, reference_spec_text), so repeated reference
//      machines across entries and campaigns are hits too.
//
// Cache-dependent facts (hit/miss counts, worker failures, quarantines)
// never reach the report stream: they go to stderr and to
// outdir/provenance.json (write_provenance), which is excluded from all
// byte comparisons. tgi_sweep shares fill_points, reference_point and the
// provenance writer: its checkpoint directory is a result cache.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "core/tgi.h"
#include "harness/cache.h"
#include "harness/checkpoint.h"
#include "harness/report.h"
#include "harness/suite.h"
#include "obs/profile.h"
#include "serve/spec.h"
#include "serve/supervisor.h"

namespace tgi::serve {

struct CampaignConfig {
  /// Result cache directory (shards + worker scratch live here).
  std::string cache_dir;
  /// Output directory: one subdirectory per entry + provenance.json.
  std::string outdir;
  /// Worker processes per entry's miss set; 0 = compute in-process.
  std::size_t workers = 0;
  /// Sweep threads per compute (in-process and per worker); 0 = ThreadPool
  /// default, 1 = serial.
  std::size_t threads = 1;
  /// Worker executable (tgi_serve); required when workers > 0.
  std::string worker_exe;
  /// Write per-entry trace/trace.json + trace/metrics.csv (DESIGN.md §10),
  /// rebuilt from the journaled observability sections.
  bool trace = false;
  /// Worker supervision policy (DESIGN.md §15): progress watchdog, bounded
  /// restarts with accounted backoff, crash-loop quarantine.
  SupervisorConfig supervisor;
};

/// What a campaign run did. `computed` is the recompute counter the hit-
/// semantics tests pin to zero on a warm cache.
struct CampaignStats {
  std::size_t entries = 0;
  std::size_t points = 0;           ///< sweep points + reference runs
  std::size_t cache_hits = 0;       ///< served from the cache
  std::size_t computed = 0;         ///< actually recomputed this run
  std::size_t quarantined = 0;      ///< damaged cache/journal records
  std::size_t worker_failures = 0;  ///< failed worker attempts (any strike)
  std::size_t worker_restarts = 0;  ///< supervised restarts performed
  std::size_t worker_hangs = 0;     ///< attempts killed by the watchdog
  std::size_t worker_quarantined = 0;  ///< shards that exhausted restarts

  [[nodiscard]] std::string summary() const;
};

/// One entry's line in provenance.json.
struct EntryProvenance {
  std::string name;
  std::uint64_t spec = 0;            ///< spec_hash: the sweep's shard
  std::uint64_t reference_spec = 0;  ///< reference_spec_hash
  std::size_t points = 0;            ///< sweep points + the reference run
  std::size_t hits = 0;
  std::size_t computed = 0;
  std::vector<ShardReport> shards;  ///< supervision taxonomy, workers > 0
};

/// Writes <outdir>/provenance.json: `stats` and one object per entry, every
/// string JSON-escaped. tgi_serve and tgi_sweep both write it.
void write_provenance(const std::string& outdir, const CampaignStats& stats,
                      const std::vector<EntryProvenance>& entries);

/// Every point of `values` by index, counted into `stats`: ResultCache::fill
/// under `hash`, or all computed when `cache` is null.
std::map<std::size_t, harness::PointRecord> fill_points(
    const harness::ResultCache* cache, std::uint64_t hash,
    const std::string& mode, const std::vector<std::size_t>& values,
    const harness::PointCompute& compute, CampaignStats& stats);

/// The spec's sweep records, counted into `stats`: fill_points under
/// spec_hash(spec) over serve::compute_points on `threads`, the point body
/// of tgi_sweep and the fig/table harnesses. `cache` and `profiler` may be
/// null.
std::map<std::size_t, harness::PointRecord> sweep_records(
    const CampaignSpec& spec, const harness::ResultCache* cache,
    std::size_t threads, CampaignStats& stats,
    obs::WallProfiler* profiler = nullptr);

/// The entry's reference run, counted into `stats`: fill_points under
/// `reference_hash`, which is reference_spec_hash(spec) (the caller keeps
/// it for provenance). `cache` may be null.
harness::PointRecord reference_point(const CampaignSpec& spec,
                                     std::uint64_t reference_hash,
                                     const harness::ResultCache* cache,
                                     CampaignStats& stats);

/// Writes one sweep's summary — faults_summary.csv for a faulted spec,
/// sweep_summary.csv otherwise — plus <dir>/<point_prefix><value>.csv for
/// every point with measurements, and prints one report line per point to
/// `out`, each starting with `label`. `records` holds every index of
/// spec.sweep. The campaign engine and tgi_sweep both emit through this,
/// so their CSVs agree byte for byte. Returns the measurement CSVs written.
std::size_t write_sweep_summary(
    const CampaignSpec& spec,
    const std::map<std::size_t, harness::PointRecord>& records,
    const core::TgiCalculator& calc, const std::string& dir,
    const std::string& point_prefix, const std::string& label,
    std::ostream& out);

/// The TGI weight schemes of the paper's figures and tables, in Table II's
/// column order.
inline constexpr std::array<core::WeightScheme, 4> kPaperSchemes{
    core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
    core::WeightScheme::kEnergy, core::WeightScheme::kPower};

/// The paper's series over one fault-free process sweep (DESIGN.md §4):
/// the process counts, each benchmark's EE (performance per watt) by name
/// (HPL, STREAM, IOzone), and the TGI under each of kPaperSchemes. tgi_sweep
/// and the fig/table harnesses build Figs. 2, 3, 5, 6 and Table II from it.
struct PaperSeries {
  std::vector<double> x;
  std::map<std::string, std::vector<double>> ee;
  std::map<core::WeightScheme, std::vector<double>> tgi;  ///< empty w/o calc
};

/// Builds the series from a sweep's points; `calc` (the reference) may be
/// null when only the EE series are wanted.
[[nodiscard]] PaperSeries paper_series(
    const std::vector<harness::SuitePoint>& points,
    const core::TgiCalculator* calc);

/// The CSV artifacts of a fault-free process sweep.
enum class PaperCsv { kFig2HplEe, kFig3StreamEe, kFig5TgiAm, kFig6Weighted,
                      kTable2Pcc };

/// The file name tgi_sweep gives `csv` in its outdir.
[[nodiscard]] const char* paper_csv_name(PaperCsv csv);

/// Writes one artifact of `series` to `path`, with the one set of headers
/// tgi_sweep and the harnesses' csv= share. Figs. 5-6 and Table II need
/// the TGI series; Table II needs at least two points.
void write_paper_csv(PaperCsv csv, const PaperSeries& series,
                     const std::string& path);

/// Figure 4's node sweep: IOzone alone on 1..spec.cluster.nodes nodes of
/// the spec's cluster, one measurement per point, so point k meters at run
/// offset k of the spec's seed. About `nodes` IOzone measurements: it is
/// not cached and not part of a sweep's trace record.
[[nodiscard]] std::vector<harness::SuitePoint> iozone_node_sweep(
    const CampaignSpec& spec, std::size_t threads);

/// Figure 4 (nodes, IOzone EE) from iozone_node_sweep's points, labelled
/// as tgi_sweep and the harness's csv= write it.
[[nodiscard]] harness::Series fig4_series(
    const std::vector<harness::SuitePoint>& node_points);

class CampaignEngine {
 public:
  explicit CampaignEngine(CampaignConfig config);

  /// Runs the campaign. The human-readable report goes to `out` and is
  /// byte-identical for every thread count, worker count, and cache state;
  /// per-entry artifacts land under outdir/<entry>/. Returns the run's
  /// stats (also written to outdir/provenance.json).
  CampaignStats run(const std::vector<CampaignSpec>& entries,
                    std::ostream& out);

  [[nodiscard]] const CampaignConfig& config() const { return config_; }

 private:
  CampaignConfig config_;
};

}  // namespace tgi::serve
