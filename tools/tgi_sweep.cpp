// tgi_sweep — one-command reproduction: runs the full Fire-vs-SystemG
// sweep and writes every figure/table CSV plus the measurement CSVs that
// tgi_calc consumes.
//
//   tgi_sweep outdir=results [sweep=16,32,...,128] [seed=N] [meter=model]
//             [cluster=my.conf] [reference_cluster=ref.conf] [threads=N]
//             [faults=dropout=0.2,stuck=0.1,failure=0.05]
//             [trace=DIR] [profile=DIR] [checkpoint=DIR] [--resume]
//
// Sweep points run on harness::ParallelSweep: `threads=N` (or `--threads
// N`, or the TGI_THREADS environment variable; default hardware
// concurrency) picks the worker count, and every value of it writes
// byte-identical CSVs — threads=1 is today's serial execution. A sweep
// point (the whole suite at one scale) is the one unit of work.
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
// counters/gauges). Both files are bit-identical for every thread count,
// for plain and faulted sweeps alike, and tracing never changes the sweep
// output. `profile=DIR` writes DIR/profile.json, the wall-clock profile
// channel — explicitly NON-deterministic, never byte-compared.
//
// `checkpoint=DIR` (or `--checkpoint DIR`) journals every completed sweep
// point to DIR/journal.tgij as it finishes (DESIGN.md §11): one
// checksummed append-only record carrying the point's measurements,
// fault/robust accounting, and observability sections. After a crash (or
// SIGKILL), rerunning the same command with `--resume` replays the
// journaled points and recomputes only the missing ones — stdout, every
// CSV, and trace.json come out byte-identical to an uninterrupted run, at
// any thread count. A journal written under a different spec (cluster,
// seed, meter, sweep, faults) is rejected; corrupted or torn records are
// quarantined with a logged reason and recomputed. Resume provenance goes
// to DIR/resume.json (`point_resumed` instants) and stderr, never stdout.
//
// Produces in `outdir`:
//   fig2_hpl_ee.csv, fig3_stream_ee.csv, fig4_iozone_ee.csv,
//   fig5_tgi_am.csv, fig6_tgi_weighted.csv, table2_pcc.csv,
//   reference_systemg.csv, fire_<cores>.csv (one measurement set per
//   sweep point), and sweep_summary.csv.
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>

#include "core/tgi.h"
#include "harness/checkpoint.h"
#include "harness/faults.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "harness/measurement_io.h"
#include "harness/parallel.h"
#include "harness/robust.h"
#include "harness/report.h"
#include "harness/suite.h"
#include "sim/catalog.h"
#include "sim/spec_io.h"
#include "stats/correlation.h"
#include "util/atomic_file.h"
#include "util/config.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace tgi;

/// Accepts `--threads N` / `--threads=N` (and the same for `--faults`,
/// `--trace`, `--profile`, `--checkpoint`) as aliases for the `key=value`
/// forms, plus the bare `--resume` flag. Unknown keys and unknown --flags
/// are rejected with the full list of valid options.
util::Config parse_args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--resume") {
      tokens.push_back("resume=1");
      continue;
    }
    bool aliased = false;
    for (const char* key :
         {"threads", "faults", "trace", "profile", "checkpoint"}) {
      const std::string flag = std::string("--") + key;
      if (arg == flag && i + 1 < argc) {
        tokens.push_back(std::string(key) + "=" + argv[++i]);
        aliased = true;
        break;
      }
      if (arg.rfind(flag + "=", 0) == 0) {
        tokens.push_back(std::string(key) + "=" +
                         arg.substr(flag.size() + 1));
        aliased = true;
        break;
      }
    }
    if (!aliased) tokens.push_back(std::move(arg));
  }
  std::vector<const char*> args;
  args.push_back(argc > 0 ? argv[0] : "tgi_sweep");
  for (const std::string& t : tokens) args.push_back(t.c_str());
  util::Config cfg =
      util::Config::from_args(static_cast<int>(args.size()), args.data());
  util::require_known_keys(
      cfg,
      {"outdir", "sweep", "seed", "meter", "cluster", "reference_cluster",
       "threads", "faults", "trace", "profile", "checkpoint", "resume"},
      "tgi_sweep");
  return cfg;
}

int run(int argc, const char* const* argv) {
  const util::Config cfg = parse_args(argc, argv);
  const std::string outdir = cfg.get_string("outdir", "tgi_results");
  std::filesystem::create_directories(outdir);
  auto path = [&](const std::string& name) { return outdir + "/" + name; };

  std::vector<std::size_t> sweep;
  for (const long long p : cfg.get_int_list(
           "sweep", {16, 32, 48, 64, 80, 96, 112, 128})) {
    sweep.push_back(static_cast<std::size_t>(p));
  }
  const auto seed =
      static_cast<std::uint64_t>(cfg.get_int("seed", 0x9e3779b9LL));
  const bool exact = cfg.get_string("meter", "wattsup") == "model";

  auto make_meter = [&](std::uint64_t salt)
      -> std::unique_ptr<power::PowerMeter> {
    if (exact) {
      return std::make_unique<power::ModelMeter>(util::seconds(0.5));
    }
    power::WattsUpConfig wcfg;
    wcfg.seed = seed + salt;
    return std::make_unique<power::WattsUpMeter>(wcfg);
  };

  const sim::ClusterSpec system_cluster =
      cfg.has("cluster") ? sim::load_cluster_file(*cfg.get("cluster"))
                         : sim::fire_cluster();
  const sim::ClusterSpec reference_cluster =
      cfg.has("reference_cluster")
          ? sim::load_cluster_file(*cfg.get("reference_cluster"))
          : sim::system_g();
  std::cout << "system: " << system_cluster.name << " ("
            << system_cluster.total_cores() << " cores), reference: "
            << reference_cluster.name << "\n";

  // Reference.
  auto ref_meter = make_meter(1);
  const auto reference =
      harness::reference_measurements(reference_cluster, *ref_meter);
  harness::write_measurements_file(path("reference_systemg.csv"), reference);
  const core::TgiCalculator calc(reference);

  // Sweep: points run concurrently on the deterministic engine; the
  // per-point WattsUp meters replay the exact RNG streams of one meter
  // shared across a serial sweep, so the CSVs are thread-count-invariant.
  const long long threads_raw = cfg.get_int("threads", 0);
  TGI_REQUIRE(threads_raw >= 0, "threads must be >= 0 (0 = default)");

  // Observability knobs (DESIGN.md §10). The deterministic trace and the
  // wall profile are independent channels; either may be enabled alone.
  const auto trace_dir = cfg.get("trace");
  const auto profile_dir = cfg.get("profile");
  obs::WallProfiler profiler;
  const auto write_trace_files = [](const obs::SweepTrace& trace,
                                    const std::string& dir) {
    std::filesystem::create_directories(dir);
    util::AtomicFile json(dir + "/trace.json");
    trace.write_chrome_trace(json.stream());
    json.commit();
    util::AtomicFile metrics(dir + "/metrics.csv");
    trace.write_metrics_csv(metrics.stream());
    metrics.commit();
    std::cout << "wrote " << dir << "/trace.json ("
              << trace.event_count() << " events) and metrics.csv\n";
  };
  const auto write_profile_file = [&profiler](const std::string& dir) {
    std::filesystem::create_directories(dir);
    util::AtomicFile json(dir + "/profile.json");
    profiler.write_chrome_trace(json.stream());
    json.commit();
    std::cout << "wrote " << dir
              << "/profile.json (wall clock; non-deterministic)\n";
  };

  // Fault plane, parsed before the checkpoint journal so the journal mode
  // and spec hash can reflect it.
  std::optional<harness::FaultSpec> fspec;
  if (cfg.has("faults")) {
    fspec = harness::parse_fault_spec(*cfg.get("faults"));
  }
  harness::RobustConfig robust;
  // The WattsUp simulation is noisy, so repeated bit-identical samples
  // really are suspicious there; ModelMeter's flat phases are not.
  if (!exact) robust.stuck_run_limit = 8;

  harness::ParallelSweepConfig sweep_cfg;
  sweep_cfg.threads = static_cast<std::size_t>(threads_raw);
  if (profile_dir) sweep_cfg.profiler = &profiler;

  // Checkpoint journal (DESIGN.md §11). The spec text below must capture
  // everything that determines a sweep point's bytes: the system cluster,
  // the RNG seed, the meter kind, the suite roster, and the fault plane +
  // recovery policy. The sweep values themselves live in the journal
  // header. reference_cluster is deliberately EXCLUDED — it only affects
  // derived TGI output, which resume recomputes from the journaled raw
  // measurements.
  const auto checkpoint_dir = cfg.get("checkpoint");
  const bool resume = cfg.get_bool("resume", false);
  TGI_REQUIRE(!resume || checkpoint_dir,
              "resume requires checkpoint=DIR (nothing to resume from)");
  std::unique_ptr<harness::CheckpointJournal> journal;
  if (checkpoint_dir) {
    std::string spec_text;
    spec_text += "meter=" + std::string(exact ? "model" : "wattsup") + "\n";
    spec_text += "seed=" + std::to_string(seed) + "\n";
    std::string roster;
    for (const std::string& name :
         harness::suite_benchmarks(sweep_cfg.suite)) {
      if (!roster.empty()) roster += ',';
      roster += name;
    }
    spec_text += "suite=" + roster + "\n";
    if (fspec) {
      spec_text += "faults=" + harness::fault_spec_summary(*fspec) + "\n";
      spec_text += "stuck_run_limit=" +
                   std::to_string(robust.stuck_run_limit) + "\n";
    }
    spec_text += sim::cluster_to_config(system_cluster);
    harness::CheckpointConfig ccfg;
    ccfg.directory = *checkpoint_dir;
    ccfg.resume = resume;
    journal = std::make_unique<harness::CheckpointJournal>(
        std::move(ccfg), harness::journal_spec_hash(spec_text),
        fspec ? "robust" : "plain", sweep);
    sweep_cfg.checkpoint = journal.get();
  }

  // Fault mode: same sweep, but through the fault plane and recovery
  // policy. Kept strictly separate from the plain path so a fault-free
  // invocation reproduces today's CSVs byte-for-byte.
  if (fspec) {
    const harness::FaultPlan plan(*fspec);
    harness::MeterFactory factory;
    if (exact) {
      factory = harness::model_meter_factory(util::seconds(0.5));
    } else {
      power::WattsUpConfig wcfg;
      wcfg.seed = seed;
      factory = harness::wattsup_meter_factory(
          wcfg,
          harness::robust_measurements_per_point(sweep_cfg.suite, robust));
    }
    const harness::ParallelSweep engine(system_cluster, factory, sweep_cfg);
    std::cout << "fault plane: " << harness::fault_spec_summary(*fspec)
              << "\n";
    obs::SweepTrace trace;
    const std::vector<harness::RobustSuitePoint> points = engine.run_robust(
        sweep, plan, robust, trace_dir ? &trace : nullptr);
    if (trace_dir) write_trace_files(trace, *trace_dir);
    if (profile_dir) write_profile_file(*profile_dir);

    util::AtomicFile fault_file(path("faults_summary.csv"));
    util::CsvWriter fcsv(fault_file.stream());
    fcsv.write_row({"cores", "tgi_am", "missing", "attempts", "retries",
                    "run_faults", "meter_faults", "rejected_readings",
                    "dropped_benchmarks", "backoff_s", "stalled_s"});
    for (std::size_t k = 0; k < sweep.size(); ++k) {
      const harness::RobustSuitePoint& rp = points[k];
      std::string missing;
      for (const std::string& name : rp.missing) {
        if (!missing.empty()) missing += '+';
        missing += name;
      }
      std::string tgi_am = "nan";
      if (!rp.point.measurements.empty()) {
        const core::PartialTgiResult partial = calc.compute_partial(
            rp.point.measurements, core::WeightScheme::kArithmeticMean);
        tgi_am = util::fixed(partial.result.tgi, 6);
        harness::write_measurements_file(
            path("fire_" + std::to_string(sweep[k]) + ".csv"),
            rp.point.measurements);
      }
      const harness::PointCounters& c = rp.counters;
      fcsv.write_row({std::to_string(sweep[k]), tgi_am, missing,
                      std::to_string(c.attempts), std::to_string(c.retries),
                      std::to_string(c.run_faults),
                      std::to_string(c.meter_faults),
                      std::to_string(c.rejected_readings),
                      std::to_string(c.dropped_benchmarks),
                      util::fixed(c.backoff.value(), 1),
                      util::fixed(c.stalled.value(), 1)});
      std::cout << "cores " << sweep[k] << ": TGI(AM) " << tgi_am
                << (rp.degraded() ? " [partial: missing " + missing + "]"
                                  : "")
                << " attempts=" << c.attempts << " retries=" << c.retries
                << " faults=" << c.run_faults + c.meter_faults << "\n";
    }
    fault_file.commit();
    std::cout << "wrote " << outdir
              << "/ (faults_summary.csv and measurement CSVs; figure CSVs "
                 "need a fault-free sweep)\n";
    return 0;
  }

  harness::MeterFactory factory;
  if (exact) {
    factory = harness::model_meter_factory(util::seconds(0.5));
  } else {
    power::WattsUpConfig wcfg;
    wcfg.seed = seed;
    // One measurement per suite member — derived from the same roster
    // run_suite executes, not a hand-maintained constant.
    factory = harness::wattsup_meter_factory(
        wcfg, harness::suite_benchmarks(sweep_cfg.suite).size());
  }
  const harness::ParallelSweep engine(system_cluster, factory, sweep_cfg);
  obs::SweepTrace trace;
  const std::vector<harness::SuitePoint> points =
      engine.run(sweep, trace_dir ? &trace : nullptr);
  if (trace_dir) write_trace_files(trace, *trace_dir);
  if (profile_dir) write_profile_file(*profile_dir);

  std::map<std::string, std::vector<double>> ee;
  std::vector<double> x;
  std::map<core::WeightScheme, std::vector<double>> tgi;
  const std::vector<core::WeightScheme> schemes{
      core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
      core::WeightScheme::kEnergy, core::WeightScheme::kPower};

  util::AtomicFile summary_file(path("sweep_summary.csv"));
  util::CsvWriter summary(summary_file.stream());
  summary.write_row({"cores", "tgi_am", "tgi_time", "tgi_energy",
                     "tgi_power", "hpl_mflops", "hpl_watts",
                     "stream_mbps", "stream_watts", "iozone_mbps",
                     "iozone_watts"});

  for (std::size_t k = 0; k < sweep.size(); ++k) {
    const std::size_t p = sweep[k];
    const harness::SuitePoint& point = points[k];
    harness::write_measurements_file(
        path("fire_" + std::to_string(p) + ".csv"), point.measurements);
    x.push_back(static_cast<double>(p));
    std::vector<std::string> row{std::to_string(p)};
    for (const auto scheme : schemes) {
      const double value = calc.compute(point.measurements, scheme).tgi;
      tgi[scheme].push_back(value);
      row.push_back(util::fixed(value, 6));
    }
    for (const char* name : {"HPL", "STREAM", "IOzone"}) {
      const auto& m = core::find_measurement(point.measurements, name);
      ee[name].push_back(m.performance / m.average_power.value());
      row.push_back(util::fixed(m.performance, 3));
      row.push_back(util::fixed(m.average_power.value(), 3));
    }
    summary.write_row(row);
    std::cout << "cores " << p << ": TGI(AM) "
              << util::fixed(tgi[schemes[0]].back(), 4) << "\n";
  }
  summary_file.commit();

  // Figure CSVs.
  harness::write_csv(
      harness::Series{"processes", "MFLOPS_per_W", x, ee["HPL"]},
      path("fig2_hpl_ee.csv"));
  harness::write_csv(
      harness::Series{"processes", "MBPS_per_W", x, ee["STREAM"]},
      path("fig3_stream_ee.csv"));
  harness::write_csv(
      harness::Series{"processes", "MBPS_per_W", x, ee["IOzone"]},
      path("fig4_iozone_ee.csv"));
  harness::write_csv(
      harness::Series{"cores", "TGI_AM", x,
                      tgi[core::WeightScheme::kArithmeticMean]},
      path("fig5_tgi_am.csv"));
  harness::MultiSeries fig6;
  fig6.x_label = "cores";
  fig6.x = x;
  fig6.series = {{"W_t", tgi[core::WeightScheme::kTime]},
                 {"W_e", tgi[core::WeightScheme::kEnergy]},
                 {"W_p", tgi[core::WeightScheme::kPower]},
                 {"AM", tgi[core::WeightScheme::kArithmeticMean]}};
  harness::write_csv(fig6, path("fig6_tgi_weighted.csv"));

  // Table II CSV (correlations need at least two sweep points).
  if (x.size() >= 2) {
    util::AtomicFile out(path("table2_pcc.csv"));
    util::CsvWriter csv(out.stream());
    csv.write_row({"benchmark", "am", "time", "energy", "power"});
    for (const char* name : {"IOzone", "STREAM", "HPL"}) {
      std::vector<std::string> row{name};
      for (const auto scheme : schemes) {
        row.push_back(
            util::fixed(stats::pearson(tgi[scheme], ee[name]), 6));
      }
      csv.write_row(row);
    }
    out.commit();
  }

  std::cout << "wrote " << outdir << "/ (figures, tables, and "
            << sweep.size() + 1 << " measurement CSVs)\n";
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
