// Shared machinery for the experiment harnesses.
//
// Every figure/table binary accepts `key=value` overrides on the command
// line (seed=…, sweep=…, csv=path, meter=wattsup|model, threads=N,
// checkpoint=DIR, resume=1) and funnels through run_sweep() so all eight
// experiments measure the same way the paper did: Fire behind the plug
// meter, SystemG as the SPEC-style reference. Sweeps run on the
// deterministic parallel engine (harness::ParallelSweep): threads=1
// reproduces the serial execution bit-for-bit, threads=N prints the same
// numbers N× faster. checkpoint=DIR journals completed points
// (DESIGN.md §11); resume=1 replays them after a crash, byte-identically.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tgi.h"
#include "harness/checkpoint.h"
#include "harness/parallel.h"
#include "harness/report.h"
#include "harness/suite.h"
#include "obs/trace.h"
#include "sim/catalog.h"
#include "sim/spec_io.h"
#include "stats/correlation.h"
#include "stats/regression.h"
#include "util/atomic_file.h"
#include "util/config.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace tgi::bench {

/// The paper's Fire sweep grid (16..128 MPI processes).
inline std::vector<std::size_t> default_sweep() {
  return {16, 32, 48, 64, 80, 96, 112, 128};
}

/// Everything one experiment needs.
struct Experiment {
  util::Config config;
  std::vector<std::size_t> sweep;
  std::unique_ptr<power::PowerMeter> meter;
  std::unique_ptr<power::PowerMeter> reference_meter;
  sim::ClusterSpec system_under_test;
  sim::ClusterSpec reference_system;
  std::optional<std::string> csv_path;
  /// When set (trace=DIR), run_sweep() writes the deterministic
  /// observability record (DIR/trace.json + DIR/metrics.csv, DESIGN.md
  /// §10). Bit-identical for every threads= value; never changes results.
  std::optional<std::string> trace_dir;
  /// When set (checkpoint=DIR), run_sweep() journals completed points to
  /// DIR/journal.tgij; resume=1 replays the journal after a crash and the
  /// output stays byte-identical to an uninterrupted run (DESIGN.md §11).
  std::optional<std::string> checkpoint_dir;
  bool resume = false;
  std::uint64_t seed = 0;
  std::string meter_kind;
  /// Worker threads for sweeps and fan-outs; 0 = default (TGI_THREADS
  /// env, else hardware concurrency), 1 = serial.
  std::size_t threads = 0;
};

/// Parses argv, additionally accepting the conventional `--threads N` /
/// `--threads=N` spellings as aliases for the repo's `threads=N` form.
inline util::Config parse_bench_args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    const std::string prefix = "--threads=";
    if (arg == "--threads" && i + 1 < argc) {
      tokens.push_back(std::string("threads=") + argv[++i]);
    } else if (arg.rfind(prefix, 0) == 0) {
      tokens.push_back("threads=" + arg.substr(prefix.size()));
    } else {
      tokens.push_back(std::move(arg));
    }
  }
  std::vector<const char*> args;
  args.push_back(argc > 0 ? argv[0] : "bench");
  for (const std::string& t : tokens) args.push_back(t.c_str());
  return util::Config::from_args(static_cast<int>(args.size()), args.data());
}

/// Parses argv into an Experiment (throws on malformed arguments).
inline Experiment make_experiment(int argc, const char* const* argv) {
  Experiment e;
  e.config = parse_bench_args(argc, argv);
  std::vector<long long> sweep_raw;
  for (std::size_t p : default_sweep()) {
    sweep_raw.push_back(static_cast<long long>(p));
  }
  for (long long p : e.config.get_int_list("sweep", sweep_raw)) {
    e.sweep.push_back(static_cast<std::size_t>(p));
  }
  e.seed = static_cast<std::uint64_t>(e.config.get_int("seed", 0x9e3779b9LL));
  e.meter_kind = e.config.get_string("meter", "wattsup");
  const long long threads = e.config.get_int("threads", 0);
  TGI_REQUIRE(threads >= 0, "threads must be >= 0 (0 = default)");
  e.threads = static_cast<std::size_t>(threads);
  auto make_meter = [&](std::uint64_t salt) -> std::unique_ptr<power::PowerMeter> {
    if (e.meter_kind == "model") {
      return std::make_unique<power::ModelMeter>(util::seconds(0.5));
    }
    if (e.meter_kind == "wattsup") {
      power::WattsUpConfig cfg;
      cfg.seed = e.seed + salt;
      return std::make_unique<power::WattsUpMeter>(cfg);
    }
    throw util::PreconditionError("meter must be 'wattsup' or 'model', got '" +
                                  e.meter_kind + "'");
  };
  e.meter = make_meter(0);
  e.reference_meter = make_meter(0x517cc1b7ULL);
  e.system_under_test = sim::fire_cluster();
  e.reference_system = sim::system_g();
  e.csv_path = e.config.get("csv");
  e.trace_dir = e.config.get("trace");
  e.checkpoint_dir = e.config.get("checkpoint");
  e.resume = e.config.get_bool("resume", false);
  TGI_REQUIRE(!e.resume || e.checkpoint_dir,
              "resume=1 requires checkpoint=DIR (nothing to resume from)");
  return e;
}

/// Measurements one run_suite() point performs (the WattsUp run_offset
/// stride that makes a per-point meter replay the shared-meter streams) —
/// derived from the same suite_benchmarks() roster run_suite executes.
inline std::size_t suite_measurements(const harness::SuiteConfig& suite) {
  return harness::suite_benchmarks(suite).size();
}

/// Writes trace.json + metrics.csv into `dir` (created if needed); each
/// file is published atomically (write-to-temp + rename).
inline void write_trace_files(const obs::SweepTrace& trace,
                              const std::string& dir) {
  std::filesystem::create_directories(dir);
  util::AtomicFile json(dir + "/trace.json");
  trace.write_chrome_trace(json.stream());
  json.commit();
  util::AtomicFile metrics(dir + "/metrics.csv");
  trace.write_metrics_csv(metrics.stream());
  metrics.commit();
  std::cout << "wrote " << dir << "/trace.json (" << trace.event_count()
            << " events) and metrics.csv\n";
}

/// Builds the checkpoint journal for a plain bench sweep when the user
/// passed checkpoint=DIR (nullptr otherwise). The spec text captures
/// everything that determines the sweep bytes — cluster, seed, meter
/// kind, suite roster — so a stale journal from a different experiment
/// setup is rejected instead of silently replayed.
inline std::unique_ptr<harness::CheckpointJournal> make_checkpoint_journal(
    const Experiment& e, const harness::SuiteConfig& suite) {
  if (!e.checkpoint_dir) return nullptr;
  std::string spec_text;
  spec_text += "meter=" + e.meter_kind + "\n";
  spec_text += "seed=" + std::to_string(e.seed) + "\n";
  std::string roster;
  for (const std::string& name : harness::suite_benchmarks(suite)) {
    if (!roster.empty()) roster += ',';
    roster += name;
  }
  spec_text += "suite=" + roster + "\n";
  spec_text += sim::cluster_to_config(e.system_under_test);
  harness::CheckpointConfig ccfg;
  ccfg.directory = *e.checkpoint_dir;
  ccfg.resume = e.resume;
  return std::make_unique<harness::CheckpointJournal>(
      std::move(ccfg), harness::journal_spec_hash(spec_text), "plain",
      e.sweep);
}

/// Per-point meter factory matching the experiment's meter= selection,
/// seeded so point k's instrument replays exactly the error draws it
/// would see from one meter shared across a serial sweep.
inline harness::MeterFactory sweep_meter_factory(
    const Experiment& e, std::size_t measurements_per_point,
    std::uint64_t salt = 0) {
  if (e.meter_kind == "model") {
    return harness::model_meter_factory(util::seconds(0.5));
  }
  power::WattsUpConfig cfg;
  cfg.seed = e.seed + salt;
  return harness::wattsup_meter_factory(cfg, measurements_per_point);
}

/// Runs the full suite sweep on the system under test (parallel across
/// sweep points; bit-identical output for any threads= value). With
/// trace=DIR on the command line, also emits the observability record.
inline std::vector<harness::SuitePoint> run_sweep(
    Experiment& e, const harness::SuiteConfig& suite = {}) {
  harness::ParallelSweepConfig cfg;
  cfg.suite = suite;
  cfg.threads = e.threads;
  const std::unique_ptr<harness::CheckpointJournal> journal =
      make_checkpoint_journal(e, suite);
  cfg.checkpoint = journal.get();
  harness::ParallelSweep sweep(e.system_under_test,
                               sweep_meter_factory(e, suite_measurements(suite)),
                               cfg);
  if (!e.trace_dir) return sweep.run(e.sweep);
  obs::SweepTrace trace;
  std::vector<harness::SuitePoint> points = sweep.run(e.sweep, &trace);
  write_trace_files(trace, *e.trace_dir);
  return points;
}

/// Per-benchmark EE (performance per watt) pulled out of a sweep.
inline std::vector<double> ee_series(
    const std::vector<harness::SuitePoint>& points, const std::string& name) {
  std::vector<double> out;
  for (const auto& pt : points) {
    const auto& m = core::find_measurement(pt.measurements, name);
    out.push_back(m.performance / m.average_power.value());
  }
  return out;
}

/// x axis (process counts) as doubles.
inline std::vector<double> x_axis(const std::vector<std::size_t>& sweep) {
  return {sweep.begin(), sweep.end()};
}

/// [check] lines that printed FAILED so far; run_harness exits 1 if any did.
inline std::size_t failed_checks = 0;

/// Prints a qualitative shape check ("who wins / which way does it trend")
/// so a regression in the model fails loudly in the bench output — and in
/// its exit status.
inline void print_check(const std::string& what, bool ok) {
  std::cout << "[check] " << what << ": " << (ok ? "OK" : "FAILED") << "\n";
  if (!ok) ++failed_checks;
}

/// Spin-loop iterations per second summed over `threads` pool workers,
/// each spinning through the same 40 ms wall window.
inline double spin_throughput(std::size_t threads) {
  using clock = std::chrono::steady_clock;
  const clock::duration window = std::chrono::milliseconds(40);
  std::vector<std::uint64_t> done(threads, 0);
  const auto spin = [&done, window](std::size_t t) {
    const clock::time_point end = clock::now() + window;
    std::uint64_t iterations = 0;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
    while (clock::now() < end) {
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ULL + 1;
      ++iterations;
    }
    done[t] = iterations + (x == 0 ? 1 : 0);  // keeps x observable
  };
  if (threads <= 1) {
    spin(0);
  } else {
    util::ThreadPool pool(threads);
    util::parallel_for(pool, threads, spin);
  }
  std::uint64_t total = 0;
  for (const std::uint64_t d : done) total += d;
  return static_cast<double>(total) /
         std::chrono::duration<double>(window).count();
}

/// Cores this process can use at once, measured: the best spin throughput
/// of 2..max_threads concurrent workers over the best of three
/// single-worker windows. A shared VM can list more cores (nproc) than it
/// delivers, so speedup checks gate on this, never on nproc.
inline double effective_cores(std::size_t max_threads) {
  double single = 0.0;
  for (int r = 0; r < 3; ++r) single = std::max(single, spin_throughput(1));
  double best = single;
  for (std::size_t n = 2; n <= max_threads; ++n) {
    best = std::max(best, spin_throughput(n));
  }
  return single > 0.0 ? best / single : 0.0;
}

/// Reference suite measured once (SystemG, subset-metered I/O).
inline std::vector<core::BenchmarkMeasurement> reference_suite(Experiment& e) {
  return harness::reference_measurements(e.reference_system,
                                         *e.reference_meter);
}

/// Writes CSV when the user passed csv=path.
inline void maybe_write_csv(const Experiment& e,
                            const harness::Series& series) {
  if (e.csv_path) {
    harness::write_csv(series, *e.csv_path);
    std::cout << "wrote " << *e.csv_path << "\n";
  }
}

inline void maybe_write_csv(const Experiment& e,
                            const harness::MultiSeries& multi) {
  if (e.csv_path) {
    harness::write_csv(multi, *e.csv_path);
    std::cout << "wrote " << *e.csv_path << "\n";
  }
}

/// Common main() wrapper: uniform error reporting across the harnesses.
template <typename Body>
int run_harness(int argc, const char* const* argv, Body body) {
  try {
    Experiment e = make_experiment(argc, argv);
    body(e);
    if (failed_checks > 0) {
      std::cerr << "error: " << failed_checks << " [check] line(s) FAILED\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "error: " << ex.what() << "\n";
    return 1;
  }
}

}  // namespace tgi::bench
