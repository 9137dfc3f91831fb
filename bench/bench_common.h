// Shared machinery for the experiment harnesses.
//
// Every figure/table binary accepts `key=value` overrides on the command
// line (seed=…, sweep=…, csv=path, meter=wattsup|model, threads=N,
// trace=DIR, plus any keys the harness itself reads; any other key fails)
// and funnels through run_sweep() so all eight experiments measure the
// same way the paper did: Fire behind the plug meter, SystemG as the
// SPEC-style reference. Sweeps run on the deterministic parallel engine
// (harness::ParallelSweep): threads=1 reproduces the serial execution
// bit-for-bit, threads=N prints the same numbers N× faster. Checkpointed
// sweeps are tgi_sweep's job (checkpoint=DIR, DESIGN.md §11);
// bench/ablation_checkpoint builds its own journal.
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
#include "harness/parallel.h"
#include "harness/report.h"
#include "harness/suite.h"
#include "obs/trace.h"
#include "sim/catalog.h"
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
  std::uint64_t seed = 0;
  std::string meter_kind;
  /// Worker threads for sweeps and fan-outs; 0 = default (TGI_THREADS
  /// env, else hardware concurrency), 1 = serial.
  std::size_t threads = 0;
};

/// Parses argv into an Experiment. Throws on malformed arguments and on
/// any key that is neither a common one nor in `extra_keys` (the keys the
/// harness reads from e.config itself).
inline Experiment make_experiment(
    int argc, const char* const* argv,
    const std::vector<std::string>& extra_keys = {}) {
  Experiment e;
  // `--threads N` / `--threads=N` are aliases for `threads=N`.
  e.config = util::Config::from_args(argc, argv, {"threads"});
  std::vector<std::string> known{"sweep", "seed", "meter",
                                 "threads", "csv", "trace"};
  known.insert(known.end(), extra_keys.begin(), extra_keys.end());
  util::require_known_keys(
      e.config, known,
      argc > 0 ? std::filesystem::path(argv[0]).filename().string()
               : "bench");
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
  return e;
}

/// Measurements one run_suite() point performs (the WattsUp run_offset
/// stride that makes a per-point meter replay the shared-meter streams) —
/// derived from the same suite_benchmarks() roster run_suite executes.
inline std::size_t suite_measurements(const harness::SuiteConfig& suite) {
  return harness::suite_benchmarks(suite).size();
}

/// Publishes trace.json + metrics.csv into `dir` and says so.
inline void write_trace_files(const obs::SweepTrace& trace,
                              const std::string& dir) {
  trace.write_files(dir);
  std::cout << "wrote " << dir << "/trace.json (" << trace.event_count()
            << " events) and metrics.csv\n";
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

/// Bitwise equality of two measurement sets (== on every double, no
/// tolerance: the determinism contract is exact).
inline bool same_measurements(
    const std::vector<core::BenchmarkMeasurement>& a,
    const std::vector<core::BenchmarkMeasurement>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].benchmark != b[i].benchmark ||
        a[i].metric_unit != b[i].metric_unit ||
        a[i].performance != b[i].performance ||
        a[i].average_power.value() != b[i].average_power.value() ||
        a[i].execution_time.value() != b[i].execution_time.value() ||
        a[i].energy.value() != b[i].energy.value()) {
      return false;
    }
  }
  return true;
}

/// Bitwise equality of two sweeps, point by point.
inline bool same_points(const std::vector<harness::SuitePoint>& a,
                        const std::vector<harness::SuitePoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t k = 0; k < a.size(); ++k) {
    if (a[k].processes != b[k].processes || a[k].nodes != b[k].nodes ||
        !same_measurements(a[k].measurements, b[k].measurements)) {
      return false;
    }
  }
  return true;
}

/// x axis (process counts) as doubles.
inline std::vector<double> x_axis(const std::vector<std::size_t>& sweep) {
  return {sweep.begin(), sweep.end()};
}

/// Monotonic wall clock in seconds, for the micro benches' timings.
inline double now_seconds() {
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration<double>(t).count();
}

/// Compiler fence: forces `value` to exist in memory and clobbers the
/// optimizer's view of it, so repeated timing iterations of a pure
/// function cannot be hoisted or folded away.
template <typename T>
void keep(T& value) {
  asm volatile("" : "+m"(value) : : "memory");
}

/// Best wall time of `trials` calls of `f`, after one untimed warm-up
/// call (caches and the branch predictor).
template <typename F>
double best_seconds(std::size_t trials, F&& f) {
  f();
  double best = 1e300;
  for (std::size_t t = 0; t < trials; ++t) {
    const double t0 = now_seconds();
    f();
    best = std::min(best, now_seconds() - t0);
  }
  return best;
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
/// `extra_keys` are the keys the harness reads from e.config itself.
template <typename Body>
int run_harness(int argc, const char* const* argv, Body body,
                const std::vector<std::string>& extra_keys = {}) {
  try {
    Experiment e = make_experiment(argc, argv, extra_keys);
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
