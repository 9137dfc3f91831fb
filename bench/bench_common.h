// Shared machinery for the experiment harnesses.
//
// Every figure/table binary accepts `key=value` overrides on the command
// line (seed=…, sweep=…, csv=path, meter=wattsup|model, threads=N,
// trace=DIR, plus any keys the harness itself reads; any other key fails)
// and reads them into the serve::CampaignSpec tgi_sweep builds from the
// same keys. So there is one reproduction path (DESIGN.md §4): run_sweep()
// is tgi_sweep's point body (serve::compute_points), reference_suite() its
// reference run (serve::reference_point), and csv= writes the CSV tgi_sweep
// writes (serve::write_paper_csv). threads=1 reproduces the serial
// execution bit-for-bit, threads=N prints the same numbers N× faster.
// Checkpointed sweeps are tgi_sweep's job (checkpoint=DIR, DESIGN.md §11);
// bench/ablation_checkpoint builds its own journal.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/tgi.h"
#include "harness/parallel.h"
#include "harness/report.h"
#include "harness/suite.h"
#include "obs/trace.h"
#include "serve/campaign.h"
#include "serve/spec.h"
#include "serve/worker.h"
#include "sim/catalog.h"
#include "stats/correlation.h"
#include "stats/regression.h"
#include "util/config.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace tgi::bench {

/// Everything one experiment needs. `spec` is the sweep tgi_sweep runs for
/// the same sweep=, seed= and meter=: Fire against SystemG at the paper
/// seed unless overridden.
struct Experiment {
  util::Config config;
  serve::CampaignSpec spec;
  std::optional<std::string> csv_path;
  /// When set (trace=DIR), run_sweep() writes the deterministic
  /// observability record (DIR/trace.json + DIR/metrics.csv, DESIGN.md
  /// §10). Bit-identical for every threads= value; never changes results.
  std::optional<std::string> trace_dir;
  /// Worker threads for sweeps and fan-outs; 0 = default (TGI_THREADS
  /// env, else hardware concurrency), 1 = serial.
  std::size_t threads = 0;
};

/// Parses argv into an Experiment. Throws on malformed arguments, on a
/// sweep= or meter= that tgi_sweep would refuse, and on any key that is
/// neither a common one nor in `extra_keys` (the keys the harness reads
/// from e.config itself) — all before the harness prints anything.
inline Experiment make_experiment(
    int argc, const char* const* argv,
    const std::vector<std::string>& extra_keys = {}) {
  Experiment e;
  // `--threads N` / `--threads=N` are aliases for `threads=N`.
  e.config = util::Config::from_args(argc, argv, {"threads"});
  std::vector<std::string> known{"sweep", "seed", "meter",
                                 "threads", "csv", "trace"};
  known.insert(known.end(), extra_keys.begin(), extra_keys.end());
  const std::string name =
      argc > 0 ? std::filesystem::path(argv[0]).filename().string()
               : "bench";
  util::require_known_keys(e.config, known, name);
  e.spec = serve::command_line_spec(e.config, name);
  const long long threads = e.config.get_int("threads", 0);
  TGI_REQUIRE(threads >= 0, "threads must be >= 0 (0 = default)");
  e.threads = static_cast<std::size_t>(threads);
  e.csv_path = e.config.get("csv");
  e.trace_dir = e.config.get("trace");
  return e;
}

/// Publishes trace.json + metrics.csv into `dir` and says so.
inline void write_trace_files(const obs::SweepTrace& trace,
                              const std::string& dir) {
  trace.write_files(dir);
  std::cout << "wrote " << dir << "/trace.json (" << trace.event_count()
            << " events) and metrics.csv\n";
}

/// With trace=DIR on the command line, publishes the trace of plain sweep
/// points, derived from their measurements as tgi_sweep derives its own
/// (harness::replay_trace over make_point_record's records). Point k is
/// labelled values[k].
inline void maybe_write_points_trace(
    const Experiment& e, const std::vector<std::size_t>& values,
    const std::vector<harness::SuitePoint>& points) {
  if (!e.trace_dir) return;
  std::map<std::size_t, harness::PointRecord> records;
  for (std::size_t k = 0; k < points.size(); ++k) {
    records.emplace(
        k, harness::make_point_record(k, values[k], points[k], nullptr));
  }
  write_trace_files(harness::replay_trace(records), *e.trace_dir);
}

/// Runs the experiment's sweep through tgi_sweep's point body
/// (serve::compute_points; bit-identical output for any threads= value).
/// With trace=DIR on the command line, also emits the observability record
/// rebuilt from the point records, as tgi_sweep does.
inline std::vector<harness::SuitePoint> run_sweep(const Experiment& e) {
  serve::CampaignStats stats;
  const std::map<std::size_t, harness::PointRecord> records =
      serve::sweep_records(e.spec, nullptr, e.threads, stats);
  if (e.trace_dir) {
    write_trace_files(harness::replay_trace(records), *e.trace_dir);
  }
  std::vector<harness::SuitePoint> points;
  for (const auto& [k, record] : records) points.push_back(record.point);
  return points;
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

/// The reference suite (SystemG, subset-metered I/O): the reference run
/// tgi_sweep publishes as reference_systemg.csv.
inline std::vector<core::BenchmarkMeasurement> reference_suite(
    const Experiment& e) {
  serve::CampaignStats stats;
  return serve::reference_point(e.spec, serve::reference_spec_hash(e.spec),
                                nullptr, stats)
      .point.measurements;
}

/// With csv=path on the command line, creates the path's directory, calls
/// write(path) and says so.
template <typename Write>
void maybe_write_csv(const Experiment& e, Write write) {
  if (!e.csv_path) return;
  const std::filesystem::path parent =
      std::filesystem::path(*e.csv_path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  write(*e.csv_path);
  std::cout << "wrote " << *e.csv_path << "\n";
}

/// Writes one of tgi_sweep's figure/table CSVs when csv=path is given.
inline void maybe_write_csv(const Experiment& e, serve::PaperCsv csv,
                            const serve::PaperSeries& series) {
  maybe_write_csv(e, [&](const std::string& path) {
    serve::write_paper_csv(csv, series, path);
  });
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
