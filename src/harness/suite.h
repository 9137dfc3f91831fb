// Suite orchestration: run {HPL, STREAM, IOzone} on a simulated cluster
// behind a power meter and produce the measurement tuples TGI consumes.
//
// This is the software analogue of the paper's experimental procedure:
// plug the cluster into the Watts Up meter (Figure 1), run each benchmark
// at a given scale, record performance and the meter's (power, energy),
// repeat across the core-count sweep.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/measurement.h"
#include "kernels/extended_models.h"
#include "kernels/gups_model.h"
#include "kernels/hpl_model.h"
#include "kernels/iozone_model.h"
#include "kernels/stream_model.h"
#include "obs/trace.h"
#include "power/meter.h"
#include "sim/simulator.h"

namespace tgi::harness {

/// Benchmark parameters for a suite run (process count is supplied per
/// call; these are the per-benchmark knobs).
struct SuiteConfig {
  kernels::HplModelParams hpl;
  kernels::StreamModelParams stream;
  kernels::IozoneModelParams iozone;
  kernels::GupsModelParams gups;
  kernels::PtransModelParams ptrans;
  kernels::FftModelParams fft;
  /// Add RandomAccess (GUPS) as a fourth suite member — the paper's
  /// "TGI is not limited by the number of benchmarks" claim in action
  /// (see bench/ablation_suite_size).
  bool include_gups = false;
  sim::SimTuning tuning;
  /// Node count for the reference system's IOzone measurement. The paper's
  /// Table I reference power for IOzone (1.52 kW — a metered subset, not
  /// all 128 nodes at ~30 kW) shows the reference I/O test ran on a slice.
  std::size_t reference_iozone_nodes = 8;
};

/// One sweep point: the suite measured at a given scale.
struct SuitePoint {
  std::size_t processes = 0;
  std::size_t nodes = 0;
  std::vector<core::BenchmarkMeasurement> measurements;
};

/// The ordered roster of the paper suite for `config` — the ONE
/// enumeration that SuiteRunner::run_suite execution order,
/// RobustSuiteRunner's retry loop, robust_measurements_per_point's meter
/// stride, and the bench harnesses' measurements-per-point all derive
/// from, so they cannot drift apart when the suite grows a member.
[[nodiscard]] std::vector<std::string> suite_benchmarks(
    const SuiteConfig& config);

/// The ordered roster of the six-benchmark extended suite (paper trio +
/// GUPS + PTRANS + FFT) — the enumeration SuiteRunner::run_extended_suite
/// executes, member for member.
[[nodiscard]] std::vector<std::string> extended_suite_benchmarks();

/// Runs the benchmark suite on a simulated cluster through a power meter.
class SuiteRunner {
 public:
  /// `meter` must outlive the runner.
  SuiteRunner(sim::ClusterSpec cluster, power::PowerMeter& meter,
              SuiteConfig config = {});

  /// HPL at `processes` ranks; performance in MFLOPS.
  [[nodiscard]] core::BenchmarkMeasurement run_hpl(std::size_t processes);

  /// STREAM Triad at `processes` ranks; performance in MB/s (1e6).
  [[nodiscard]] core::BenchmarkMeasurement run_stream(std::size_t processes);

  /// IOzone write test on `nodes` nodes; performance in MB/s (1e6).
  [[nodiscard]] core::BenchmarkMeasurement run_iozone(std::size_t nodes);

  /// RandomAccess at `processes` ranks; performance in GUPS.
  [[nodiscard]] core::BenchmarkMeasurement run_gups(std::size_t processes);

  /// PTRANS at `processes` ranks; performance in MB/s of matrix moved.
  [[nodiscard]] core::BenchmarkMeasurement run_ptrans(std::size_t processes);

  /// Distributed FFT at `processes` ranks; performance in MFLOPS.
  [[nodiscard]] core::BenchmarkMeasurement run_fft(std::size_t processes);

  /// Runs the suite member named in suite_benchmarks() or
  /// extended_suite_benchmarks() ("HPL", "STREAM", "IOzone", "GUPS",
  /// "PTRANS", "FFT") at `processes` ranks; IOzone uses the nodes hosting
  /// the ranks. Throws PreconditionError for unknown names.
  [[nodiscard]] core::BenchmarkMeasurement run_benchmark(
      const std::string& name, std::size_t processes);

  /// The six-benchmark HPCC-flavored suite (paper trio + GUPS + PTRANS +
  /// FFT) at one scale.
  [[nodiscard]] SuitePoint run_extended_suite(std::size_t processes);

  /// The full suite at one scale (IOzone uses the nodes hosting the ranks).
  [[nodiscard]] SuitePoint run_suite(std::size_t processes);

  /// The suite across a process-count sweep (the paper's Figures 5-6 grid).
  [[nodiscard]] std::vector<SuitePoint> sweep(
      const std::vector<std::size_t>& process_counts);

  [[nodiscard]] const sim::ClusterSpec& cluster() const {
    return simulator_.cluster();
  }

  /// Attaches (or detaches, with nullptr) a trace recorder: every
  /// subsequent benchmark run records a span on the recorder's simulated
  /// timeline and advances its clock by the run's elapsed time. Purely
  /// observational — attaching a recorder never changes a measurement.
  /// The recorder must outlive the runner (or be detached first).
  void attach_recorder(obs::PointRecorder* recorder) { recorder_ = recorder; }

 private:
  [[nodiscard]] core::BenchmarkMeasurement measure(
      const sim::Workload& workload, double performance,
      const std::string& unit, const sim::SimulatedRun& run);

  sim::ExecutionSimulator simulator_;
  power::PowerMeter& meter_;
  SuiteConfig config_;
  obs::PointRecorder* recorder_ = nullptr;
};

/// Reference measurements: the full suite at the reference cluster's full
/// scale — what SystemG provides in the paper (Table I). When `recorder`
/// is non-null the run records benchmark spans on it (observational, never
/// changes a measurement) — the campaign engine journals reference runs
/// into its result cache, and journal records carry the observability
/// section (DESIGN.md §11, §13).
[[nodiscard]] std::vector<core::BenchmarkMeasurement> reference_measurements(
    const sim::ClusterSpec& reference_cluster, power::PowerMeter& meter,
    SuiteConfig config = {}, obs::PointRecorder* recorder = nullptr);

}  // namespace tgi::harness
