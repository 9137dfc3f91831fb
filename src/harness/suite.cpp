#include "harness/suite.h"

#include <cstdlib>

#include "util/error.h"
#include "util/format.h"
#include "util/log.h"

namespace tgi::harness {

std::vector<std::string> suite_benchmarks(const SuiteConfig& config) {
  std::vector<std::string> names = {"HPL", "STREAM", "IOzone"};
  if (config.include_gups) names.emplace_back("GUPS");
  return names;
}

std::vector<std::string> extended_suite_benchmarks() {
  return {"HPL", "STREAM", "IOzone", "GUPS", "PTRANS", "FFT"};
}

SuiteRunner::SuiteRunner(sim::ClusterSpec cluster, power::PowerMeter& meter,
                         SuiteConfig config)
    : simulator_(std::move(cluster), config.tuning),
      meter_(meter),
      config_(config) {}

core::BenchmarkMeasurement SuiteRunner::measure(const sim::Workload& workload,
                                                double performance,
                                                const std::string& unit,
                                                const sim::SimulatedRun& run) {
  // Record the run before metering: the simulated benchmark completed and
  // its time is spent whether or not the reading survives validation
  // downstream, so the span (and the clock advance) belong to the run.
  if (recorder_ != nullptr) {
    recorder_->span(workload.benchmark, "benchmark", recorder_->now(),
                    run.elapsed,
                    {{"performance", util::fixed(performance, 3)},
                     {"unit", unit}});
    recorder_->advance(run.elapsed);
    recorder_->metrics().add("runs");
    recorder_->metrics().add("measured_seconds", run.elapsed.value());
  }
  const power::MeterReading reading =
      meter_.measure(run.timeline.as_source(), run.elapsed);
  TGI_LOG_DEBUG(workload.benchmark
                << ": " << performance << " " << unit << " over "
                << run.elapsed.value() << " s at "
                << reading.average_power.value() << " W");
  return core::make_measurement(workload.benchmark, performance, unit,
                                reading);
}

core::BenchmarkMeasurement SuiteRunner::run_hpl(std::size_t processes) {
  kernels::HplModelParams params = config_.hpl;
  params.processes = processes;
  const sim::Workload wl = kernels::make_hpl_workload(cluster(), params);
  const sim::SimulatedRun run = simulator_.run(wl);
  const double mflops =
      wl.total_flops().value() / run.elapsed.value() / 1e6;
  return measure(wl, mflops, "MFLOPS", run);
}

core::BenchmarkMeasurement SuiteRunner::run_stream(std::size_t processes) {
  kernels::StreamModelParams params = config_.stream;
  params.processes = processes;
  const sim::Workload wl = kernels::make_stream_workload(cluster(), params);
  const sim::SimulatedRun run = simulator_.run(wl);
  const double mbps =
      wl.total_memory_bytes().value() / run.elapsed.value() / 1e6;
  return measure(wl, mbps, "MBPS", run);
}

core::BenchmarkMeasurement SuiteRunner::run_iozone(std::size_t nodes) {
  kernels::IozoneModelParams params = config_.iozone;
  params.nodes = nodes;
  const sim::Workload wl = kernels::make_iozone_workload(cluster(), params);
  const sim::SimulatedRun run = simulator_.run(wl);
  const double mbps =
      wl.total_io_bytes().value() / run.elapsed.value() / 1e6;
  return measure(wl, mbps, "MBPS", run);
}

core::BenchmarkMeasurement SuiteRunner::run_gups(std::size_t processes) {
  kernels::GupsModelParams params = config_.gups;
  params.processes = processes;
  const sim::Workload wl = kernels::make_gups_workload(cluster(), params);
  const sim::SimulatedRun run = simulator_.run(wl);
  const kernels::RankLayout layout =
      kernels::layout_for(cluster(), processes, params.placement);
  const double total_updates = params.updates_per_node(cluster()) *
                               static_cast<double>(layout.nodes);
  const double gups = total_updates / run.elapsed.value() / 1e9;
  return measure(wl, gups, "GUPS", run);
}

core::BenchmarkMeasurement SuiteRunner::run_ptrans(std::size_t processes) {
  kernels::PtransModelParams params = config_.ptrans;
  params.processes = processes;
  const sim::Workload wl = kernels::make_ptrans_workload(cluster(), params);
  const sim::SimulatedRun run = simulator_.run(wl);
  const kernels::RankLayout layout =
      kernels::layout_for(cluster(), processes, params.placement);
  const double total_bytes = params.matrix_bytes_per_node(cluster()) *
                             static_cast<double>(layout.nodes);
  const double mbps = total_bytes / run.elapsed.value() / 1e6;
  return measure(wl, mbps, "MBPS", run);
}

core::BenchmarkMeasurement SuiteRunner::run_fft(std::size_t processes) {
  kernels::FftModelParams params = config_.fft;
  params.processes = processes;
  const sim::Workload wl = kernels::make_fft_workload(cluster(), params);
  const sim::SimulatedRun run = simulator_.run(wl);
  const double mflops =
      wl.total_flops().value() / run.elapsed.value() / 1e6;
  return measure(wl, mflops, "MFLOPS", run);
}

SuitePoint SuiteRunner::run_extended_suite(std::size_t processes) {
  SuitePoint point;
  point.processes = processes;
  point.nodes = cluster().nodes_for(processes);
  // Unlike run_suite, the extended loop does NOT stamp a per-benchmark
  // recorder context: extended spans have always carried benchmark=0,
  // attempt=0.
  for (const std::string& name : extended_suite_benchmarks()) {
    point.measurements.push_back(run_benchmark(name, processes));
  }
  return point;
}

core::BenchmarkMeasurement SuiteRunner::run_benchmark(const std::string& name,
                                                      std::size_t processes) {
  if (name == "HPL") return run_hpl(processes);
  if (name == "STREAM") return run_stream(processes);
  if (name == "IOzone") return run_iozone(cluster().nodes_for(processes));
  if (name == "GUPS") return run_gups(processes);
  if (name == "PTRANS") return run_ptrans(processes);
  if (name == "FFT") return run_fft(processes);
  TGI_REQUIRE(false, "unknown suite benchmark '" << name << "'");
  std::abort();  // unreachable; TGI_REQUIRE(false, ...) always throws
}

SuitePoint SuiteRunner::run_suite(std::size_t processes) {
  SuitePoint point;
  point.processes = processes;
  point.nodes = cluster().nodes_for(processes);
  const std::vector<std::string> benches = suite_benchmarks(config_);
  for (std::size_t b = 0; b < benches.size(); ++b) {
    if (recorder_ != nullptr) recorder_->set_context(b, 0);
    point.measurements.push_back(run_benchmark(benches[b], processes));
  }
  return point;
}

std::vector<SuitePoint> SuiteRunner::sweep(
    const std::vector<std::size_t>& process_counts) {
  TGI_REQUIRE(!process_counts.empty(), "empty sweep");
  std::vector<SuitePoint> points;
  points.reserve(process_counts.size());
  for (const std::size_t p : process_counts) {
    points.push_back(run_suite(p));
  }
  return points;
}

std::vector<core::BenchmarkMeasurement> reference_measurements(
    const sim::ClusterSpec& reference_cluster, power::PowerMeter& meter,
    SuiteConfig config, obs::PointRecorder* recorder) {
  // Reference runs meter the participating subset (see SuiteConfig docs).
  config.tuning.meter_active_nodes_only = true;
  SuiteRunner runner(reference_cluster, meter, config);
  runner.attach_recorder(recorder);
  std::vector<core::BenchmarkMeasurement> measurements;
  measurements.push_back(runner.run_hpl(reference_cluster.total_cores()));
  measurements.push_back(runner.run_stream(reference_cluster.total_cores()));
  measurements.push_back(runner.run_iozone(
      std::min(config.reference_iozone_nodes, reference_cluster.nodes)));
  if (config.include_gups) {
    measurements.push_back(runner.run_gups(reference_cluster.total_cores()));
  }
  return measurements;
}

}  // namespace tgi::harness
