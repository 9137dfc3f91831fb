#include "harness/native.h"

#include "fs/filesystem.h"
#include "kernels/gups.h"
#include "kernels/hpl.h"
#include "kernels/iozone.h"
#include "kernels/stream.h"
#include "util/error.h"

namespace tgi::harness {

namespace {

core::BenchmarkMeasurement package(
    const power::NodePowerModel& node, std::string name, double performance,
    std::string unit, util::Seconds elapsed,
    power::ComponentUtilization profile) {
  core::BenchmarkMeasurement m;
  m.benchmark = std::move(name);
  m.performance = performance;
  m.metric_unit = std::move(unit);
  m.average_power = node.wall_power(profile);
  m.execution_time = elapsed;
  m.energy = m.average_power * m.execution_time;
  m.validate();
  return m;
}

}  // namespace

std::vector<core::BenchmarkMeasurement> run_native_suite(
    const NativeSuiteConfig& config,
    const power::NodePowerModel& node_power) {
  std::vector<core::BenchmarkMeasurement> out;

  // --- HPL (real blocked LU factorization, residual-verified) -----------
  const kernels::HplResult hpl =
      kernels::run_hpl_serial(config.hpl_n, config.hpl_block, config.seed);
  TGI_REQUIRE(hpl.passed,
              "HPL failed its residual test: " << hpl.residual);
  out.push_back(package(node_power, "HPL",
                        util::in_megaflops(hpl.rate()), "MFLOPS",
                        hpl.elapsed,
                        {.cpu = 1.0, .memory = 0.4, .disk = 0.0,
                         .network = 0.1}));

  // --- STREAM (real Triad on host memory, closed-form validated) ---------
  kernels::StreamConfig stream_cfg;
  stream_cfg.array_elements = config.stream_elements;
  stream_cfg.iterations = config.stream_iterations;
  stream_cfg.threads = config.stream_threads;
  const kernels::StreamResult stream = kernels::run_stream(stream_cfg);
  TGI_REQUIRE(stream.validated, "STREAM validation failed");
  out.push_back(package(node_power, "STREAM",
                        util::in_megabytes_per_sec(stream.triad), "MBPS",
                        stream.elapsed,
                        {.cpu = 0.6, .memory = 1.0, .disk = 0.0,
                         .network = 0.0}));

  // --- IOzone (simulated filesystem, read-back verified) -----------------
  fs::SimFilesystem filesystem;
  kernels::IozoneConfig io_cfg;
  io_cfg.file_size = config.iozone_file;
  io_cfg.record_size = config.iozone_record;
  io_cfg.seed = config.seed;
  const kernels::IozoneResult io = kernels::run_iozone(filesystem, io_cfg);
  TGI_REQUIRE(io.validated, "IOzone read-back verification failed");
  out.push_back(package(node_power, "IOzone",
                        util::in_megabytes_per_sec(io.write), "MBPS",
                        io.elapsed,
                        {.cpu = 0.2, .memory = 0.3, .disk = 1.0,
                         .network = 0.0}));

  // --- GUPS (optional fourth member) --------------------------------------
  if (config.include_gups) {
    kernels::GupsConfig gups_cfg;
    gups_cfg.log2_table_words = config.gups_log2_table;
    gups_cfg.updates = 4ull << config.gups_log2_table;
    gups_cfg.threads = config.stream_threads;
    const kernels::GupsResult gups = kernels::run_gups(gups_cfg);
    TGI_REQUIRE(gups.validated, "GUPS verification failed");
    out.push_back(package(node_power, "GUPS", gups.gups, "GUPS",
                          gups.elapsed,
                          {.cpu = 0.8, .memory = 0.9, .disk = 0.0,
                           .network = 0.0}));
  }
  return out;
}

}  // namespace tgi::harness
