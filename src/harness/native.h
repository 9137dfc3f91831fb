// Native suite: run the REAL benchmark kernels on the local machine and
// package them as TGI measurements.
//
// This is the first-class version of what a user without a cluster does:
// HPL executes an actual blocked LU factorization, STREAM streams host
// DRAM, IOzone exercises the simulated filesystem — all verified
// (residuals, closed-form checks, read-back) — and power comes from a node
// model at stated utilization profiles, since laptops rarely ship with plug
// meters.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/measurement.h"
#include "power/node_model.h"

namespace tgi::harness {

/// Knobs for the host-scale run.
struct NativeSuiteConfig {
  /// HPL problem order and blocking.
  std::size_t hpl_n = 384;
  std::size_t hpl_block = 48;
  /// STREAM array elements and repetitions.
  std::size_t stream_elements = 2'000'000;
  int stream_iterations = 3;
  int stream_threads = 2;
  /// IOzone file/record sizes (runs against the simulated filesystem).
  util::ByteCount iozone_file{util::mebibytes(64.0)};
  util::ByteCount iozone_record{util::kibibytes(128.0)};
  /// Include a GUPS measurement (fourth benchmark).
  bool include_gups = false;
  unsigned gups_log2_table = 20;
  std::uint64_t seed = 2026;
};

/// Runs the suite; throws if any kernel fails its own verification.
/// `node_power` models the machine the kernels ran on.
[[nodiscard]] std::vector<core::BenchmarkMeasurement> run_native_suite(
    const NativeSuiteConfig& config,
    const power::NodePowerModel& node_power);

}  // namespace tgi::harness
