// The measurement tuple TGI is computed from.
#pragma once

#include <string>
#include <vector>

#include "power/meter.h"
#include "util/units.h"

namespace tgi::core {

/// One benchmark's observed (performance, power, time, energy) on one
/// system — the quantity Equations 2-4 of the paper operate on.
///
/// `performance` is in the benchmark's *own* metric (GFLOPS for HPL, MB/s
/// for STREAM and IOzone); TGI never compares raw performance across
/// benchmarks, only reference-normalized efficiencies, so heterogeneous
/// units are fine by construction (the point of the metric).
struct BenchmarkMeasurement {
  std::string benchmark;
  double performance = 0.0;
  std::string metric_unit;
  util::Watts average_power{0.0};
  util::Seconds execution_time{0.0};
  util::Joules energy{0.0};

  /// Throws unless the tuple is physically sensible (positive, finite
  /// performance, power, time and energy; energy consistent with power·time
  /// within `tol`).
  void validate(double tol = 0.05) const;
};

/// Builds a measurement from a benchmark's performance figure and the
/// meter reading that covered its run.
[[nodiscard]] BenchmarkMeasurement make_measurement(
    std::string benchmark, double performance, std::string metric_unit,
    const power::MeterReading& reading);

/// Finds the measurement for `benchmark` in `set`; throws if absent.
[[nodiscard]] const BenchmarkMeasurement& find_measurement(
    const std::vector<BenchmarkMeasurement>& set,
    const std::string& benchmark);

}  // namespace tgi::core
