// Energy-efficiency metrics pluggable into TGI.
//
// The paper computes TGI over performance-per-watt (Eq. 2) but notes the
// methodology "can be used with any other energy-efficient metric, such as
// the energy-delay product" (Section II). Both are provided; inverse EDP is
// used so that, like perf/W, *larger is better* and the REE normalization
// of Eq. 3 stays a simple ratio.
#pragma once

#include "core/measurement.h"

namespace tgi::core {

enum class EfficiencyMetric {
  /// Performance / average wall power (the paper's choice; Eq. 2).
  kPerformancePerWatt,
  /// 1 / (energy × delay). Dimensionful, but REE cancels the units.
  kInverseEnergyDelay,
};

/// Human-readable metric name.
[[nodiscard]] const char* efficiency_metric_name(EfficiencyMetric metric);

/// Facility overhead applied on top of IT power — the paper's "TGI can be
/// extended to incorporate power consumed outside the HPC system, e.g.,
/// cooling" (Section II, advantage 2). PUE multiplies measured wall power
/// and energy.
struct CoolingModel {
  /// Power Usage Effectiveness; 1.0 = no facility overhead.
  double pue = 1.0;
};

/// The energy efficiency EE_i of one measurement (Eq. 2 generalized).
/// Precondition: measurement validates; pue >= 1; the EE is a finite,
/// positive, normal double (finite inputs may over- or underflow it).
[[nodiscard]] double energy_efficiency(const BenchmarkMeasurement& m,
                                       EfficiencyMetric metric,
                                       const CoolingModel& cooling = {});

}  // namespace tgi::core
