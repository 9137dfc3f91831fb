#include "core/efficiency.h"

#include <cmath>

#include "util/error.h"

namespace tgi::core {

const char* efficiency_metric_name(EfficiencyMetric metric) {
  switch (metric) {
    case EfficiencyMetric::kPerformancePerWatt:
      return "performance/watt";
    case EfficiencyMetric::kInverseEnergyDelay:
      return "1/(energy*delay)";
  }
  return "?";
}

double energy_efficiency(const BenchmarkMeasurement& m,
                         EfficiencyMetric metric,
                         const CoolingModel& cooling) {
  m.validate();
  TGI_REQUIRE(cooling.pue >= 1.0, "PUE must be >= 1, got " << cooling.pue);
  const double ee = [&] {
    switch (metric) {
      case EfficiencyMetric::kPerformancePerWatt:
        return m.performance / (m.average_power.value() * cooling.pue);
      case EfficiencyMetric::kInverseEnergyDelay:
        return 1.0 / (m.energy.value() * cooling.pue *
                      m.execution_time.value());
    }
    throw util::InternalError("unknown efficiency metric");
  }();
  // Finite inputs can still over- or underflow here: an infinite EE, a zero
  // or a subnormal one would publish an infinite or a zero TGI.
  TGI_REQUIRE(std::isnormal(ee) && ee > 0.0,
              m.benchmark << ": " << efficiency_metric_name(metric)
                          << " energy efficiency is " << ee
                          << "; it must be a finite, positive, normal "
                             "double (the inputs over- or underflow)");
  return ee;
}

}  // namespace tgi::core
