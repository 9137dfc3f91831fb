#include "core/measurement.h"

#include <cmath>

#include "util/error.h"

namespace tgi::core {

void BenchmarkMeasurement::validate(double tol) const {
  TGI_REQUIRE(!benchmark.empty(), "measurement without a benchmark name");
  TGI_REQUIRE(performance > 0.0,
              benchmark << ": performance must be positive");
  TGI_REQUIRE(average_power.value() > 0.0,
              benchmark << ": power must be positive");
  TGI_REQUIRE(execution_time.value() > 0.0,
              benchmark << ": execution time must be positive");
  TGI_REQUIRE(energy.value() > 0.0, benchmark << ": energy must be positive");
  // inf passes every check above and would publish an infinite TGI.
  TGI_REQUIRE(std::isfinite(performance) &&
                  std::isfinite(average_power.value()) &&
                  std::isfinite(execution_time.value()) &&
                  std::isfinite(energy.value()),
              benchmark << ": performance, power, time and energy must be "
                           "finite");
  const double implied = average_power.value() * execution_time.value();
  TGI_REQUIRE(std::fabs(energy.value() - implied) <= tol * implied,
              benchmark << ": energy " << energy.value()
                        << " J inconsistent with power×time " << implied
                        << " J");
}

BenchmarkMeasurement make_measurement(std::string benchmark,
                                      double performance,
                                      std::string metric_unit,
                                      const power::MeterReading& reading) {
  BenchmarkMeasurement m;
  m.benchmark = std::move(benchmark);
  m.performance = performance;
  m.metric_unit = std::move(metric_unit);
  m.average_power = reading.average_power;
  m.execution_time = reading.duration;
  m.energy = reading.energy;
  m.validate();
  return m;
}

const BenchmarkMeasurement& find_measurement(
    const std::vector<BenchmarkMeasurement>& set,
    const std::string& benchmark) {
  for (const auto& m : set) {
    if (m.benchmark == benchmark) return m;
  }
  throw util::PreconditionError("no measurement for benchmark '" + benchmark +
                                "'");
}

}  // namespace tgi::core
