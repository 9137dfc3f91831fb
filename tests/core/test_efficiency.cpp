// Energy-efficiency metrics (Eq. 2 and the EDP alternative) with cooling.
#include "core/efficiency.h"

#include <gtest/gtest.h>

#include <string>

#include "util/error.h"

namespace tgi::core {
namespace {

BenchmarkMeasurement sample() {
  BenchmarkMeasurement m;
  m.benchmark = "X";
  m.performance = 1000.0;
  m.metric_unit = "MBPS";
  m.average_power = util::watts(500.0);
  m.execution_time = util::seconds(20.0);
  m.energy = util::joules(10000.0);
  return m;
}

TEST(Efficiency, PerformancePerWatt) {
  EXPECT_DOUBLE_EQ(
      energy_efficiency(sample(), EfficiencyMetric::kPerformancePerWatt),
      2.0);
}

TEST(Efficiency, InverseEnergyDelay) {
  EXPECT_DOUBLE_EQ(
      energy_efficiency(sample(), EfficiencyMetric::kInverseEnergyDelay),
      1.0 / (10000.0 * 20.0));
}

TEST(Efficiency, PueScalesBothMetrics) {
  const CoolingModel cooling{.pue = 2.0};
  EXPECT_DOUBLE_EQ(energy_efficiency(sample(),
                                     EfficiencyMetric::kPerformancePerWatt,
                                     cooling),
                   1.0);
  EXPECT_DOUBLE_EQ(
      energy_efficiency(sample(), EfficiencyMetric::kInverseEnergyDelay,
                        cooling),
      1.0 / (20000.0 * 20.0));
}

TEST(Efficiency, RejectsSubUnityPue) {
  const CoolingModel cooling{.pue = 0.9};
  EXPECT_THROW((void)energy_efficiency(sample(),
                                 EfficiencyMetric::kPerformancePerWatt,
                                 cooling),
               util::PreconditionError);
}

TEST(Efficiency, ValidatesMeasurement) {
  BenchmarkMeasurement bad = sample();
  bad.performance = -1.0;
  EXPECT_THROW(
      (void)energy_efficiency(bad, EfficiencyMetric::kPerformancePerWatt),
      util::PreconditionError);
}

TEST(Efficiency, RejectsAnEfficiencyThatOverOrUnderflows) {
  // Finite, valid measurements whose EE is inf, subnormal or 0; each
  // error names the benchmark and the metric.
  BenchmarkMeasurement overflow = sample();
  overflow.performance = 1e300;
  overflow.average_power = util::watts(1e-10);
  overflow.execution_time = util::seconds(1.0);
  overflow.energy = util::joules(1e-10);
  BenchmarkMeasurement subnormal = sample();
  subnormal.performance = 1e-300;
  subnormal.average_power = util::watts(1e10);
  subnormal.execution_time = util::seconds(1.0);
  subnormal.energy = util::joules(1e10);
  BenchmarkMeasurement edp_overflow = sample();
  edp_overflow.average_power = util::watts(1e150);
  edp_overflow.execution_time = util::seconds(1e150);
  edp_overflow.energy = util::joules(1e300);
  const struct {
    const BenchmarkMeasurement& m;
    EfficiencyMetric metric;
    const char* says;
  } cases[] = {
      {overflow, EfficiencyMetric::kPerformancePerWatt,
       "X: performance/watt energy efficiency is inf"},
      {subnormal, EfficiencyMetric::kPerformancePerWatt,
       "X: performance/watt energy efficiency is 1e-310"},
      {edp_overflow, EfficiencyMetric::kInverseEnergyDelay,
       "X: 1/(energy*delay) energy efficiency is 0"},
  };
  for (const auto& c : cases) {
    c.m.validate();
    try {
      (void)energy_efficiency(c.m, c.metric);
      ADD_FAILURE() << c.says;
    } catch (const util::PreconditionError& e) {
      EXPECT_NE(std::string(e.what()).find(c.says), std::string::npos)
          << e.what();
    }
  }
  // The other metric of each is fine.
  EXPECT_GT(energy_efficiency(overflow, EfficiencyMetric::kInverseEnergyDelay),
            0.0);
  EXPECT_GT(
      energy_efficiency(edp_overflow, EfficiencyMetric::kPerformancePerWatt),
      0.0);
}

TEST(Efficiency, MetricNames) {
  EXPECT_STREQ(
      efficiency_metric_name(EfficiencyMetric::kPerformancePerWatt),
      "performance/watt");
  EXPECT_STREQ(efficiency_metric_name(EfficiencyMetric::kInverseEnergyDelay),
               "1/(energy*delay)");
}

}  // namespace
}  // namespace tgi::core
