// SuiteRunner integration: measurements through the metering stack.
#include "harness/suite.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/tgi.h"
#include "generated_cluster.h"
#include "sim/catalog.h"
#include "sim/spec_io.h"
#include "stats/means.h"
#include "util/error.h"
#include "util/rng.h"

namespace tgi::harness {
namespace {

TEST(SuiteRunner, ProducesValidMeasurements) {
  power::ModelMeter meter(util::seconds(0.5));
  SuiteRunner runner(sim::fire_cluster(), meter);
  const SuitePoint point = runner.run_suite(32);
  EXPECT_EQ(point.processes, 32u);
  ASSERT_EQ(point.measurements.size(), 3u);
  EXPECT_EQ(point.measurements[0].benchmark, "HPL");
  EXPECT_EQ(point.measurements[1].benchmark, "STREAM");
  EXPECT_EQ(point.measurements[2].benchmark, "IOzone");
  for (const auto& m : point.measurements) {
    EXPECT_NO_THROW(m.validate()) << m.benchmark;
  }
}

TEST(SuiteRunner, UnitsMatchPaperFigures) {
  power::ModelMeter meter;
  SuiteRunner runner(sim::fire_cluster(), meter);
  EXPECT_EQ(runner.run_hpl(16).metric_unit, "MFLOPS");
  EXPECT_EQ(runner.run_stream(16).metric_unit, "MBPS");
  EXPECT_EQ(runner.run_iozone(1).metric_unit, "MBPS");
}

TEST(SuiteRunner, SweepCoversRequestedGrid) {
  power::ModelMeter meter;
  SuiteRunner runner(sim::fire_cluster(), meter);
  const auto points = runner.sweep({16, 64, 128});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].processes, 16u);
  EXPECT_EQ(points[2].processes, 128u);
  EXPECT_THROW(runner.sweep({}), util::PreconditionError);
}

TEST(SuiteRunner, DeterministicWithModelMeter) {
  power::ModelMeter meter;
  SuiteRunner runner(sim::fire_cluster(), meter);
  const auto a = runner.run_hpl(64);
  const auto b = runner.run_hpl(64);
  EXPECT_DOUBLE_EQ(a.performance, b.performance);
  EXPECT_DOUBLE_EQ(a.average_power.value(), b.average_power.value());
}

TEST(SuiteRunner, HplPerformanceScalesWithProcesses) {
  power::ModelMeter meter;
  SuiteRunner runner(sim::fire_cluster(), meter);
  EXPECT_GT(runner.run_hpl(128).performance,
            2.0 * runner.run_hpl(32).performance);
}

TEST(SuiteRunner, IozonePowerGrowsWithNodes) {
  power::ModelMeter meter;
  SuiteRunner runner(sim::fire_cluster(), meter);
  EXPECT_GT(runner.run_iozone(8).average_power.value(),
            runner.run_iozone(1).average_power.value());
}

TEST(SuiteRunner, MeterDropoutIsBridgedThroughTheSuite) {
  // End-to-end over the full metering stack: serial-link dropouts leave
  // gaps in the instrument's trace, and the trapezoidal integration
  // bridges them, so suite-level energies barely move. Gain and noise are
  // zeroed so dropout is the only difference between the two runs.
  power::WattsUpConfig clean_cfg;
  clean_cfg.accuracy_pct = 0.0;
  clean_cfg.noise_pct = 0.0;
  power::WattsUpConfig lossy_cfg = clean_cfg;
  lossy_cfg.dropout_rate = 0.2;
  power::WattsUpMeter clean(clean_cfg);
  power::WattsUpMeter lossy(lossy_cfg);
  SuiteRunner clean_runner(sim::fire_cluster(), clean);
  SuiteRunner lossy_runner(sim::fire_cluster(), lossy);
  const SuitePoint a = clean_runner.run_suite(64);
  const SuitePoint b = lossy_runner.run_suite(64);
  ASSERT_EQ(a.measurements.size(), b.measurements.size());
  for (std::size_t i = 0; i < a.measurements.size(); ++i) {
    EXPECT_EQ(a.measurements[i].benchmark, b.measurements[i].benchmark);
    EXPECT_NEAR(b.measurements[i].energy.value(),
                a.measurements[i].energy.value(),
                0.02 * a.measurements[i].energy.value())
        << a.measurements[i].benchmark;
    // Performance does not depend on the meter at all.
    EXPECT_DOUBLE_EQ(a.measurements[i].performance,
                     b.measurements[i].performance);
  }
}

TEST(ReferenceMeasurements, SubsetMeteringForIozone) {
  power::ModelMeter meter;
  const auto ref = reference_measurements(sim::system_g(), meter);
  ASSERT_EQ(ref.size(), 3u);
  // The I/O reference runs on a metered slice: far below full-cluster
  // power (the paper's 1.52 kW vs ~30 kW whole-system draw).
  const auto& hpl = core::find_measurement(ref, "HPL");
  const auto& io = core::find_measurement(ref, "IOzone");
  EXPECT_LT(io.average_power.value(), hpl.average_power.value() / 4.0);
}

TEST(ReferenceMeasurements, WorksAsTgiReference) {
  power::ModelMeter meter;
  const auto ref = reference_measurements(sim::system_g(), meter);
  const core::TgiCalculator calc(ref);
  SuiteRunner runner(sim::fire_cluster(), meter);
  const auto point = runner.run_suite(64);
  const core::TgiResult r =
      calc.compute(point.measurements, core::WeightScheme::kArithmeticMean);
  EXPECT_GT(r.tgi, 0.0);
  EXPECT_TRUE(std::isfinite(r.tgi));
  EXPECT_EQ(r.components.size(), 3u);
}

/// ROADMAP item 6: a system measured as its own reference scores TGI = 1
/// for every weight scheme, aggregation and EE metric — over generated
/// clusters, end to end: two runners with two exact meters measure the
/// suite on the same spec at one scale, and one is the other's reference.
TEST(SuiteRunner, GeneratedClustersScoreOneAgainstThemselves) {
  util::Xoshiro256 rng(0x7E1F);
  for (int k = 0; k < 32; ++k) {
    const sim::ClusterSpec cluster = sim::generated::generated_cluster(rng);
    SCOPED_TRACE(sim::cluster_to_config(cluster));
    const std::size_t processes = 1 + rng.uniform_index(cluster.total_cores());
    // Resolution only sets how finely the exact meter integrates; a
    // coarse one keeps long generated runs cheap.
    power::ModelMeter system_meter(util::seconds(0.5));
    power::ModelMeter reference_meter(util::seconds(0.5));
    SuiteRunner system(cluster, system_meter);
    SuiteRunner reference(cluster, reference_meter);
    const SuitePoint measured = system.run_suite(processes);
    const SuitePoint ref = reference.run_suite(processes);
    ASSERT_EQ(measured.measurements.size(), 3u);
    std::vector<double> custom(3);
    for (double& w : custom) w = rng.uniform(0.1, 1.0);
    stats::normalize_weights(custom);
    for (const core::EfficiencyMetric metric :
         {core::EfficiencyMetric::kPerformancePerWatt,
          core::EfficiencyMetric::kInverseEnergyDelay}) {
      const core::TgiCalculator calc(ref.measurements, metric);
      for (const core::Aggregation aggregation :
           {core::Aggregation::kWeightedArithmetic,
            core::Aggregation::kWeightedHarmonic,
            core::Aggregation::kWeightedGeometric}) {
        std::vector<core::TgiResult> results;
        for (const core::WeightScheme scheme :
             {core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
              core::WeightScheme::kEnergy, core::WeightScheme::kPower}) {
          results.push_back(
              calc.compute(measured.measurements, scheme, {}, aggregation));
        }
        results.push_back(calc.compute_custom(measured.measurements, custom,
                                              {}, aggregation));
        for (const core::TgiResult& r : results) {
          for (const core::TgiComponent& c : r.components) {
            EXPECT_EQ(c.ree, 1.0) << c.benchmark;
          }
          // Σ w_i · 1 with Σ w_i = 1: a few ulps of rounding in the sum.
          EXPECT_NEAR(r.tgi, 1.0, 4 * 0x1p-52)
              << core::weight_scheme_name(r.scheme) << ", "
              << core::aggregation_name(aggregation) << ", "
              << core::efficiency_metric_name(metric);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tgi::harness
