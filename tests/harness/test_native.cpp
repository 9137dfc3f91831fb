// Native suite: real kernels packaged as TGI measurements.
#include "harness/native.h"

#include <gtest/gtest.h>

#include "core/tgi.h"
#include "sim/catalog.h"

namespace tgi::harness {
namespace {

NativeSuiteConfig tiny_config() {
  NativeSuiteConfig cfg;
  cfg.hpl_n = 64;
  cfg.hpl_block = 8;
  cfg.stream_elements = 100000;
  cfg.stream_iterations = 2;
  cfg.stream_threads = 2;
  cfg.iozone_file = util::mebibytes(4.0);
  cfg.iozone_record = util::kibibytes(64.0);
  return cfg;
}

power::NodePowerModel test_node() {
  return power::NodePowerModel(sim::fire_cluster().node.power);
}

TEST(NativeSuite, ProducesThreeValidMeasurements) {
  const auto suite = run_native_suite(tiny_config(), test_node());
  ASSERT_EQ(suite.size(), 3u);
  EXPECT_EQ(suite[0].benchmark, "HPL");
  EXPECT_EQ(suite[1].benchmark, "STREAM");
  EXPECT_EQ(suite[2].benchmark, "IOzone");
  for (const auto& m : suite) {
    EXPECT_NO_THROW(m.validate()) << m.benchmark;
    EXPECT_GT(m.performance, 0.0) << m.benchmark;
  }
}

TEST(NativeSuite, OptionalGupsMember) {
  NativeSuiteConfig cfg = tiny_config();
  cfg.include_gups = true;
  cfg.gups_log2_table = 14;
  const auto suite = run_native_suite(cfg, test_node());
  ASSERT_EQ(suite.size(), 4u);
  EXPECT_EQ(suite[3].benchmark, "GUPS");
  EXPECT_EQ(suite[3].metric_unit, "GUPS");
}

TEST(NativeSuite, FeedsTgiPipeline) {
  const auto system = run_native_suite(tiny_config(), test_node());
  // Reference: the same machine with halved performance — the TGI of the
  // system against it must be exactly 2 under every scheme.
  auto reference = system;
  for (auto& m : reference) m.performance *= 0.5;
  const core::TgiCalculator calc(reference);
  for (const auto scheme :
       {core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
        core::WeightScheme::kEnergy, core::WeightScheme::kPower}) {
    EXPECT_NEAR(calc.compute(system, scheme).tgi, 2.0, 1e-9)
        << core::weight_scheme_name(scheme);
  }
}

TEST(NativeSuite, PowerReflectsUtilizationProfiles) {
  const auto suite = run_native_suite(tiny_config(), test_node());
  // HPL's CPU-saturated profile must draw more than IOzone's disk-bound
  // profile on the same node model.
  EXPECT_GT(core::find_measurement(suite, "HPL").average_power.value(),
            core::find_measurement(suite, "IOzone").average_power.value());
}

}  // namespace
}  // namespace tgi::harness
