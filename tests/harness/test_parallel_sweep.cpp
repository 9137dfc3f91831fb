// ParallelSweep determinism regression: the tentpole's correctness gate.
//
// The engine promises bit-identical results for any thread count and
// equality with the legacy serial path (one SuiteRunner, one shared
// meter). These tests pin both promises with == on every double — no
// tolerances — over the paper's full figure sweep grid.
#include "harness/parallel.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/tgi.h"
#include "harness/suite.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "util/error.h"

namespace tgi::harness {
namespace {

const std::vector<std::size_t> kPaperSweep = {16, 32, 48, 64,
                                              80, 96, 112, 128};

void expect_identical(const std::vector<SuitePoint>& a,
                      const std::vector<SuitePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].processes, b[k].processes);
    EXPECT_EQ(a[k].nodes, b[k].nodes);
    ASSERT_EQ(a[k].measurements.size(), b[k].measurements.size());
    for (std::size_t i = 0; i < a[k].measurements.size(); ++i) {
      const auto& ma = a[k].measurements[i];
      const auto& mb = b[k].measurements[i];
      EXPECT_EQ(ma.benchmark, mb.benchmark);
      EXPECT_EQ(ma.metric_unit, mb.metric_unit);
      // Bitwise, not approximate: the determinism contract is exact.
      EXPECT_EQ(ma.performance, mb.performance);
      EXPECT_EQ(ma.average_power.value(), mb.average_power.value());
      EXPECT_EQ(ma.execution_time.value(), mb.execution_time.value());
      EXPECT_EQ(ma.energy.value(), mb.energy.value());
    }
  }
}

std::vector<SuitePoint> run_with_threads(std::size_t threads) {
  power::WattsUpConfig base;
  base.seed = 0x1234abcdULL;
  ParallelSweepConfig cfg;
  cfg.threads = threads;
  ParallelSweep sweep(sim::fire_cluster(),
                      wattsup_meter_factory(base, 3), cfg);
  return sweep.run(kPaperSweep);
}

TEST(ParallelSweepDeterminism, OneTwoAndEightThreadsAreBitIdentical) {
  const auto serial = run_with_threads(1);
  const auto two = run_with_threads(2);
  const auto eight = run_with_threads(8);
  expect_identical(serial, two);
  expect_identical(serial, eight);
}

TEST(ParallelSweepDeterminism, MatchesLegacySerialPathWithSharedMeter) {
  power::WattsUpConfig cfg;
  cfg.seed = 0x1234abcdULL;
  power::WattsUpMeter meter(cfg);
  SuiteRunner runner(sim::fire_cluster(), meter);
  const auto legacy = runner.sweep(kPaperSweep);
  expect_identical(legacy, run_with_threads(1));
  expect_identical(legacy, run_with_threads(8));
}

TEST(ParallelSweepDeterminism, TgiValuesAgreeAcrossThreadCounts) {
  power::ModelMeter ref_meter(util::seconds(0.5));
  const auto reference =
      reference_measurements(sim::system_g(), ref_meter);
  const core::TgiCalculator calc(reference);
  const auto serial = run_with_threads(1);
  const auto eight = run_with_threads(8);
  for (std::size_t k = 0; k < serial.size(); ++k) {
    for (const auto scheme :
         {core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
          core::WeightScheme::kEnergy, core::WeightScheme::kPower}) {
      EXPECT_EQ(calc.compute(serial[k].measurements, scheme).tgi,
                calc.compute(eight[k].measurements, scheme).tgi);
    }
  }
}

TEST(ParallelSweepDeterminism, ExtendedSuiteIsThreadCountInvariant) {
  const auto run = [](std::size_t threads) {
    ParallelSweepConfig cfg;
    cfg.threads = threads;
    ParallelSweep sweep(sim::fire_cluster(),
                        model_meter_factory(util::seconds(0.5)), cfg);
    return sweep.run_extended({16, 64, 128});
  };
  expect_identical(run(1), run(8));
}

TEST(ParallelSweepDeterminism, RunWithCollectsByIndexNotArrival) {
  // A sweep whose early points are the most expensive: if results were
  // collected by completion order, the output would be permuted.
  ParallelSweepConfig cfg;
  cfg.threads = 8;
  ParallelSweep sweep(sim::fire_cluster(),
                      model_meter_factory(util::seconds(0.5)), cfg);
  const std::vector<std::size_t> descending = {128, 96, 64, 32, 16};
  const auto points = sweep.run_with(
      descending, [](SuiteRunner& runner, std::size_t processes) {
        return runner.run_suite(processes);
      });
  ASSERT_EQ(points.size(), descending.size());
  for (std::size_t k = 0; k < points.size(); ++k) {
    EXPECT_EQ(points[k].processes, descending[k]);
  }
}

TEST(ParallelSweepDeterminism, WattsUpRunOffsetReplaysSharedMeterStreams) {
  // Point k of a 3-measurement suite consumes run counters 3k+1..3k+3 of
  // a shared meter; a fresh meter with run_offset = 3k must replay them.
  power::WattsUpConfig base;
  base.seed = 99;
  power::WattsUpMeter shared(base);
  const power::PowerSource source = [](util::Seconds) {
    return util::watts(250.0);
  };
  std::vector<double> shared_energy;
  for (int i = 0; i < 6; ++i) {
    shared_energy.push_back(
        shared.measure(source, util::seconds(30.0)).energy.value());
  }
  for (std::size_t k = 0; k < 2; ++k) {
    power::WattsUpConfig offset = base;
    offset.run_offset = 3 * k;
    power::WattsUpMeter fresh(offset);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(fresh.measure(source, util::seconds(30.0)).energy.value(),
                shared_energy[3 * k + i]);
    }
  }
}

TEST(ParallelSweep, RequiresAMeterFactory) {
  EXPECT_THROW(ParallelSweep(sim::fire_cluster(), MeterFactory{}),
               util::PreconditionError);
}

TEST(ParallelSweep, EmptySweepYieldsEmptyResult) {
  ParallelSweep sweep(sim::fire_cluster(),
                      model_meter_factory(util::seconds(0.5)));
  EXPECT_TRUE(sweep.run({}).empty());
}

}  // namespace
}  // namespace tgi::harness
