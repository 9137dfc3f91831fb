// Recovery policy (harness/robust.h): telemetry validation, bounded retry
// accounting, graceful degradation into partial TGI, and the determinism
// contract of fault-injected sweeps across thread counts.
#include "harness/robust.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/tgi.h"
#include "harness/parallel.h"
#include "harness/suite.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "util/error.h"

namespace tgi::harness {
namespace {

const std::vector<std::size_t> kSweep = {16, 48, 80, 128};

template <typename F>
power::PowerTrace make_trace(std::size_t n, F watts_of) {
  power::PowerTrace trace;
  for (std::size_t i = 0; i < n; ++i) {
    trace.add({util::seconds(static_cast<double>(i)),
               util::watts(watts_of(i))});
  }
  return trace;
}

power::MeterReading reading_of(power::PowerTrace trace) {
  return power::summarize(std::move(trace));
}

TEST(ReadingDefect, AcceptsACleanReading) {
  const auto reading = reading_of(make_trace(
      100, [](std::size_t i) { return 1000.0 + (i % 7 == 0 ? 3.0 : 0.0); }));
  EXPECT_EQ(reading_defect(reading, util::seconds(99.0), RobustConfig{}), "");
}

TEST(ReadingDefect, FlagsShortCoverage) {
  const auto reading =
      reading_of(make_trace(60, [](std::size_t) { return 1000.0; }));
  const std::string defect =
      reading_defect(reading, util::seconds(100.0), RobustConfig{});
  EXPECT_NE(defect.find("coverage"), std::string::npos) << defect;
}

TEST(ReadingDefect, FlagsADropoutBurstGap) {
  power::PowerTrace trace;
  for (std::size_t i = 0; i < 100; ++i) {
    if (i >= 40 && i < 60) continue;  // a 20 s hole in a 99 s run
    trace.add({util::seconds(static_cast<double>(i)), util::watts(1000.0)});
  }
  const std::string defect = reading_defect(
      reading_of(std::move(trace)), util::seconds(99.0), RobustConfig{});
  EXPECT_NE(defect.find("gap"), std::string::npos) << defect;
}

TEST(ReadingDefect, FlagsAGainSpikeWindowByItsTwoJumps) {
  const auto reading = reading_of(make_trace(100, [](std::size_t i) {
    return (i >= 30 && i < 40) ? 2000.0 : 1000.0;
  }));
  const std::string defect =
      reading_defect(reading, util::seconds(99.0), RobustConfig{});
  EXPECT_NE(defect.find("jump"), std::string::npos) << defect;
}

TEST(ReadingDefect, AcceptsASingleLevelShiftAndBoundaryRamps) {
  // One abrupt (legitimate) phase transition: only one interior jump.
  const auto phase_shift = reading_of(make_trace(
      100, [](std::size_t i) { return i < 50 ? 1000.0 : 1600.0; }));
  EXPECT_EQ(reading_defect(phase_shift, util::seconds(99.0), RobustConfig{}),
            "");
  // Ramp-in and ramp-out samples at the boundary intervals are excluded.
  const auto ramped = reading_of(make_trace(100, [](std::size_t i) {
    return (i == 0 || i == 99) ? 400.0 : 1000.0;
  }));
  EXPECT_EQ(reading_defect(ramped, util::seconds(99.0), RobustConfig{}), "");
}

TEST(ReadingDefect, FlagsANonPositiveInteriorSample) {
  // A powered cluster never draws <= 0 W; a zero-watt interior sample is
  // instrument garbage, not data the spike check may silently skip over.
  const auto reading = reading_of(make_trace(
      100, [](std::size_t i) { return i == 50 ? 0.0 : 1000.0; }));
  const std::string defect =
      reading_defect(reading, util::seconds(99.0), RobustConfig{});
  EXPECT_NE(defect.find("non-positive"), std::string::npos) << defect;
}

TEST(ReadingDefect, RejectsAnAllZeroTrace) {
  // Regression: the spike detector used to `continue` past non-positive
  // samples, so an all-zero trace (a dead instrument) passed validation.
  const auto reading =
      reading_of(make_trace(100, [](std::size_t) { return 0.0; }));
  const std::string defect =
      reading_defect(reading, util::seconds(99.0), RobustConfig{});
  EXPECT_NE(defect.find("non-positive"), std::string::npos) << defect;
}

TEST(ReadingDefect, CountsAnExitJumpOnTheLastInteriorInterval) {
  // A spike window whose exit jump lands on the last interior interval
  // (samples 97 -> 98 of 100): the symmetric ramp-in/ramp-out exclusion
  // skips exactly the first and last intervals, so both jumps count.
  const auto reading = reading_of(make_trace(100, [](std::size_t i) {
    return (i >= 30 && i < 98) ? 2000.0 : 1000.0;
  }));
  const std::string defect =
      reading_defect(reading, util::seconds(99.0), RobustConfig{});
  EXPECT_NE(defect.find("jump"), std::string::npos) << defect;
}

TEST(ReadingDefect, StuckRunCheckIsOptIn) {
  const auto reading = reading_of(make_trace(100, [](std::size_t i) {
    return (i >= 20 && i < 60) ? 1234.5 : 1000.0 + static_cast<double>(i);
  }));
  EXPECT_EQ(reading_defect(reading, util::seconds(99.0), RobustConfig{}), "");
  RobustConfig strict;
  strict.stuck_run_limit = 8;
  strict.spike_jump_ratio = 0.0;  // isolate the stuck check
  const std::string defect =
      reading_defect(reading, util::seconds(99.0), strict);
  EXPECT_NE(defect.find("identical"), std::string::npos) << defect;
}

TEST(RobustConfig, ValidateRejectsNonsense) {
  RobustConfig config;
  config.min_coverage = 0.0;
  EXPECT_THROW(config.validate(), util::PreconditionError);
  config = RobustConfig{};
  config.max_gap_fraction = 1.5;
  EXPECT_THROW(config.validate(), util::PreconditionError);
  config = RobustConfig{};
  config.backoff_base = util::seconds(-1.0);
  EXPECT_THROW(config.validate(), util::PreconditionError);
}

TEST(ValidatingMeter, RejectsDefectiveReadingsAndCounts) {
  FaultSpec spec;
  spec.dropout_burst_rate = 1.0;  // every reading gets a 20% hole
  power::WattsUpConfig wcfg;
  wcfg.seed = 5;
  power::WattsUpMeter inner(wcfg);
  FaultyMeter faulty(inner, FaultPlan(spec));
  ValidatingMeter validating(faulty, RobustConfig{});
  const power::PowerSource source = [](util::Seconds) {
    return util::watts(500.0);
  };
  EXPECT_THROW(
      { (void)validating.measure(source, util::seconds(300.0)); },
      ReadingRejected);
  EXPECT_EQ(validating.rejects(), 1u);
  EXPECT_EQ(validating.name(), "Validated(" + faulty.name() + ")");
}

TEST(RobustMeasurementsPerPoint, CoversEveryRetry) {
  const SuiteConfig suite;
  RobustConfig robust;
  EXPECT_EQ(robust_measurements_per_point(suite, robust), 9u);
  robust.max_retries = 0;
  EXPECT_EQ(robust_measurements_per_point(suite, robust), 3u);
  SuiteConfig extended;
  extended.include_gups = true;
  robust.max_retries = 2;
  EXPECT_EQ(robust_measurements_per_point(extended, robust), 12u);
}

TEST(RobustMeasurementsPerPoint, DerivesFromTheSuiteRosterNotAConstant) {
  // Regression: this stride used to hard-code `3 + include_gups`, a second
  // copy of run_suite's benchmark list that would silently diverge the
  // moment the suite grew a member. Both sides now read suite_benchmarks.
  for (const bool gups : {false, true}) {
    SuiteConfig suite;
    suite.include_gups = gups;
    EXPECT_EQ(suite_benchmarks(suite).size(), gups ? 4u : 3u);
    RobustConfig robust;
    robust.max_retries = 4;
    EXPECT_EQ(robust_measurements_per_point(suite, robust),
              suite_benchmarks(suite).size() * 5u);
  }
}

/// Throws ReadingRejected on its first measure() call — before any trace
/// exists — then delegates. Models an instrument that dies mid-attempt.
class RejectOnceMeter final : public power::PowerMeter {
 public:
  explicit RejectOnceMeter(power::PowerMeter& inner) : inner_(inner) {}
  [[nodiscard]] power::MeterReading measure(const power::PowerSource& source,
                                            util::Seconds duration) override {
    if (!rejected_) {
      rejected_ = true;
      throw ReadingRejected("injected instrument death before any trace");
    }
    return inner_.measure(source, duration);
  }
  [[nodiscard]] std::string name() const override {
    return "RejectOnce(" + inner_.name() + ")";
  }

 private:
  power::PowerMeter& inner_;
  bool rejected_ = false;
};

/// A truncation-only spec whose seed makes exactly one decision pattern:
/// (benchmark 0, attempt 0) draws kTruncatedTrace and every other attempt
/// of the point draws kNone.
FaultSpec leaky_truncation_spec() {
  FaultSpec spec;
  spec.truncation_rate = 0.5;
  for (std::uint64_t seed = 0; seed < 20000; ++seed) {
    spec.seed = seed;
    const FaultPlan plan(spec);
    const auto kind = [&](std::uint64_t b, std::uint64_t a) {
      return plan.run_fault(0, b, a).kind;
    };
    bool rest_clean = true;
    for (std::uint64_t b = 0; b < 3 && rest_clean; ++b) {
      for (std::uint64_t a = 0; a < 3; ++a) {
        if (b == 0 && a == 0) continue;
        if (kind(b, a) != RunFaultKind::kNone) {
          rest_clean = false;
          break;
        }
      }
    }
    if (rest_clean && kind(0, 0) == RunFaultKind::kTruncatedTrace) {
      return spec;
    }
  }
  ADD_FAILURE() << "no seed under 20000 produces the needed fault pattern";
  return spec;
}

TEST(RobustSuiteRunner, StaleArmedTruncationDoesNotLeakAcrossAttempts) {
  // Regression: attempt 0 of HPL draws kTruncatedTrace and arms the
  // FaultyMeter, but the instrument throws before a measurement consumes
  // the charge. The runner used to leave it armed, so the retry — whose
  // own fault draw is kNone — came back truncated and was rejected too.
  // The runner must disarm at the top of every attempt.
  const FaultSpec spec = leaky_truncation_spec();
  power::WattsUpConfig wcfg;
  wcfg.seed = 21;
  power::WattsUpMeter wattsup(wcfg);
  RejectOnceMeter meter(wattsup);
  RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan(spec));
  const RobustSuitePoint point = runner.run_suite(64);
  EXPECT_FALSE(point.degraded());
  EXPECT_EQ(point.point.measurements.size(), 3u);
  // HPL: the injected rejection plus one clean retry; STREAM and IOzone
  // complete first try. With the leak, the stale truncation caused a
  // second rejection (attempts=5, rejected=2).
  EXPECT_EQ(point.counters.attempts, 4u);
  EXPECT_EQ(point.counters.retries, 1u);
  EXPECT_EQ(point.counters.rejected_readings, 1u);
  EXPECT_EQ(point.counters.run_faults, 1u);
  EXPECT_EQ(point.counters.meter_faults, 0u);
}

TEST(RobustSuiteRunner, ZeroFaultRunIsBitIdenticalToPlainSuiteRunner) {
  power::WattsUpConfig wcfg;
  wcfg.seed = 0xfeedbeefULL;
  power::WattsUpMeter plain_meter(wcfg);
  SuiteRunner plain(sim::fire_cluster(), plain_meter);
  const SuitePoint expected = plain.run_suite(64);

  power::WattsUpMeter robust_meter(wcfg);
  RobustSuiteRunner runner(sim::fire_cluster(), robust_meter, FaultPlan{});
  const RobustSuitePoint got = runner.run_suite(64);

  EXPECT_FALSE(got.degraded());
  EXPECT_EQ(got.counters.attempts, 3u);
  EXPECT_EQ(got.counters.retries, 0u);
  EXPECT_EQ(got.counters.run_faults, 0u);
  EXPECT_EQ(got.counters.meter_faults, 0u);
  EXPECT_EQ(got.counters.rejected_readings, 0u);
  EXPECT_EQ(got.counters.backoff.value(), 0.0);
  ASSERT_EQ(got.point.measurements.size(), expected.measurements.size());
  for (std::size_t i = 0; i < expected.measurements.size(); ++i) {
    EXPECT_EQ(got.point.measurements[i].benchmark,
              expected.measurements[i].benchmark);
    EXPECT_EQ(got.point.measurements[i].performance,
              expected.measurements[i].performance);
    EXPECT_EQ(got.point.measurements[i].energy.value(),
              expected.measurements[i].energy.value());
    EXPECT_EQ(got.point.measurements[i].average_power.value(),
              expected.measurements[i].average_power.value());
  }
}

TEST(RobustSuiteRunner, NaturalMeterDropoutsPassValidation) {
  // The instrument's own lone serial-link dropouts (WattsUpConfig::
  // dropout_rate) leave small gaps the trapezoid bridges; the telemetry
  // checks must not mistake them for injected dropout bursts.
  power::WattsUpConfig wcfg;
  wcfg.dropout_rate = 0.2;
  power::WattsUpMeter meter(wcfg);
  RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan{});
  const RobustSuitePoint point = runner.run_suite(64);
  EXPECT_FALSE(point.degraded());
  EXPECT_EQ(point.counters.attempts, 3u);
  EXPECT_EQ(point.counters.rejected_readings, 0u);
  EXPECT_EQ(point.point.measurements.size(), 3u);
}

TEST(RobustSuiteRunner, RetryExhaustionDropsEveryBenchmark) {
  FaultSpec spec;
  spec.failure_rate = 1.0;
  power::ModelMeter meter(util::seconds(0.5));
  RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan(spec));
  const RobustSuitePoint point = runner.run_suite(32);
  EXPECT_TRUE(point.degraded());
  EXPECT_TRUE(point.point.measurements.empty());
  ASSERT_EQ(point.missing.size(), 3u);
  EXPECT_EQ(point.missing[0], "HPL");
  EXPECT_EQ(point.missing[1], "STREAM");
  EXPECT_EQ(point.missing[2], "IOzone");
  // 3 benchmarks x (1 + max_retries) attempts, all injected failures.
  EXPECT_EQ(point.counters.attempts, 9u);
  EXPECT_EQ(point.counters.retries, 6u);
  EXPECT_EQ(point.counters.run_faults, 9u);
  EXPECT_EQ(point.counters.dropped_benchmarks, 3u);
  // Backoff 5 s then 10 s per benchmark, accounted but never slept.
  EXPECT_DOUBLE_EQ(point.counters.backoff.value(), 3.0 * (5.0 + 10.0));
  EXPECT_DOUBLE_EQ(point.counters.stalled.value(), 0.0);
}

TEST(RobustSuiteRunner, TimeoutsChargeTheStallAccount) {
  FaultSpec spec;
  spec.timeout_rate = 1.0;
  power::ModelMeter meter(util::seconds(0.5));
  RobustConfig robust;
  robust.timeout_stall = util::seconds(120.0);
  RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan(spec),
                           robust);
  const RobustSuitePoint point = runner.run_suite(32);
  EXPECT_EQ(point.counters.attempts, 9u);
  EXPECT_EQ(point.counters.run_faults, 9u);
  EXPECT_DOUBLE_EQ(point.counters.stalled.value(), 9.0 * 120.0);
  EXPECT_EQ(point.counters.dropped_benchmarks, 3u);
}

TEST(RobustSuiteRunner, TruncatedTracesAreRejectedAndRetried) {
  FaultSpec spec;
  spec.truncation_rate = 1.0;  // every attempt's log stops at 65%
  power::WattsUpConfig wcfg;
  wcfg.seed = 11;
  power::WattsUpMeter meter(wcfg);
  RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan(spec));
  const RobustSuitePoint point = runner.run_suite(32);
  // 65% coverage < the 90% floor: every reading is rejected, every
  // benchmark exhausts its retries.
  EXPECT_EQ(point.counters.attempts, 9u);
  EXPECT_EQ(point.counters.rejected_readings, 9u);
  EXPECT_EQ(point.counters.run_faults, 9u);
  EXPECT_EQ(point.counters.dropped_benchmarks, 3u);
  EXPECT_TRUE(point.point.measurements.empty());
}

TEST(RobustSuiteRunner, SurvivorsFeedPartialTgiWithRenormalizedWeights) {
  // Fail only some attempts: seed chosen so at least one benchmark
  // survives and at least one drops (pinned by the assertions below).
  FaultSpec spec;
  spec.failure_rate = 0.8;
  spec.seed = 0xfa017fa017fa017fULL;
  power::WattsUpConfig wcfg;
  wcfg.seed = 3;
  power::ModelMeter ref_meter(util::seconds(0.5));
  const auto reference = reference_measurements(sim::system_g(), ref_meter);
  const core::TgiCalculator calc(reference);
  bool saw_degraded_with_survivors = false;
  for (std::size_t k = 0; k < kSweep.size() && !saw_degraded_with_survivors;
       ++k) {
    power::WattsUpConfig point_cfg = wcfg;
    point_cfg.run_offset = k * 9;
    power::WattsUpMeter meter(point_cfg);
    RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan(spec),
                             RobustConfig{}, SuiteConfig{}, k);
    const RobustSuitePoint point = runner.run_suite(kSweep[k]);
    if (!point.degraded() || point.point.measurements.empty()) continue;
    saw_degraded_with_survivors = true;
    const core::PartialTgiResult partial = calc.compute_partial(
        point.point.measurements, core::WeightScheme::kEnergy);
    EXPECT_TRUE(partial.partial());
    EXPECT_EQ(partial.missing, point.missing);
    double weight_sum = 0.0;
    for (const auto& comp : partial.result.components) {
      weight_sum += comp.weight;
    }
    EXPECT_NEAR(weight_sum, 1.0, 1e-12);
    EXPECT_GT(partial.result.tgi, 0.0);
  }
  EXPECT_TRUE(saw_degraded_with_survivors)
      << "fault seed produced no partially-degraded point; adjust the spec";
}

/// A failure-only spec whose seed yields, at point 0: HPL and STREAM clean
/// on attempt 0, IOzone drawing kBenchmarkFailure on every attempt — the
/// retry-exhaustion-AFTER-a-success pattern (early members publish, the
/// last one drops).
FaultSpec late_exhaustion_spec() {
  FaultSpec spec;
  spec.failure_rate = 0.5;
  for (std::uint64_t seed = 0; seed < 20000; ++seed) {
    spec.seed = seed;
    const FaultPlan plan(spec);
    const auto kind = [&](std::uint64_t b, std::uint64_t a) {
      return plan.run_fault(0, b, a).kind;
    };
    if (kind(0, 0) != RunFaultKind::kNone) continue;
    if (kind(1, 0) != RunFaultKind::kNone) continue;
    bool all_fail = true;
    for (std::uint64_t a = 0; a < 3 && all_fail; ++a) {
      if (kind(2, a) != RunFaultKind::kBenchmarkFailure) all_fail = false;
    }
    if (all_fail) return spec;
  }
  ADD_FAILURE() << "no seed under 20000 produces the needed fault pattern";
  return spec;
}

TEST(RobustSuiteRunner, RetryExhaustionAfterASuccessRenormalizesExactly) {
  const FaultSpec spec = late_exhaustion_spec();
  power::WattsUpConfig wcfg;
  wcfg.seed = 17;
  power::WattsUpMeter meter(wcfg);
  RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan(spec));
  const RobustSuitePoint point = runner.run_suite(64);
  EXPECT_TRUE(point.degraded());
  const std::vector<std::string> expected_missing = {"IOzone"};
  ASSERT_EQ(point.missing, expected_missing);
  ASSERT_EQ(point.point.measurements.size(), 2u);
  EXPECT_EQ(point.point.measurements[0].benchmark, "HPL");
  EXPECT_EQ(point.point.measurements[1].benchmark, "STREAM");
  // HPL and STREAM first-try; IOzone burns 1 + max_retries attempts.
  EXPECT_EQ(point.counters.attempts, 5u);
  EXPECT_EQ(point.counters.retries, 2u);
  EXPECT_EQ(point.counters.run_faults, 3u);
  EXPECT_EQ(point.counters.dropped_benchmarks, 1u);

  power::ModelMeter ref_meter(util::seconds(0.5));
  const auto reference = reference_measurements(sim::system_g(), ref_meter);
  const core::TgiCalculator calc(reference);
  const core::PartialTgiResult partial = calc.compute_partial(
      point.point.measurements, core::WeightScheme::kTime);
  EXPECT_TRUE(partial.partial());
  EXPECT_EQ(partial.missing, point.missing);
  // The renormalized weights are EXACTLY t_i / sum(t) over the survivors
  // (stats::proportional_weights' in-order fold) — not the full-roster
  // weights with the hole patched over. Bitwise, no tolerance.
  double total = 0.0;
  for (const auto& m : point.point.measurements) {
    total += m.execution_time.value();
  }
  ASSERT_EQ(partial.result.components.size(), 2u);
  for (std::size_t i = 0; i < partial.result.components.size(); ++i) {
    EXPECT_EQ(partial.result.components[i].weight,
              point.point.measurements[i].execution_time.value() / total);
  }
  // And the partial result IS the plain TGI a calculator built on just
  // the surviving reference subset would publish.
  std::vector<core::BenchmarkMeasurement> subset_reference;
  for (const auto& m : reference) {
    if (m.benchmark != "IOzone") subset_reference.push_back(m);
  }
  const core::TgiCalculator subset_calc(subset_reference);
  EXPECT_EQ(partial.result.tgi,
            subset_calc
                .compute(point.point.measurements, core::WeightScheme::kTime)
                .tgi);
}

ParallelSweepConfig sweep_config(std::size_t threads) {
  ParallelSweepConfig cfg;
  cfg.threads = threads;
  return cfg;
}

std::vector<RobustSuitePoint> run_robust_with_threads(std::size_t threads,
                                                      const FaultSpec& spec) {
  power::WattsUpConfig base;
  base.seed = 0x5eedULL;
  const RobustConfig robust;
  ParallelSweep engine(
      sim::fire_cluster(),
      wattsup_meter_factory(base,
                            robust_measurements_per_point({}, robust)),
      sweep_config(threads));
  return engine.run_robust(kSweep, FaultPlan(spec), robust);
}

void expect_identical(const std::vector<RobustSuitePoint>& a,
                      const std::vector<RobustSuitePoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_EQ(a[k].missing, b[k].missing);
    EXPECT_EQ(a[k].counters.attempts, b[k].counters.attempts);
    EXPECT_EQ(a[k].counters.retries, b[k].counters.retries);
    EXPECT_EQ(a[k].counters.run_faults, b[k].counters.run_faults);
    EXPECT_EQ(a[k].counters.meter_faults, b[k].counters.meter_faults);
    EXPECT_EQ(a[k].counters.rejected_readings,
              b[k].counters.rejected_readings);
    EXPECT_EQ(a[k].counters.backoff.value(), b[k].counters.backoff.value());
    EXPECT_EQ(a[k].counters.stalled.value(), b[k].counters.stalled.value());
    ASSERT_EQ(a[k].point.measurements.size(),
              b[k].point.measurements.size());
    for (std::size_t i = 0; i < a[k].point.measurements.size(); ++i) {
      const auto& ma = a[k].point.measurements[i];
      const auto& mb = b[k].point.measurements[i];
      EXPECT_EQ(ma.benchmark, mb.benchmark);
      // Bitwise: the determinism contract is exact, faults included.
      EXPECT_EQ(ma.performance, mb.performance);
      EXPECT_EQ(ma.average_power.value(), mb.average_power.value());
      EXPECT_EQ(ma.execution_time.value(), mb.execution_time.value());
      EXPECT_EQ(ma.energy.value(), mb.energy.value());
    }
  }
}

FaultSpec mixed_spec() {
  FaultSpec spec;
  spec.dropout_burst_rate = 0.3;
  spec.stuck_rate = 0.15;
  spec.spike_rate = 0.15;
  spec.failure_rate = 0.15;
  spec.timeout_rate = 0.08;
  spec.truncation_rate = 0.07;
  return spec;
}

TEST(RobustSweepDeterminism, FaultedSweepIsThreadCountInvariant) {
  const auto serial = run_robust_with_threads(1, mixed_spec());
  const auto two = run_robust_with_threads(2, mixed_spec());
  const auto eight = run_robust_with_threads(8, mixed_spec());
  expect_identical(serial, two);
  expect_identical(serial, eight);
  // The spec is hot enough that the fault plane demonstrably engaged.
  std::size_t total_faults = 0;
  for (const auto& point : serial) {
    total_faults += point.counters.run_faults + point.counters.meter_faults;
  }
  EXPECT_GT(total_faults, 0u);
}

TEST(RobustSweepDeterminism, MatchesAManualSerialRunnerLoop) {
  const FaultSpec spec = mixed_spec();
  power::WattsUpConfig base;
  base.seed = 0x5eedULL;
  const RobustConfig robust;
  const std::size_t stride = robust_measurements_per_point({}, robust);
  std::vector<RobustSuitePoint> manual;
  for (std::size_t k = 0; k < kSweep.size(); ++k) {
    power::WattsUpConfig cfg = base;
    cfg.run_offset = base.run_offset + k * stride;
    power::WattsUpMeter meter(cfg);
    RobustSuiteRunner runner(sim::fire_cluster(), meter, FaultPlan(spec),
                             robust, SuiteConfig{}, k);
    manual.push_back(runner.run_suite(kSweep[k]));
  }
  expect_identical(manual, run_robust_with_threads(8, spec));
}

}  // namespace
}  // namespace tgi::harness
