// TGI computation (paper Eqs. 2-4) against hand-worked numbers.
#include "core/tgi.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"

namespace tgi::core {
namespace {

BenchmarkMeasurement make(const std::string& name, double perf,
                          const std::string& unit, double watts,
                          double seconds) {
  BenchmarkMeasurement m;
  m.benchmark = name;
  m.performance = perf;
  m.metric_unit = unit;
  m.average_power = util::watts(watts);
  m.execution_time = util::seconds(seconds);
  m.energy = util::joules(watts * seconds);
  return m;
}

std::vector<BenchmarkMeasurement> reference_suite() {
  return {make("HPL", 8.1e6, "MFLOPS", 27000.0, 1000.0),
          make("STREAM", 500000.0, "MBPS", 25000.0, 200.0),
          make("IOzone", 40.0, "MBPS", 1520.0, 500.0)};
}

std::vector<BenchmarkMeasurement> system_suite() {
  // EE: HPL 900000/3000 = 300 (ref 300 -> REE 1.0),
  //     STREAM 120000/2000 = 60 (ref 20 -> REE 3.0),
  //     IOzone 60/1200 = 0.05 (ref 40/1520 = 0.0263158 -> REE 1.9).
  return {make("HPL", 900000.0, "MFLOPS", 3000.0, 600.0),
          make("STREAM", 120000.0, "MBPS", 2000.0, 300.0),
          make("IOzone", 60.0, "MBPS", 1200.0, 100.0)};
}

TEST(Tgi, HandWorkedArithmeticMean) {
  const TgiCalculator calc(reference_suite());
  const TgiResult r = calc.compute(system_suite(),
                                   WeightScheme::kArithmeticMean);
  const double ree_hpl = (900000.0 / 3000.0) / (8.1e6 / 27000.0);
  const double ree_stream = (120000.0 / 2000.0) / (500000.0 / 25000.0);
  const double ree_io = (60.0 / 1200.0) / (40.0 / 1520.0);
  EXPECT_NEAR(r.components[0].ree, ree_hpl, 1e-12);
  EXPECT_NEAR(r.components[1].ree, ree_stream, 1e-12);
  EXPECT_NEAR(r.components[2].ree, ree_io, 1e-12);
  EXPECT_NEAR(r.tgi, (ree_hpl + ree_stream + ree_io) / 3.0, 1e-12);
  for (const auto& comp : r.components) {
    EXPECT_DOUBLE_EQ(comp.weight, 1.0 / 3.0);
    EXPECT_NEAR(comp.contribution, comp.weight * comp.ree, 1e-15);
  }
}

TEST(Tgi, TimeWeightsAreEq10) {
  const TgiCalculator calc(reference_suite());
  const TgiResult r = calc.compute(system_suite(), WeightScheme::kTime);
  const double total_t = 600.0 + 300.0 + 100.0;
  EXPECT_NEAR(r.components[0].weight, 600.0 / total_t, 1e-12);
  EXPECT_NEAR(r.components[1].weight, 300.0 / total_t, 1e-12);
  EXPECT_NEAR(r.components[2].weight, 100.0 / total_t, 1e-12);
}

TEST(Tgi, EnergyWeightsAreEq11) {
  const TgiCalculator calc(reference_suite());
  const TgiResult r = calc.compute(system_suite(), WeightScheme::kEnergy);
  const double e_hpl = 3000.0 * 600.0;
  const double e_stream = 2000.0 * 300.0;
  const double e_io = 1200.0 * 100.0;
  const double total = e_hpl + e_stream + e_io;
  EXPECT_NEAR(r.components[0].weight, e_hpl / total, 1e-12);
  EXPECT_NEAR(r.components[1].weight, e_stream / total, 1e-12);
  EXPECT_NEAR(r.components[2].weight, e_io / total, 1e-12);
}

TEST(Tgi, PowerWeightsAreEq12) {
  const TgiCalculator calc(reference_suite());
  const TgiResult r = calc.compute(system_suite(), WeightScheme::kPower);
  const double total_p = 3000.0 + 2000.0 + 1200.0;
  EXPECT_NEAR(r.components[0].weight, 3000.0 / total_p, 1e-12);
}

TEST(Tgi, CustomWeights) {
  const TgiCalculator calc(reference_suite());
  // Memory-intensive shop: almost all weight on STREAM (paper advantage 1).
  const std::vector<double> weights{0.1, 0.8, 0.1};
  const TgiResult r = calc.compute_custom(system_suite(), weights);
  EXPECT_EQ(r.scheme, WeightScheme::kCustom);
  double expected = 0.0;
  for (std::size_t i = 0; i < 3; ++i) {
    expected += weights[i] * r.components[i].ree;
  }
  EXPECT_NEAR(r.tgi, expected, 1e-12);
}

TEST(Tgi, CustomWeightsMustBeValid) {
  const TgiCalculator calc(reference_suite());
  EXPECT_THROW(
      calc.compute_custom(system_suite(), std::vector<double>{0.5, 0.6, 0.1}),
      util::PreconditionError);
  EXPECT_THROW(
      calc.compute_custom(system_suite(), std::vector<double>{1.0}),
      util::PreconditionError);
}

TEST(Tgi, LeastReeIsReported) {
  const TgiCalculator calc(reference_suite());
  const TgiResult r = calc.compute(system_suite(),
                                   WeightScheme::kArithmeticMean);
  // From the hand computation: STREAM REE = 3.0, HPL = 1.0, IOzone = 1.9.
  EXPECT_EQ(r.least_ree().benchmark, "HPL");
}

TEST(Tgi, MatchesByNameNotOrder) {
  const TgiCalculator calc(reference_suite());
  std::vector<BenchmarkMeasurement> shuffled = system_suite();
  std::swap(shuffled[0], shuffled[2]);
  const TgiResult a = calc.compute(system_suite(),
                                   WeightScheme::kArithmeticMean);
  const TgiResult b = calc.compute(shuffled, WeightScheme::kArithmeticMean);
  EXPECT_NEAR(a.tgi, b.tgi, 1e-12);
}

TEST(Tgi, SameSystemAsReferenceGivesUnity) {
  // Measuring the reference against itself: every REE is 1, TGI is 1 for
  // every weight scheme (weights sum to 1).
  const TgiCalculator calc(reference_suite());
  for (WeightScheme scheme :
       {WeightScheme::kArithmeticMean, WeightScheme::kTime,
        WeightScheme::kEnergy, WeightScheme::kPower}) {
    const TgiResult r = calc.compute(reference_suite(), scheme);
    EXPECT_NEAR(r.tgi, 1.0, 1e-12) << weight_scheme_name(scheme);
  }
}

TEST(Tgi, CoolingOnSystemLowersTgi) {
  const TgiCalculator calc(reference_suite());
  const TgiResult plain = calc.compute(system_suite(),
                                       WeightScheme::kArithmeticMean);
  const TgiResult cooled = calc.compute(
      system_suite(), WeightScheme::kArithmeticMean, CoolingModel{2.0});
  EXPECT_NEAR(cooled.tgi, plain.tgi / 2.0, 1e-12);
}

TEST(Tgi, SamePueBothSidesCancels) {
  const TgiCalculator calc(reference_suite(),
                           EfficiencyMetric::kPerformancePerWatt,
                           CoolingModel{1.6});
  const TgiResult r = calc.compute(system_suite(),
                                   WeightScheme::kArithmeticMean,
                                   CoolingModel{1.6});
  const TgiCalculator plain_calc(reference_suite());
  const TgiResult plain = plain_calc.compute(system_suite(),
                                             WeightScheme::kArithmeticMean);
  EXPECT_NEAR(r.tgi, plain.tgi, 1e-12);
}

TEST(Tgi, EdpMetricPath) {
  const TgiCalculator calc(reference_suite(),
                           EfficiencyMetric::kInverseEnergyDelay);
  const TgiResult r = calc.compute(system_suite(),
                                   WeightScheme::kArithmeticMean);
  EXPECT_EQ(r.metric, EfficiencyMetric::kInverseEnergyDelay);
  // Hand-check one component: HPL inverse EDP ratio.
  const double sys = 1.0 / ((3000.0 * 600.0) * 600.0);
  const double ref = 1.0 / ((27000.0 * 1000.0) * 1000.0);
  EXPECT_NEAR(r.components[0].ree, sys / ref, 1e-9);
}

TEST(Tgi, Validation) {
  EXPECT_THROW(TgiCalculator{{}}, util::PreconditionError);

  auto dup = reference_suite();
  dup.push_back(dup[0]);
  EXPECT_THROW(TgiCalculator{dup}, util::PreconditionError);

  const TgiCalculator calc(reference_suite());
  auto missing = system_suite();
  missing.pop_back();
  EXPECT_THROW(calc.compute(missing, WeightScheme::kArithmeticMean),
               util::PreconditionError);

  auto wrong_unit = system_suite();
  wrong_unit[1].metric_unit = "GBPS";
  EXPECT_THROW(calc.compute(wrong_unit, WeightScheme::kArithmeticMean),
               util::PreconditionError);

  auto unknown = system_suite();
  unknown[0].benchmark = "LINPACK-XL";
  EXPECT_THROW(calc.compute(unknown, WeightScheme::kArithmeticMean),
               util::PreconditionError);

  EXPECT_THROW(calc.compute(system_suite(), WeightScheme::kCustom),
               util::PreconditionError);
}

TEST(Tgi, AReferenceEfficiencyThatUnderflowsFailsAtConstruction) {
  // EE = 1e-300 / 1e10 is subnormal: every REE against it would be inf.
  auto reference = reference_suite();
  reference[0] = make("HPL", 1e-300, "MFLOPS", 1e10, 1.0);
  EXPECT_THROW(TgiCalculator{reference}, util::PreconditionError);
  // Under inverse EDP the same row is fine; 1e150 W for 1e150 s is not.
  EXPECT_NO_THROW(
      TgiCalculator(reference, EfficiencyMetric::kInverseEnergyDelay));
  reference[0] = make("HPL", 1000.0, "MFLOPS", 1e150, 1e150);
  EXPECT_THROW(
      TgiCalculator(reference, EfficiencyMetric::kInverseEnergyDelay),
      util::PreconditionError);
}

TEST(Tgi, AnEfficiencyOrReeThatOverflowsIsRefused) {
  const TgiCalculator calc(reference_suite());
  auto system = system_suite();
  system[0] = make("HPL", 1e300, "MFLOPS", 1e-10, 1.0);  // EE = inf
  for (const Aggregation aggregation :
       {Aggregation::kWeightedArithmetic, Aggregation::kWeightedHarmonic,
        Aggregation::kWeightedGeometric}) {
    EXPECT_THROW(calc.compute(system, WeightScheme::kArithmeticMean, {},
                              aggregation),
                 util::PreconditionError);
  }
  // Both EEs are normal, but 1e300 / 1e-20 is not: REE = inf.
  auto reference = reference_suite();
  reference[0] = make("HPL", 1e-10, "MFLOPS", 1e10, 1.0);
  system[0] = make("HPL", 1e300, "MFLOPS", 1.0, 1.0);
  EXPECT_THROW(TgiCalculator(reference).compute(
                   system, WeightScheme::kArithmeticMean),
               util::PreconditionError);
  // Under inverse EDP, energy × delay overflows: EE = 0.
  const TgiCalculator edp(reference_suite(),
                          EfficiencyMetric::kInverseEnergyDelay);
  system[0] = make("HPL", 1000.0, "MFLOPS", 1e150, 1e150);
  EXPECT_THROW(edp.compute(system, WeightScheme::kArithmeticMean),
               util::PreconditionError);
}

TEST(Tgi, HarmonicAndGeometricAggregation) {
  const TgiCalculator calc(reference_suite());
  const auto system = system_suite();
  const TgiResult am = calc.compute(system, WeightScheme::kArithmeticMean);
  const TgiResult hm =
      calc.compute(system, WeightScheme::kArithmeticMean, {},
                   Aggregation::kWeightedHarmonic);
  const TgiResult gm =
      calc.compute(system, WeightScheme::kArithmeticMean, {},
                   Aggregation::kWeightedGeometric);
  // REEs are 1.0 / 3.0 / 1.9: closed forms.
  const double h = 1.0 / ((1.0 / 1.0 + 1.0 / 3.0 + 1.0 / 1.9) / 3.0);
  const double g = std::cbrt(1.0 * 3.0 * 1.9);
  EXPECT_NEAR(hm.tgi, h, 1e-9);
  EXPECT_NEAR(gm.tgi, g, 1e-9);
  // AM-GM-HM ordering.
  EXPECT_GT(am.tgi, gm.tgi);
  EXPECT_GT(gm.tgi, hm.tgi);
  EXPECT_EQ(hm.aggregation, Aggregation::kWeightedHarmonic);
  EXPECT_EQ(am.aggregation, Aggregation::kWeightedArithmetic);
}

TEST(Tgi, AggregationsAgreeOnUniformRees) {
  // Reference vs itself: every REE is 1, so all three means coincide.
  const TgiCalculator calc(reference_suite());
  for (const auto agg :
       {Aggregation::kWeightedArithmetic, Aggregation::kWeightedHarmonic,
        Aggregation::kWeightedGeometric}) {
    EXPECT_NEAR(calc.compute(reference_suite(),
                             WeightScheme::kArithmeticMean, {}, agg)
                    .tgi,
                1.0, 1e-12)
        << aggregation_name(agg);
  }
}

TEST(Tgi, AggregationNames) {
  EXPECT_STREQ(aggregation_name(Aggregation::kWeightedArithmetic),
               "weighted-arithmetic");
  EXPECT_STREQ(aggregation_name(Aggregation::kWeightedHarmonic),
               "weighted-harmonic");
  EXPECT_STREQ(aggregation_name(Aggregation::kWeightedGeometric),
               "weighted-geometric");
}

TEST(TgiPartial, FullSystemMatchesComputeWithEmptyMissing) {
  const TgiCalculator calc(reference_suite());
  for (const auto scheme :
       {WeightScheme::kArithmeticMean, WeightScheme::kTime,
        WeightScheme::kEnergy, WeightScheme::kPower}) {
    const PartialTgiResult partial =
        calc.compute_partial(system_suite(), scheme);
    EXPECT_FALSE(partial.partial());
    EXPECT_TRUE(partial.missing.empty());
    EXPECT_EQ(partial.result.tgi, calc.compute(system_suite(), scheme).tgi)
        << weight_scheme_name(scheme);
  }
}

TEST(TgiPartial, RecordsMissingBenchmarksInReferenceOrder) {
  const TgiCalculator calc(reference_suite());
  const std::vector<BenchmarkMeasurement> survivors = {
      make("STREAM", 120000.0, "MBPS", 2000.0, 300.0)};
  const PartialTgiResult partial =
      calc.compute_partial(survivors, WeightScheme::kArithmeticMean);
  EXPECT_TRUE(partial.partial());
  ASSERT_EQ(partial.missing.size(), 2u);
  EXPECT_EQ(partial.missing[0], "HPL");
  EXPECT_EQ(partial.missing[1], "IOzone");
  ASSERT_EQ(partial.result.components.size(), 1u);
  EXPECT_DOUBLE_EQ(partial.result.components[0].weight, 1.0);
}

TEST(TgiPartial, WeightsRenormalizeOverSurvivors) {
  // Dropping IOzone from a time-weighted suite: the surviving weights must
  // be the full-suite ratios renormalized to sum to 1.
  const TgiCalculator calc(reference_suite());
  auto survivors = system_suite();
  survivors.pop_back();  // drop IOzone (600 s and 300 s survive)
  const PartialTgiResult partial =
      calc.compute_partial(survivors, WeightScheme::kTime);
  ASSERT_EQ(partial.result.components.size(), 2u);
  EXPECT_NEAR(partial.result.components[0].weight, 600.0 / 900.0, 1e-12);
  EXPECT_NEAR(partial.result.components[1].weight, 300.0 / 900.0, 1e-12);
  double weight_sum = 0.0;
  for (const auto& comp : partial.result.components) {
    weight_sum += comp.weight;
  }
  EXPECT_NEAR(weight_sum, 1.0, 1e-12);
  ASSERT_EQ(partial.missing.size(), 1u);
  EXPECT_EQ(partial.missing[0], "IOzone");
}

TEST(TgiPartial, PartialTgiIsTheSurvivorWeightedMean) {
  const TgiCalculator calc(reference_suite());
  auto survivors = system_suite();
  survivors.erase(survivors.begin());  // drop HPL
  const PartialTgiResult partial =
      calc.compute_partial(survivors, WeightScheme::kArithmeticMean);
  const double ree_stream = (120000.0 / 2000.0) / (500000.0 / 25000.0);
  const double ree_io = (60.0 / 1200.0) / (40.0 / 1520.0);
  EXPECT_NEAR(partial.result.tgi, (ree_stream + ree_io) / 2.0, 1e-12);
}

TEST(TgiPartial, RejectsEmptyDuplicateAndUnknownSurvivors) {
  const TgiCalculator calc(reference_suite());
  EXPECT_THROW(calc.compute_partial({}, WeightScheme::kArithmeticMean),
               util::PreconditionError);
  const auto stream = make("STREAM", 120000.0, "MBPS", 2000.0, 300.0);
  EXPECT_THROW(
      calc.compute_partial({stream, stream}, WeightScheme::kArithmeticMean),
      util::PreconditionError);
  const auto rogue = make("LINPACK", 1.0, "MFLOPS", 1.0, 1.0);
  EXPECT_THROW(calc.compute_partial({rogue}, WeightScheme::kArithmeticMean),
               util::PreconditionError);
}

TEST(TgiPartial, FullComputeStillRequiresExactCoverage) {
  const TgiCalculator calc(reference_suite());
  auto survivors = system_suite();
  survivors.pop_back();
  EXPECT_THROW(calc.compute(survivors, WeightScheme::kArithmeticMean),
               util::PreconditionError);
  EXPECT_THROW(calc.compute_custom(survivors, std::vector<double>{0.5, 0.5}),
               util::PreconditionError);
}

TEST(Tgi, SchemeNames) {
  EXPECT_STREQ(weight_scheme_name(WeightScheme::kArithmeticMean),
               "arithmetic-mean");
  EXPECT_STREQ(weight_scheme_name(WeightScheme::kTime), "time-weighted");
  EXPECT_STREQ(weight_scheme_name(WeightScheme::kEnergy), "energy-weighted");
  EXPECT_STREQ(weight_scheme_name(WeightScheme::kPower), "power-weighted");
  EXPECT_STREQ(weight_scheme_name(WeightScheme::kCustom), "custom");
}

}  // namespace
}  // namespace tgi::core
