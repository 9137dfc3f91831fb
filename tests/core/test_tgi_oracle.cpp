// TgiCalculator against the implementation it replaced, kept here as an
// oracle: the scoring that looks each reference EE up and recomputes it per
// call, builds a weight vector, and validates it before the loop. Over
// generated suites — valid and broken — and every scheme, aggregation,
// metric and cooling, the calculator must return the oracle's result bit
// for bit or throw the oracle's error type.
//
// Where they differ on purpose: an EE or REE that over- or underflows (a
// non-normal double) now throws PreconditionError, where the oracle
// published inf or 0 (or threw InternalError for a reference EE of 0).
// The generator stays away from those magnitudes; test_tgi.cpp and
// test_efficiency.cpp pin the new behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/tgi.h"
#include "stats/means.h"
#include "util/error.h"
#include "util/rng.h"

namespace tgi::core {
namespace {

// ---- The oracle: the previous TgiCalculator, as free functions. ----

double oracle_ee(const BenchmarkMeasurement& m, EfficiencyMetric metric,
                 const CoolingModel& cooling) {
  m.validate();
  TGI_REQUIRE(cooling.pue >= 1.0, "PUE must be >= 1, got " << cooling.pue);
  switch (metric) {
    case EfficiencyMetric::kPerformancePerWatt:
      return m.performance / (m.average_power.value() * cooling.pue);
    case EfficiencyMetric::kInverseEnergyDelay:
      return 1.0 / (m.energy.value() * cooling.pue *
                    m.execution_time.value());
  }
  throw util::InternalError("unknown efficiency metric");
}

void oracle_check_reference(const std::vector<BenchmarkMeasurement>& ref) {
  TGI_REQUIRE(!ref.empty(), "reference suite must be non-empty");
  for (const auto& m : ref) m.validate();
  for (std::size_t i = 0; i < ref.size(); ++i) {
    for (std::size_t j = i + 1; j < ref.size(); ++j) {
      TGI_REQUIRE(ref[i].benchmark != ref[j].benchmark, "duplicate");
    }
  }
}

std::vector<double> oracle_weights(
    const std::vector<BenchmarkMeasurement>& system, WeightScheme scheme) {
  std::vector<double> raw;
  raw.reserve(system.size());
  switch (scheme) {
    case WeightScheme::kArithmeticMean:
      TGI_REQUIRE(!system.empty(), "equal_weights(0)");
      return std::vector<double>(system.size(),
                                 1.0 / static_cast<double>(system.size()));
    case WeightScheme::kTime:
      for (const auto& m : system) raw.push_back(m.execution_time.value());
      break;
    case WeightScheme::kEnergy:
      for (const auto& m : system) raw.push_back(m.energy.value());
      break;
    case WeightScheme::kPower:
      for (const auto& m : system) raw.push_back(m.average_power.value());
      break;
    case WeightScheme::kCustom:
      throw util::PreconditionError("use compute_custom()");
  }
  TGI_REQUIRE(!raw.empty(), "weights from empty data");
  double total = 0.0;
  for (double r : raw) {
    TGI_REQUIRE(r >= 0.0, "proportional weight source must be >= 0");
    total += r;
  }
  TGI_REQUIRE(total > 0.0, "proportional weight sources sum to zero");
  std::vector<double> out;
  out.reserve(raw.size());
  for (double r : raw) out.push_back(r / total);
  return out;
}

TgiResult oracle_with_weights(const std::vector<BenchmarkMeasurement>& ref,
                              EfficiencyMetric metric,
                              const CoolingModel& ref_cooling,
                              const std::vector<BenchmarkMeasurement>& system,
                              std::span<const double> weights,
                              WeightScheme scheme,
                              const CoolingModel& system_cooling,
                              Aggregation aggregation) {
  TGI_REQUIRE(weights.size() == system.size(), "weight count mismatch");
  TGI_REQUIRE(stats::weights_valid(weights), "weights must sum to 1");
  TgiResult result;
  result.scheme = scheme;
  result.aggregation = aggregation;
  result.metric = metric;
  std::vector<double> rees;
  double total = 0.0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    const BenchmarkMeasurement& m = system[i];
    const BenchmarkMeasurement& r = find_measurement(ref, m.benchmark);
    TGI_REQUIRE(m.metric_unit == r.metric_unit, "unit mismatch");
    TgiComponent comp;
    comp.benchmark = m.benchmark;
    comp.ee = oracle_ee(m, metric, system_cooling);
    comp.ref_ee = oracle_ee(r, metric, ref_cooling);
    TGI_CHECK(comp.ref_ee > 0.0, "reference EE must be positive");
    comp.ree = comp.ee / comp.ref_ee;
    comp.weight = weights[i];
    comp.contribution = comp.weight * comp.ree;
    total += comp.contribution;
    rees.push_back(comp.ree);
    result.components.push_back(std::move(comp));
  }
  switch (aggregation) {
    case Aggregation::kWeightedArithmetic:
      result.tgi = total;
      break;
    case Aggregation::kWeightedHarmonic:
      result.tgi = stats::weighted_harmonic_mean(rees, weights);
      break;
    case Aggregation::kWeightedGeometric:
      result.tgi = stats::weighted_geometric_mean(rees, weights);
      break;
  }
  return result;
}

// ---- Generated inputs. ----

/// One call of the calculator, as data.
struct Case {
  std::vector<BenchmarkMeasurement> reference;
  std::vector<BenchmarkMeasurement> system;
  EfficiencyMetric metric = EfficiencyMetric::kPerformancePerWatt;
  CoolingModel reference_cooling;
  CoolingModel system_cooling;
  WeightScheme scheme = WeightScheme::kArithmeticMean;
  Aggregation aggregation = Aggregation::kWeightedArithmetic;
  std::vector<double> custom;  ///< compute_custom's weights
};

BenchmarkMeasurement generated_measurement(const std::string& name,
                                           const std::string& unit,
                                           util::Xoshiro256& rng) {
  // Magnitudes across six orders, far from where an EE over- or
  // underflows (see the file comment).
  const auto draw = [&] {
    return rng.uniform(1.0, 10.0) * std::pow(10.0, rng.uniform(-2.0, 4.0));
  };
  BenchmarkMeasurement m;
  m.benchmark = name;
  m.metric_unit = unit;
  m.performance = draw();
  m.average_power = util::watts(draw());
  m.execution_time = util::seconds(draw());
  m.energy = m.average_power * m.execution_time;
  return m;
}

/// Breaks one field of `m` the way bad input does: zero, negative, NaN,
/// infinite, or an energy that disagrees with power × time.
void break_measurement(BenchmarkMeasurement& m, util::Xoshiro256& rng) {
  const double bad[] = {0.0, -1.0, std::nan(""), HUGE_VAL};
  const double v = bad[rng.uniform_index(4)];
  switch (rng.uniform_index(5)) {
    case 0:
      m.performance = v;
      break;
    case 1:
      m.average_power = util::watts(v);
      break;
    case 2:
      m.execution_time = util::seconds(v);
      break;
    case 3:
      m.energy = util::joules(v);
      break;
    default:
      m.energy = m.energy * 1.5;
      break;
  }
}

Case generated_case(util::Xoshiro256& rng) {
  static const std::vector<std::pair<std::string, std::string>> kCatalog{
      {"HPL", "MFLOPS"}, {"STREAM", "MBPS"}, {"IOzone", "MBPS"},
      {"GUPS", "GUPS"},  {"PTRANS", "MBPS"}, {"FFT", "MFLOPS"}};
  Case c;
  const std::size_t n = 1 + rng.uniform_index(kCatalog.size());
  for (std::size_t i = 0; i < n; ++i) {
    c.reference.push_back(
        generated_measurement(kCatalog[i].first, kCatalog[i].second, rng));
    c.system.push_back(
        generated_measurement(kCatalog[i].first, kCatalog[i].second, rng));
  }
  // Same benchmarks in any order; the calculator matches by name.
  for (std::size_t i = n; i > 1; --i) {
    std::swap(c.system[i - 1], c.system[rng.uniform_index(i)]);
  }
  c.metric = rng.uniform_index(2) == 0 ? EfficiencyMetric::kPerformancePerWatt
                                       : EfficiencyMetric::kInverseEnergyDelay;
  const double pues[] = {1.0, 1.0, 1.35, 2.0, 0.9};
  c.reference_cooling.pue = pues[rng.uniform_index(5)];
  c.system_cooling.pue = pues[rng.uniform_index(5)];
  c.scheme = static_cast<WeightScheme>(rng.uniform_index(5));
  c.aggregation = static_cast<Aggregation>(rng.uniform_index(3));
  c.custom.resize(n);
  for (double& w : c.custom) w = rng.uniform(0.0, 1.0);
  if (rng.uniform_index(4) != 0) stats::normalize_weights(c.custom);
  // About one case in three is broken somewhere.
  switch (rng.uniform_index(12)) {
    case 0:
      break_measurement(c.system[rng.uniform_index(n)], rng);
      break;
    case 1:
      break_measurement(c.reference[rng.uniform_index(n)], rng);
      break;
    case 2:
      c.system[rng.uniform_index(n)].metric_unit = "furlongs";
      break;
    case 3:
      c.system[rng.uniform_index(n)].benchmark = "LINPACK-XL";
      break;
    default:
      break;
  }
  return c;
}

// ---- Comparison. ----

enum class Thrown { kNothing, kPrecondition, kInternal, kOther };

template <typename Fn>
Thrown outcome(Fn&& fn) {
  try {
    fn();
    return Thrown::kNothing;
  } catch (const util::PreconditionError&) {
    return Thrown::kPrecondition;
  } catch (const util::InternalError&) {
    return Thrown::kInternal;
  } catch (...) {
    return Thrown::kOther;
  }
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_identical(const TgiResult& got, const TgiResult& want) {
  EXPECT_EQ(bits(got.tgi), bits(want.tgi)) << got.tgi << " vs " << want.tgi;
  EXPECT_EQ(got.scheme, want.scheme);
  EXPECT_EQ(got.aggregation, want.aggregation);
  EXPECT_EQ(got.metric, want.metric);
  ASSERT_EQ(got.components.size(), want.components.size());
  for (std::size_t i = 0; i < got.components.size(); ++i) {
    const TgiComponent& g = got.components[i];
    const TgiComponent& w = want.components[i];
    EXPECT_EQ(g.benchmark, w.benchmark);
    EXPECT_EQ(bits(g.ee), bits(w.ee)) << g.benchmark;
    EXPECT_EQ(bits(g.ref_ee), bits(w.ref_ee)) << g.benchmark;
    EXPECT_EQ(bits(g.ree), bits(w.ree)) << g.benchmark;
    EXPECT_EQ(bits(g.weight), bits(w.weight)) << g.benchmark;
    EXPECT_EQ(bits(g.contribution), bits(w.contribution)) << g.benchmark;
  }
}

/// Runs compute, compute_custom and compute_partial (over a suffix of the
/// system suite) on the calculator and on the oracle; returns how many of
/// the three returned a result.
int check_case(const Case& c, std::uint64_t seed) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::optional<TgiCalculator> calc;
  const Thrown made = outcome([&] {
    calc.emplace(c.reference, c.metric, c.reference_cooling);
  });
  const auto oracle = [&](const std::vector<BenchmarkMeasurement>& system,
                          std::span<const double> custom, bool partial) {
    oracle_check_reference(c.reference);
    // The reference EEs the previous calculator computed on every call;
    // the calculator computes them, and fails, at construction.
    for (const auto& m : c.reference) {
      (void)oracle_ee(m, c.metric, c.reference_cooling);
    }
    if (!partial && !custom.empty()) {
      TGI_REQUIRE(system.size() == c.reference.size(), "size");
      return oracle_with_weights(c.reference, c.metric, c.reference_cooling,
                                 system, custom, WeightScheme::kCustom,
                                 c.system_cooling, c.aggregation);
    }
    if (partial) {
      TGI_REQUIRE(!system.empty(), "no surviving benchmark");
    } else {
      TGI_REQUIRE(system.size() == c.reference.size(), "size");
    }
    const std::vector<double> w = oracle_weights(system, c.scheme);
    return oracle_with_weights(c.reference, c.metric, c.reference_cooling,
                               system, w, c.scheme, c.system_cooling,
                               c.aggregation);
  };
  const std::span<const double> no_custom;
  const std::vector<BenchmarkMeasurement> survivors(c.system.begin() + 1,
                                                    c.system.end());
  struct Call {
    const char* name;
    const std::vector<BenchmarkMeasurement>* system;
    std::span<const double> custom;
    bool partial;
  };
  const Call calls[] = {{"compute", &c.system, no_custom, false},
                        {"compute_custom", &c.system, c.custom, false},
                        {"compute_partial", &survivors, no_custom, true}};
  int results = 0;
  for (const Call& call : calls) {
    SCOPED_TRACE(call.name);
    TgiResult want;
    const Thrown oracle_thrown = outcome(
        [&] { want = oracle(*call.system, call.custom, call.partial); });
    TgiResult got;
    Thrown thrown = made;
    if (made == Thrown::kNothing) {
      thrown = outcome([&] {
        if (call.partial) {
          got = calc->compute_partial(*call.system, c.scheme,
                                      c.system_cooling, c.aggregation)
                    .result;
        } else if (!call.custom.empty()) {
          got = calc->compute_custom(*call.system, call.custom,
                                     c.system_cooling, c.aggregation);
        } else {
          got = calc->compute(*call.system, c.scheme, c.system_cooling,
                              c.aggregation);
        }
      });
    }
    EXPECT_EQ(thrown, oracle_thrown);
    if (thrown == Thrown::kNothing && oracle_thrown == Thrown::kNothing) {
      expect_identical(got, want);
      ++results;
    }
  }
  return results;
}

TEST(TgiOracle, MatchesThePreviousCalculatorOnGeneratedSuites) {
  int results = 0;
  int calls = 0;
  for (std::uint64_t seed = 1; seed <= 3000 && !HasFailure(); ++seed) {
    util::Xoshiro256 rng(seed);
    results += check_case(generated_case(rng), seed);
    calls += 3;
  }
  // Both sides of the comparison were exercised.
  EXPECT_GT(results, calls / 4);
  EXPECT_GT(calls - results, calls / 4);
}

TEST(TgiOracle, CoversEverySchemeAggregationMetricAndCooling) {
  const auto valid = [](const std::vector<BenchmarkMeasurement>& ms) {
    return std::all_of(ms.begin(), ms.end(), [](const auto& m) {
      return outcome([&] { m.validate(); }) == Thrown::kNothing &&
             m.benchmark != "LINPACK-XL" && m.metric_unit != "furlongs";
    });
  };
  util::Xoshiro256 rng(7);
  for (int scheme = 0; scheme < 5; ++scheme) {
    for (int aggregation = 0; aggregation < 3; ++aggregation) {
      for (const EfficiencyMetric metric :
           {EfficiencyMetric::kPerformancePerWatt,
            EfficiencyMetric::kInverseEnergyDelay}) {
        for (const double pue : {1.0, 1.5}) {
          Case c = generated_case(rng);
          while (!valid(c.system) || !valid(c.reference)) {
            c = generated_case(rng);
          }
          c.scheme = static_cast<WeightScheme>(scheme);
          c.aggregation = static_cast<Aggregation>(aggregation);
          c.metric = metric;
          c.reference_cooling.pue = pue;
          c.system_cooling.pue = 2.0 * pue;
          stats::normalize_weights(c.custom);
          // compute_custom returns; compute and compute_partial refuse
          // kCustom, and compute_partial needs a survivor.
          const bool derived = c.scheme != WeightScheme::kCustom;
          const int want = 1 + (derived ? 1 : 0) +
                           (derived && c.system.size() > 1 ? 1 : 0);
          EXPECT_EQ(check_case(c, 0), want);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tgi::core
