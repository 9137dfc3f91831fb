#include "core/tgi.h"

#include <algorithm>
#include <cmath>
#include <ranges>

#include "stats/means.h"
#include "util/error.h"

namespace tgi::core {

const char* weight_scheme_name(WeightScheme scheme) {
  switch (scheme) {
    case WeightScheme::kArithmeticMean:
      return "arithmetic-mean";
    case WeightScheme::kTime:
      return "time-weighted";
    case WeightScheme::kEnergy:
      return "energy-weighted";
    case WeightScheme::kPower:
      return "power-weighted";
    case WeightScheme::kCustom:
      return "custom";
  }
  return "?";
}

const char* aggregation_name(Aggregation aggregation) {
  switch (aggregation) {
    case Aggregation::kWeightedArithmetic:
      return "weighted-arithmetic";
    case Aggregation::kWeightedHarmonic:
      return "weighted-harmonic";
    case Aggregation::kWeightedGeometric:
      return "weighted-geometric";
  }
  return "?";
}

const TgiComponent& TgiResult::least_ree() const {
  TGI_REQUIRE(!components.empty(), "empty TGI result");
  return *std::min_element(components.begin(), components.end(),
                           [](const TgiComponent& a, const TgiComponent& b) {
                             return a.ree < b.ree;
                           });
}

TgiCalculator::TgiCalculator(std::vector<BenchmarkMeasurement> reference,
                             EfficiencyMetric metric,
                             CoolingModel reference_cooling)
    : reference_(std::move(reference)),
      metric_(metric),
      reference_cooling_(reference_cooling) {
  TGI_REQUIRE(!reference_.empty(), "reference suite must be non-empty");
  for (const auto& m : reference_) m.validate();
  for (std::size_t i = 0; i < reference_.size(); ++i) {
    for (std::size_t j = i + 1; j < reference_.size(); ++j) {
      TGI_REQUIRE(reference_[i].benchmark != reference_[j].benchmark,
                  "duplicate reference benchmark '"
                      << reference_[i].benchmark << "'");
    }
  }
  reference_ee_.reserve(reference_.size());
  for (const auto& m : reference_) {
    reference_ee_.push_back(
        energy_efficiency(m, metric_, reference_cooling_));
  }
}

std::size_t TgiCalculator::reference_index(
    const std::string& benchmark) const {
  for (std::size_t i = 0; i < reference_.size(); ++i) {
    if (reference_[i].benchmark == benchmark) return i;
  }
  throw util::PreconditionError("no measurement for benchmark '" + benchmark +
                                "'");
}

namespace {

/// A result with one component per system benchmark, weights unset.
TgiResult blank_result(std::size_t benchmarks, WeightScheme scheme,
                       Aggregation aggregation, EfficiencyMetric metric) {
  TgiResult result;
  result.scheme = scheme;
  result.aggregation = aggregation;
  result.metric = metric;
  result.components.resize(benchmarks);
  return result;
}

/// Writes the scheme's weights (Eqs. 6 and 10-12), derived from the system
/// measurements, into `comps` (one per system benchmark).
void derive_weights(const std::vector<BenchmarkMeasurement>& system,
                    WeightScheme scheme, std::vector<TgiComponent>& comps) {
  const auto raw_weights = [&](auto raw) {
    for (std::size_t i = 0; i < system.size(); ++i) {
      comps[i].weight = raw(system[i]);
    }
    stats::normalize_weights(
        std::views::transform(comps, &TgiComponent::weight));
  };
  switch (scheme) {
    case WeightScheme::kArithmeticMean: {
      TGI_REQUIRE(!comps.empty(), "equal weights over no benchmarks");
      const double w = 1.0 / static_cast<double>(comps.size());
      for (TgiComponent& comp : comps) comp.weight = w;
      return;
    }
    case WeightScheme::kTime:
      raw_weights([](const BenchmarkMeasurement& m) {
        return m.execution_time.value();
      });
      return;
    case WeightScheme::kEnergy:
      raw_weights(
          [](const BenchmarkMeasurement& m) { return m.energy.value(); });
      return;
    case WeightScheme::kPower:
      raw_weights([](const BenchmarkMeasurement& m) {
        return m.average_power.value();
      });
      return;
    case WeightScheme::kCustom:
      break;
  }
  throw util::PreconditionError(
      "use compute_custom() for caller-supplied weights");
}

}  // namespace

TgiResult TgiCalculator::compute_derived(
    const std::vector<BenchmarkMeasurement>& system, WeightScheme scheme,
    const CoolingModel& system_cooling, Aggregation aggregation) const {
  TgiResult result = blank_result(system.size(), scheme, aggregation, metric_);
  derive_weights(system, scheme, result.components);
  score(system, system_cooling, result);
  return result;
}

void TgiCalculator::score(const std::vector<BenchmarkMeasurement>& system,
                          const CoolingModel& system_cooling,
                          TgiResult& result) const {
  std::vector<TgiComponent>& comps = result.components;
  TGI_REQUIRE(stats::weights_valid(
                  std::views::transform(comps, &TgiComponent::weight)),
              "weights must be non-negative and sum to 1");
  double total = 0.0;
  for (std::size_t i = 0; i < system.size(); ++i) {
    const BenchmarkMeasurement& m = system[i];
    const std::size_t r = reference_index(m.benchmark);
    TGI_REQUIRE(m.metric_unit == reference_[r].metric_unit,
                m.benchmark << ": system reports " << m.metric_unit
                            << " but reference reports "
                            << reference_[r].metric_unit);
    TgiComponent& comp = comps[i];
    comp.benchmark = m.benchmark;
    comp.ee = energy_efficiency(m, metric_, system_cooling);
    comp.ref_ee = reference_ee_[r];
    comp.ree = comp.ee / comp.ref_ee;  // Eq. 3
    TGI_REQUIRE(std::isnormal(comp.ree),
                m.benchmark << ": REE = " << comp.ee << " / " << comp.ref_ee
                            << " over- or underflows");
    comp.contribution = comp.weight * comp.ree;  // one term of Eq. 4
    total += comp.contribution;
  }
  switch (result.aggregation) {
    case Aggregation::kWeightedArithmetic:
      result.tgi = total;
      return;
    case Aggregation::kWeightedHarmonic:
    case Aggregation::kWeightedGeometric:
      break;
  }
  std::vector<double> rees;
  std::vector<double> weights;
  rees.reserve(comps.size());
  weights.reserve(comps.size());
  for (const TgiComponent& comp : comps) {
    rees.push_back(comp.ree);
    weights.push_back(comp.weight);
  }
  result.tgi = result.aggregation == Aggregation::kWeightedHarmonic
                   ? stats::weighted_harmonic_mean(rees, weights)
                   : stats::weighted_geometric_mean(rees, weights);
}

TgiResult TgiCalculator::compute(
    const std::vector<BenchmarkMeasurement>& system, WeightScheme scheme,
    const CoolingModel& system_cooling, Aggregation aggregation) const {
  TGI_REQUIRE(system.size() == reference_.size(),
              "system suite has " << system.size()
                                  << " benchmarks; reference has "
                                  << reference_.size()
                                  << " (use compute_partial for a degraded "
                                     "suite)");
  return compute_derived(system, scheme, system_cooling, aggregation);
}

PartialTgiResult TgiCalculator::compute_partial(
    const std::vector<BenchmarkMeasurement>& system, WeightScheme scheme,
    const CoolingModel& system_cooling, Aggregation aggregation) const {
  TGI_REQUIRE(!system.empty(),
              "partial TGI needs at least one surviving benchmark");
  for (std::size_t i = 0; i < system.size(); ++i) {
    for (std::size_t j = i + 1; j < system.size(); ++j) {
      TGI_REQUIRE(system[i].benchmark != system[j].benchmark,
                  "duplicate system benchmark '" << system[i].benchmark
                                                 << "'");
    }
  }
  PartialTgiResult out;
  for (const auto& ref : reference_) {
    const bool present = std::any_of(
        system.begin(), system.end(), [&](const BenchmarkMeasurement& m) {
          return m.benchmark == ref.benchmark;
        });
    if (!present) out.missing.push_back(ref.benchmark);
  }
  // The weights are derived over the surviving benchmarks only — the
  // renormalization that keeps a degraded TGI a convex combination.
  out.result = compute_derived(system, scheme, system_cooling, aggregation);
  return out;
}

TgiResult TgiCalculator::compute_custom(
    const std::vector<BenchmarkMeasurement>& system,
    std::span<const double> weights,
    const CoolingModel& system_cooling, Aggregation aggregation) const {
  TGI_REQUIRE(system.size() == reference_.size(),
              "system suite has " << system.size()
                                  << " benchmarks; reference has "
                                  << reference_.size());
  TGI_REQUIRE(weights.size() == system.size(),
              "weight count mismatches benchmark count");
  TgiResult result =
      blank_result(system.size(), WeightScheme::kCustom, aggregation, metric_);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    result.components[i].weight = weights[i];
  }
  score(system, system_cooling, result);
  return result;
}

}  // namespace tgi::core
