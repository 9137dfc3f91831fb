// The Green Index (TGI) — the paper's primary contribution.
//
// Algorithm (Section II):
//   1. EE_i  = Performance_i / Power_i            for each benchmark i
//   2. REE_i = EE_i / EE_ref,i                    (SPEC-style normalization)
//   3. choose weights W_i, Σ W_i = 1
//   4. TGI   = Σ_i W_i · REE_i
//
// Weight schemes analyzed in Section III:
//   arithmetic mean  W_i = 1/n                           (Eqs. 6-8)
//   time weights     W_ti = t_i / Σ t_j                  (Eq. 10)
//   energy weights   W_ei = e_i / Σ e_j                  (Eq. 11)
//   power weights    W_pi = p_i / Σ p_j                  (Eq. 12)
// plus user-supplied custom weights (the paper's advantage 1: emphasize
// the component your application stresses).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "core/efficiency.h"
#include "core/measurement.h"

namespace tgi::core {

enum class WeightScheme {
  kArithmeticMean,
  kTime,
  kEnergy,
  kPower,
  kCustom,
};

/// Human-readable scheme name.
[[nodiscard]] const char* weight_scheme_name(WeightScheme scheme);

/// A command line's `scheme=`: am (or arithmetic), time, energy or power;
/// anything else throws a PreconditionError.
[[nodiscard]] WeightScheme parse_weight_scheme(const std::string& name);

/// Central-tendency measure used to fold the weighted REEs (Eq. 4 uses the
/// weighted arithmetic mean; the related work the paper builds on — Smith
/// '88, John '04 — argues weighted harmonic/geometric means are also valid
/// summaries of normalized rates, and bench/ablation_mean_choice compares
/// them).
enum class Aggregation {
  kWeightedArithmetic,  ///< Σ w_i·REE_i (the paper's Eq. 4)
  kWeightedHarmonic,    ///< 1 / Σ (w_i / REE_i)
  kWeightedGeometric,   ///< Π REE_i^{w_i}
};

/// Human-readable aggregation name.
[[nodiscard]] const char* aggregation_name(Aggregation aggregation);

/// Per-benchmark TGI breakdown.
struct TgiComponent {
  std::string benchmark;
  double ee = 0.0;      ///< system energy efficiency (Eq. 2)
  double ref_ee = 0.0;  ///< reference energy efficiency
  double ree = 0.0;     ///< relative energy efficiency (Eq. 3)
  double weight = 0.0;  ///< W_i
  /// W_i · REE_i, this benchmark's contribution to the sum (Eq. 4).
  double contribution = 0.0;
};

/// A computed Green Index with full provenance.
struct TgiResult {
  double tgi = 0.0;
  WeightScheme scheme = WeightScheme::kArithmeticMean;
  Aggregation aggregation = Aggregation::kWeightedArithmetic;
  EfficiencyMetric metric = EfficiencyMetric::kPerformancePerWatt;
  std::vector<TgiComponent> components;

  /// The benchmark with the smallest REE — the paper expects TGI "to be
  /// bound by the benchmark with least REE" (Section IV-B).
  [[nodiscard]] const TgiComponent& least_ree() const;
};

/// TGI computed over a degraded (partial) suite: the surviving benchmarks'
/// result plus an explicit record of what is missing, so a number computed
/// without (say) IOzone can never masquerade as the full Green Index.
struct PartialTgiResult {
  TgiResult result;
  /// Reference benchmarks absent from the system set, in reference order.
  std::vector<std::string> missing;

  [[nodiscard]] bool partial() const { return !missing.empty(); }
};

/// Computes TGI against a fixed reference system.
///
/// The reference plays the role SystemG plays in the paper (and the Sun
/// Ultra machines play for SPEC): a measurement set for the same benchmark
/// suite whose EE values normalize the system under test.
class TgiCalculator {
 public:
  /// `reference` must contain one valid measurement per suite benchmark,
  /// each with a valid EE (see energy_efficiency()); a reference that
  /// fails either throws here.
  explicit TgiCalculator(
      std::vector<BenchmarkMeasurement> reference,
      EfficiencyMetric metric = EfficiencyMetric::kPerformancePerWatt,
      CoolingModel reference_cooling = {});

  /// TGI of `system` under a derived weight scheme (not kCustom).
  /// `system` must cover exactly the reference's benchmark set.
  [[nodiscard]] TgiResult compute(
      const std::vector<BenchmarkMeasurement>& system, WeightScheme scheme,
      const CoolingModel& system_cooling = {},
      Aggregation aggregation = Aggregation::kWeightedArithmetic) const;

  /// TGI of a *partial* suite: `system` may cover any non-empty subset of
  /// the reference's benchmark set (the degraded path when a benchmark is
  /// lost after retry exhaustion — see harness/robust.h). The scheme's
  /// weights are derived over the surviving benchmarks only, so they
  /// renormalize to sum to 1 by construction, and the dropped reference
  /// benchmarks are recorded in `missing`. A full `system` yields exactly
  /// compute()'s result with an empty `missing`.
  [[nodiscard]] PartialTgiResult compute_partial(
      const std::vector<BenchmarkMeasurement>& system, WeightScheme scheme,
      const CoolingModel& system_cooling = {},
      Aggregation aggregation = Aggregation::kWeightedArithmetic) const;

  /// TGI with caller-supplied weights (must sum to 1, ordered to match
  /// `system`).
  [[nodiscard]] TgiResult compute_custom(
      const std::vector<BenchmarkMeasurement>& system,
      std::span<const double> weights,
      const CoolingModel& system_cooling = {},
      Aggregation aggregation = Aggregation::kWeightedArithmetic) const;

  [[nodiscard]] const std::vector<BenchmarkMeasurement>& reference() const {
    return reference_;
  }
  [[nodiscard]] EfficiencyMetric metric() const { return metric_; }

 private:
  /// TGI under a derived scheme over `system` (full or partial suite).
  [[nodiscard]] TgiResult compute_derived(
      const std::vector<BenchmarkMeasurement>& system, WeightScheme scheme,
      const CoolingModel& system_cooling, Aggregation aggregation) const;
  /// Checks the components' weights, then fills in EE, REE and
  /// contributions and folds them into result.tgi (Eqs. 2-4).
  void score(const std::vector<BenchmarkMeasurement>& system,
             const CoolingModel& system_cooling, TgiResult& result) const;
  /// Position of `benchmark` in the reference; throws if absent.
  [[nodiscard]] std::size_t reference_index(
      const std::string& benchmark) const;

  std::vector<BenchmarkMeasurement> reference_;
  EfficiencyMetric metric_;
  CoolingModel reference_cooling_;
  /// energy_efficiency() of reference_[i], computed once.
  std::vector<double> reference_ee_;
};

}  // namespace tgi::core
