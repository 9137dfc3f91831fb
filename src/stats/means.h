// Central-tendency measures and weight construction.
//
// Section III of the paper builds TGI from means: the plain arithmetic mean
// (Eq. 6-8) and weighted arithmetic means with time/energy/power weights
// (Eqs. 9-15). This module provides those means plus the geometric and
// harmonic alternatives discussed in the related work (Smith '88, John '04),
// and the weight constructors shared by tgi::core.
#pragma once

#include <cmath>
#include <ranges>
#include <span>

#include "util/error.h"

namespace tgi::stats {

/// Arithmetic mean of xs. Precondition: non-empty.
[[nodiscard]] double arithmetic_mean(std::span<const double> xs);

/// Geometric mean. Precondition: non-empty, all xs > 0.
[[nodiscard]] double geometric_mean(std::span<const double> xs);

/// Harmonic mean. Precondition: non-empty, all xs > 0.
[[nodiscard]] double harmonic_mean(std::span<const double> xs);

/// Weighted arithmetic mean Σ w_i x_i (Eq. 9). Preconditions: equal sizes,
/// non-empty, weights non-negative and summing to 1 within tolerance.
[[nodiscard]] double weighted_arithmetic_mean(std::span<const double> xs,
                                              std::span<const double> weights);

/// Weighted harmonic mean 1 / Σ (w_i / x_i). Same preconditions, xs > 0.
[[nodiscard]] double weighted_harmonic_mean(std::span<const double> xs,
                                            std::span<const double> weights);

/// Weighted geometric mean Π x_i^{w_i}. Same preconditions, xs > 0.
[[nodiscard]] double weighted_geometric_mean(std::span<const double> xs,
                                             std::span<const double> weights);

/// Scales non-negative raw values in place so they sum to 1 — the
/// construction behind W_t, W_e and W_p (Eqs. 10-12): w_i = raw_i / Σ raw_j,
/// summed in order. `weights` is any range of double lvalues, so a weight
/// field is normalized where it lives (tgi::core writes its raw values into
/// each TgiComponent::weight). Precondition: non-empty, all raw >= 0,
/// sum > 0.
template <std::ranges::forward_range Weights>
void normalize_weights(Weights&& weights) {
  TGI_REQUIRE(!std::ranges::empty(weights), "weights from empty data");
  double total = 0.0;
  for (const double r : weights) {
    TGI_REQUIRE(r >= 0.0, "proportional weight source must be >= 0, got "
                              << r);
    total += r;
  }
  TGI_REQUIRE(total > 0.0, "proportional weight sources sum to zero");
  for (double& w : weights) w = w / total;
}

/// True when weights are non-negative and sum to 1 within `tol`. Any range
/// of doubles, as for normalize_weights.
template <std::ranges::forward_range Weights>
[[nodiscard]] bool weights_valid(Weights&& weights, double tol = 1e-9) {
  if (std::ranges::empty(weights)) return false;
  double total = 0.0;
  for (const double w : weights) {
    if (w < 0.0 || !std::isfinite(w)) return false;
    total += w;
  }
  return std::fabs(total - 1.0) <= tol;
}

}  // namespace tgi::stats
