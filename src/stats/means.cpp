#include "stats/means.h"

#include <cmath>

#include "stats/descriptive.h"
#include "util/error.h"

namespace tgi::stats {

namespace {
void require_matched(std::span<const double> xs,
                     std::span<const double> weights) {
  TGI_REQUIRE(!xs.empty(), "mean of empty data");
  TGI_REQUIRE(xs.size() == weights.size(),
              "data size " << xs.size() << " != weight size "
                           << weights.size());
  TGI_REQUIRE(weights_valid(weights),
              "weights must be non-negative and sum to 1");
}
}  // namespace

double arithmetic_mean(std::span<const double> xs) { return mean(xs); }

double geometric_mean(std::span<const double> xs) {
  TGI_REQUIRE(!xs.empty(), "geometric mean of empty data");
  double log_acc = 0.0;
  for (double x : xs) {
    TGI_REQUIRE(x > 0.0, "geometric mean requires positive data, got " << x);
    log_acc += std::log(x);
  }
  return std::exp(log_acc / static_cast<double>(xs.size()));
}

double harmonic_mean(std::span<const double> xs) {
  TGI_REQUIRE(!xs.empty(), "harmonic mean of empty data");
  double inv_acc = 0.0;
  for (double x : xs) {
    TGI_REQUIRE(x > 0.0, "harmonic mean requires positive data, got " << x);
    inv_acc += 1.0 / x;
  }
  return static_cast<double>(xs.size()) / inv_acc;
}

double weighted_arithmetic_mean(std::span<const double> xs,
                                std::span<const double> weights) {
  require_matched(xs, weights);
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) acc += weights[i] * xs[i];
  return acc;
}

double weighted_harmonic_mean(std::span<const double> xs,
                              std::span<const double> weights) {
  require_matched(xs, weights);
  double acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    TGI_REQUIRE(xs[i] > 0.0, "harmonic mean requires positive data");
    acc += weights[i] / xs[i];
  }
  return 1.0 / acc;
}

double weighted_geometric_mean(std::span<const double> xs,
                               std::span<const double> weights) {
  require_matched(xs, weights);
  double log_acc = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    TGI_REQUIRE(xs[i] > 0.0, "geometric mean requires positive data");
    log_acc += weights[i] * std::log(xs[i]);
  }
  return std::exp(log_acc);
}

}  // namespace tgi::stats
