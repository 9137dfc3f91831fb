#include "stats/descriptive.h"

#include <algorithm>
#include <cmath>

#include "util/error.h"

namespace tgi::stats {

double sum(std::span<const double> xs) {
  // Kahan compensated summation: power traces can be 10^5 samples with a
  // wide dynamic range, and the energy integral feeds directly into TGI.
  double s = 0.0;
  double c = 0.0;
  for (double x : xs) {
    const double y = x - c;
    const double t = s + y;
    c = (t - s) - y;
    s = t;
  }
  return s;
}

double mean(std::span<const double> xs) {
  TGI_REQUIRE(!xs.empty(), "mean of empty data");
  return sum(xs) / static_cast<double>(xs.size());
}

double min(std::span<const double> xs) {
  TGI_REQUIRE(!xs.empty(), "min of empty data");
  return *std::min_element(xs.begin(), xs.end());
}

double max(std::span<const double> xs) {
  TGI_REQUIRE(!xs.empty(), "max of empty data");
  return *std::max_element(xs.begin(), xs.end());
}

double variance_population(std::span<const double> xs) {
  TGI_REQUIRE(!xs.empty(), "variance of empty data");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size());
}

double variance_sample(std::span<const double> xs) {
  TGI_REQUIRE(xs.size() >= 2, "sample variance needs >= 2 points");
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double stddev_sample(std::span<const double> xs) {
  return std::sqrt(variance_sample(xs));
}

double median(std::span<const double> xs) {
  TGI_REQUIRE(!xs.empty(), "median of empty data");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  if (n % 2 == 1) return sorted[n / 2];
  return 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double percentile(std::span<const double> xs, double q) {
  TGI_REQUIRE(!xs.empty(), "percentile of empty data");
  TGI_REQUIRE(q >= 0.0 && q <= 1.0, "quantile " << q << " outside [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

}  // namespace tgi::stats
