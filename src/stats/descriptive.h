// Descriptive statistics over spans of doubles.
//
// Backing for the paper's evaluation machinery: the Pearson analysis in
// Table II needs means and standard deviations (Eq. 17), and the harness
// summarizes power traces (min/max/mean watts) with these helpers.
#pragma once

#include <span>
#include <vector>

namespace tgi::stats {

/// Sum of all elements (0 for an empty span).
[[nodiscard]] double sum(std::span<const double> xs);

/// Arithmetic mean. Precondition: xs is non-empty.
[[nodiscard]] double mean(std::span<const double> xs);

/// Smallest element. Precondition: xs is non-empty.
[[nodiscard]] double min(std::span<const double> xs);

/// Largest element. Precondition: xs is non-empty.
[[nodiscard]] double max(std::span<const double> xs);

/// Population variance (divides by n). Precondition: xs is non-empty.
[[nodiscard]] double variance_population(std::span<const double> xs);

/// Sample variance (divides by n-1). Precondition: xs.size() >= 2.
[[nodiscard]] double variance_sample(std::span<const double> xs);

/// Sample standard deviation. Precondition: xs.size() >= 2.
[[nodiscard]] double stddev_sample(std::span<const double> xs);

/// Median (average of the middle two for even n). Precondition: non-empty.
[[nodiscard]] double median(std::span<const double> xs);

/// Linear-interpolated percentile, q in [0, 1]. Precondition: non-empty.
[[nodiscard]] double percentile(std::span<const double> xs, double q);

}  // namespace tgi::stats
