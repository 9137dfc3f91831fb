// STREAM benchmark: sustainable memory bandwidth via the four McCalpin
// kernels (Copy, Scale, Add, Triad), the paper's memory benchmark.
//
// Byte accounting follows the original: Copy/Scale move 2 words per
// iteration, Add/Triad move 3 — where a word is one 8-byte double, the
// element type of the STREAM arrays. The paper uses Triad ("multiply and
// accumulate is the most commonly used computation in scientific
// computing") — run_stream reports all four, and the suite consumes Triad.
#pragma once

#include <cstddef>

#include "util/units.h"

namespace tgi::kernels {

struct StreamConfig {
  /// Elements per array (three arrays are allocated). The STREAM rule is
  /// each array >= 4× the last-level cache; keep modest for CI hosts.
  std::size_t array_elements = 2'000'000;
  /// Timed repetitions; the best rate is reported, as in the original.
  int iterations = 5;
  /// Worker threads (each owns a contiguous slice of every array).
  int threads = 1;
  double scalar = 3.0;
};

struct StreamResult {
  util::ByteRate copy{0.0};
  util::ByteRate scale{0.0};
  util::ByteRate add{0.0};
  util::ByteRate triad{0.0};
  util::Seconds elapsed{0.0};
  /// Arrays validated against the closed-form expected values.
  bool validated = false;
};

/// Runs the four kernels on host memory and reports best rates.
[[nodiscard]] StreamResult run_stream(const StreamConfig& config);

/// Bytes moved per element by each kernel, in words of sizeof(double).
[[nodiscard]] constexpr double stream_bytes_per_element_copy() {
  return 2.0 * static_cast<double>(sizeof(double));
}
[[nodiscard]] constexpr double stream_bytes_per_element_scale() {
  return 2.0 * static_cast<double>(sizeof(double));
}
[[nodiscard]] constexpr double stream_bytes_per_element_add() {
  return 3.0 * static_cast<double>(sizeof(double));
}
[[nodiscard]] constexpr double stream_bytes_per_element_triad() {
  return 3.0 * static_cast<double>(sizeof(double));
}

/// Closed-form values of every a[i] / b[i] / c[i] after `iterations`
/// rounds of the four kernels from the initial a=1, b=2, c=0.
struct StreamExpected {
  double a{};
  double b{};
  double c{};
};
[[nodiscard]] StreamExpected stream_closed_form(double scalar, int iterations);

/// Validation epsilon of the double lanes (the reference STREAM
/// tolerance, 1e-8).
[[nodiscard]] double stream_validation_epsilon();

/// True when an array's average absolute error is within tolerance for a
/// variable whose closed-form value is `expected`. The tolerance scales
/// with the variable's *own* magnitude — never another array's — and an
/// exactly-zero expected value falls back to the absolute epsilon (a
/// relative tolerance of zero would reject legitimate rounding).
[[nodiscard]] bool stream_error_within(double abs_err, double expected);

}  // namespace tgi::kernels
