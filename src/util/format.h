// Number and unit formatting helpers shared by tables, logs, and harnesses.
#pragma once

#include <string>
#include <string_view>

#include "util/units.h"

namespace tgi::util {

/// Fixed-point formatting with `precision` fractional digits.
std::string fixed(double v, int precision = 2);

/// Appends `v` in shortest round-trip form (std::to_chars): the fewest
/// digits that read back, through util::parse_double or strtod, as exactly
/// `v` — "0.85", "1e+300", "0.8500004". The one double writer behind cache
/// key text and generated cluster files.
void append_shortest(std::string& out, double v);

/// Scientific formatting with `precision` significant fractional digits.
std::string scientific(double v, int precision = 3);

/// Percentage with a trailing '%' sign, e.g. 0.1234 -> "12.34%".
std::string percent(double fraction, int precision = 2);

/// Formats with an SI prefix chosen so the mantissa lands in [1, 1000),
/// e.g. si_format(9.01e11, "FLOPS") -> "901.00 GFLOPS".
std::string si_format(double v, const std::string& unit, int precision = 2);

/// Convenience wrappers for the strong unit types.
std::string format(Watts w, int precision = 2);
std::string format(Joules e, int precision = 2);
std::string format(Seconds t, int precision = 2);
std::string format(FlopRate r, int precision = 2);
std::string format(ByteRate r, int precision = 2);

/// Groups thousands in an integer, e.g. 1234567 -> "1,234,567".
std::string with_commas(long long v);

/// Escapes a string for inclusion inside a JSON string literal: quotes,
/// backslashes and control characters; everything else passes through.
/// The one escaper behind every JSON file the project writes.
std::string json_escape(std::string_view text);

}  // namespace tgi::util
