// The C strtod number grammar, read without strtod, locales or iostreams.
//
// The one reader of doubles for the journal codec (harness/checkpoint.h)
// and the measurement CSV (harness/measurement_io.h). It accepts exactly
// the tokens strtod accepts in the C locale and returns the same value,
// correctly rounded by std::from_chars, so files written for strtod read
// back unchanged. Each caller keeps its own policy on top: the journal
// refuses leading white space and non-finite values, the CSV refuses what
// std::stod throws on (no number, or a range error).
#pragma once

#include <string_view>

namespace tgi::util {

/// One token read as strtod reads it in the C locale.
struct ParsedDouble {
  bool complete = false;  ///< the whole text is one number, nothing after it
  /// strtod's result, ±0 on underflow and ±inf on overflow included.
  double value = 0.0;
  /// strtod would set ERANGE: the value overflowed, or glibc counts it tiny
  /// (below DBL_MIN once rounded to 53 bits with an unbounded exponent) and
  /// the double is not exactly what the token spells.
  bool range_error = false;
};

/// Reads `text` with strtod's grammar: optional leading white space, an
/// optional sign, then a decimal number with optional exponent, a 0x/0X
/// hexfloat with optional binary exponent, `inf`/`infinity`, or
/// `nan`/`nan(chars)` — letters in any case.
[[nodiscard]] ParsedDouble parse_double(std::string_view text);

}  // namespace tgi::util
