#include "util/number.h"

#include <algorithm>
#include <bit>
#include <cfloat>
#include <charconv>
#include <cmath>
#include <string>
#include <system_error>

namespace tgi::util {
namespace {

/// isspace() in the C locale.
bool is_c_space(char ch) { return ch == ' ' || (ch >= '\t' && ch <= '\r'); }

/// The digit's value in base 16 (hex) or 10, or -1.
int digit_value(char ch, bool hex) {
  if (ch >= '0' && ch <= '9') return ch - '0';
  if (!hex) return -1;
  if (ch >= 'a' && ch <= 'f') return ch - 'a' + 10;
  if (ch >= 'A' && ch <= 'F') return ch - 'A' + 10;
  return -1;
}

/// A finite number body (sign and 0x prefix already stripped) that
/// std::from_chars has accepted whole: its mantissa digits and exponent.
/// Only the rare range cases below need it.
struct Mantissa {
  const char* begin = nullptr;
  const char* end = nullptr;    ///< one past the last mantissa character
  const char* point = nullptr;  ///< the radix point, or `end`
  long long exponent = 0;       ///< power of 10 (decimal) or 2 (hex), saturated

  /// The power of the radix the digit at `d` stands for: 0 for units.
  [[nodiscard]] long long place(const char* d) const {
    return d < point ? point - d - 1 : point - d;
  }
};

Mantissa split_body(const char* p, const char* last, bool hex) {
  Mantissa m;
  m.begin = p;
  m.end = p;
  while (m.end != last && (*m.end == '.' || digit_value(*m.end, hex) >= 0)) {
    if (*m.end == '.') m.point = m.end;
    ++m.end;
  }
  if (m.point == nullptr) m.point = m.end;
  const char* e = m.end;
  if (e == last) return m;
  ++e;  // the 'e' or 'p'
  const bool negative = *e == '-';
  if (*e == '-' || *e == '+') ++e;
  // Far past any double's range, and small enough that nothing overflows.
  constexpr long long kSaturated = 1'000'000'000'000LL;
  long long exponent = 0;
  for (; e != last; ++e) {
    exponent = std::min(exponent * 10 + (*e - '0'), kSaturated);
  }
  m.exponent = negative ? -exponent : exponent;
  return m;
}

/// Whether an out-of-range body lies below the doubles rather than above:
/// its scale is hundreds of decades off, so the position of its first
/// nonzero digit settles it.
bool underflows(const Mantissa& m, bool hex) {
  for (const char* d = m.begin; d != m.end; ++d) {
    if (*d != '.' && *d != '0') {
      return (hex ? 4 : 1) * m.place(d) + m.exponent < 0;
    }
  }
  return true;
}

/// Whether `magnitude`, a nonzero double below DBL_MIN that the body
/// rounded to, is exactly the value the body spells.
bool spells_exactly(const Mantissa& m, bool hex, double magnitude) {
  const char* first = nullptr;
  const char* last_nonzero = nullptr;
  for (const char* d = m.begin; d != m.end; ++d) {
    if (*d == '.' || *d == '0') continue;
    if (first == nullptr) first = d;
    last_nonzero = d;
  }
  if (first == nullptr) return true;
  if (hex) {
    // Exact when its lowest set bit is no finer than the smallest subnormal.
    const auto digit =
        static_cast<unsigned>(digit_value(*last_nonzero, /*hex=*/true));
    const long long lowest_bit = m.exponent + 4 * m.place(last_nonzero) +
                                 std::countr_zero(digit);
    return lowest_bit >= DBL_MIN_EXP - DBL_MANT_DIG;
  }
  // A subnormal has at most 767 significant decimal digits; print them all
  // and compare digit for digit.
  char buf[800];
  const auto printed = std::to_chars(buf, buf + sizeof(buf), magnitude,
                                     std::chars_format::scientific, 766);
  const char* const e = std::find(buf, printed.ptr, 'e');
  int exp10 = 0;
  std::from_chars(e + 1, printed.ptr, exp10);
  if (m.place(first) + m.exponent != exp10) return false;
  const char* want = buf;
  const char* want_end = e;
  while (want_end[-1] == '0') --want_end;
  if (want_end[-1] == '.') --want_end;
  for (const char* d = first; d <= last_nonzero; ++d) {
    if (*d == '.') continue;
    if (want != want_end && *want == '.') ++want;
    if (want == want_end || *d != *want++) return false;
  }
  return want == want_end;
}

/// Whether a body that rounded up to DBL_MIN is still tiny by glibc's rule,
/// which rounds to 53 bits with an unbounded exponent before it compares
/// with DBL_MIN. Scaling the body by 2^64, digit by digit, moves that
/// rounding into the normal range, where from_chars does it.
bool tiny_before_rounding(const char* p, const char* last, bool hex) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const int base = hex ? 16 : 10;
  const Mantissa m = split_body(p, last, hex);
  std::string scaled(m.begin, m.end);
  for (int doubling = 0; doubling < 64; ++doubling) {
    int carry = 0;
    for (auto it = scaled.rbegin(); it != scaled.rend(); ++it) {
      if (*it == '.') continue;
      const int d = 2 * digit_value(*it, hex) + carry;
      *it = kDigits[d % base];
      carry = d / base;
    }
    if (carry != 0) scaled.insert(scaled.begin(), kDigits[carry]);
  }
  scaled.append(m.end, last);  // the exponent, unchanged
  double rounded = 0.0;
  std::from_chars(scaled.data(), scaled.data() + scaled.size(), rounded,
                  hex ? std::chars_format::hex : std::chars_format::general);
  return rounded < std::ldexp(DBL_MIN, 64);
}

}  // namespace

ParsedDouble parse_double(std::string_view text) {
  ParsedDouble out;
  const char* p = text.data();
  const char* const last = p + text.size();
  while (p != last && is_c_space(*p)) ++p;
  const bool negative = p != last && *p == '-';
  if (p != last && (*p == '-' || *p == '+')) ++p;
  // strtod reads "0x" as a prefix only when a hex mantissa follows it;
  // otherwise the "0" is the number and the 'x' is left over.
  bool hex = false;
  if (last - p > 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X') &&
      (digit_value(p[2], true) >= 0 ||
       (p[2] == '.' && last - p > 3 && digit_value(p[3], true) >= 0))) {
    hex = true;
    p += 2;
  }
  // from_chars reads no '+' and no prefix, but would take a second '-'.
  if (p == last || *p == '-' || *p == '+') return out;
  double magnitude = 0.0;
  const auto [end, ec] = std::from_chars(
      p, last, magnitude,
      hex ? std::chars_format::hex : std::chars_format::general);
  if (ec == std::errc::invalid_argument || end != last) return out;
  out.complete = true;
  if (ec == std::errc::result_out_of_range) {
    // from_chars leaves the value alone; strtod gives 0 or HUGE_VAL.
    out.range_error = true;
    magnitude = underflows(split_body(p, last, hex), hex) ? 0.0 : HUGE_VAL;
  } else if (magnitude != 0.0 && magnitude < DBL_MIN) {
    out.range_error =
        !spells_exactly(split_body(p, last, hex), hex, magnitude);
  } else if (magnitude == DBL_MIN) {
    // Rounded up from below? Such a value is never exact.
    out.range_error = tiny_before_rounding(p, last, hex);
  }
  out.value = negative ? -magnitude : magnitude;
  return out;
}

}  // namespace tgi::util
