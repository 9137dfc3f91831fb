#include "util/format.h"

#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <string>

namespace tgi::util {

namespace {
std::string printf_format(const char* fmt, double v, int precision) {
  // Sized from the value: "%.6f" of 1e300 takes 308 characters.
  std::string out(64, '\0');
  int n = std::snprintf(out.data(), out.size(), fmt, precision, v);
  if (n >= static_cast<int>(out.size())) {
    out.resize(static_cast<std::size_t>(n) + 1);
    n = std::snprintf(out.data(), out.size(), fmt, precision, v);
  }
  out.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
  return out;
}
}  // namespace

std::string fixed(double v, int precision) {
  return printf_format("%.*f", v, precision);
}

void append_shortest(std::string& out, double v) {
  std::array<char, 32> buf{};  // the longest shortest form is 24 characters
  const auto printed = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  out.append(buf.data(), printed.ptr);
}

std::string scientific(double v, int precision) {
  return printf_format("%.*e", v, precision);
}

std::string percent(double fraction, int precision) {
  return fixed(fraction * 100.0, precision) + "%";
}

std::string si_format(double v, const std::string& unit, int precision) {
  static constexpr std::array<const char*, 7> kPrefixes = {
      "", "k", "M", "G", "T", "P", "E"};
  double mag = std::fabs(v);
  std::size_t idx = 0;
  while (mag >= 1000.0 && idx + 1 < kPrefixes.size()) {
    mag /= 1000.0;
    v /= 1000.0;
    ++idx;
  }
  return fixed(v, precision) + " " + kPrefixes[idx] + unit;
}

std::string format(Watts w, int precision) {
  return si_format(w.value(), "W", precision);
}

std::string format(Joules e, int precision) {
  return si_format(e.value(), "J", precision);
}

std::string format(Seconds t, int precision) {
  return fixed(t.value(), precision) + " s";
}

std::string format(FlopRate r, int precision) {
  return si_format(r.value(), "FLOPS", precision);
}

std::string format(ByteRate r, int precision) {
  return si_format(r.value(), "B/s", precision);
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static constexpr char kHex[] = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(static_cast<unsigned char>(c) >> 4) & 0xF];
          out += kHex[static_cast<unsigned char>(c) & 0xF];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace tgi::util
