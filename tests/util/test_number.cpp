// util::parse_double against the C library's strtod, the grammar it
// reimplements: pinned edge tokens (signs, white space, hexfloats,
// subnormals exact and inexact, overflow, underflow, inf and nan spellings)
// and seeded random tokens. Same completeness, same bits, same ERANGE.
#include "util/number.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <string>

#include "util/rng.h"

namespace tgi::util {
namespace {

void expect_like_strtod(const std::string& token) {
  SCOPED_TRACE("token '" + token + "'");
  errno = 0;
  char* end = nullptr;
  const double want = std::strtod(token.c_str(), &end);
  const bool range_error = errno == ERANGE;
  const bool complete =
      end != token.c_str() && end == token.c_str() + token.size();
  const ParsedDouble got = parse_double(token);
  ASSERT_EQ(got.complete, complete);
  if (!complete) return;
  if (std::isnan(want)) {
    EXPECT_TRUE(std::isnan(got.value));
    return;
  }
  std::uint64_t want_bits = 0;
  std::uint64_t got_bits = 0;
  std::memcpy(&want_bits, &want, sizeof(want));
  std::memcpy(&got_bits, &got.value, sizeof(got.value));
  EXPECT_EQ(got_bits, want_bits) << got.value << " vs " << want;
  EXPECT_EQ(got.range_error, range_error);
}

TEST(ParseDouble, EdgeTokensMatchStrtod) {
  // The exact decimal spelling of the smallest subnormal, 2^-1074.
  const std::string min_subnormal =
      "4.940656458412465441765687928682213723650598026143247644255856825006"
      "755072702087518652998363616359923797965646954457177309266567103559"
      "397963987747960107818781263007131903114045278458171678489821036887"
      "186360569987307230500063874091535649843873124733972731696151400317"
      "153853980741262385655911710266585566867681870395603106249319452715"
      "914924553293054565444011274801297099995419319894090804165633245247"
      "571478690147267801593552386115501348035264934720193790268107107491"
      "703332226844753335720832431936092382893458368060106011506169809753"
      "078342277318329247904982524730776375927247874656084778203734469699"
      "533647017972677717585125660551199131504891101451037862738167250955"
      "837389733598993664809941164205702637090279242767544565229087538682"
      "506419718265533447265625e-324";
  const char* const kTokens[] = {
      "5", " 5", "\t\n\v\f\r5", "5 ", "+5", "-5", "+-5", "--5", "+ 5", "",
      " ", "+", ".", "5.", ".5", "1e", "1e+", "1e-3", "1E3", "0x", "0xg",
      "0x.", "0x.p1", "0x1p3", "0X1P+0", "-0x0p+0", "0x.8", "0x1.p1", "0x1p",
      "0x1.fffffffffffff7ffffffp0", "0x1.00000000000008p0",
      "0x1.000000000000080000001p0", "0x1p-1074", "0x1p-1075", "0x1.8p-1075",
      "0x0.0000000000001p-1022", "0x1.00000000000001p-1070", "0x1p+1024",
      "0x1.fffffffffffff8p1023", "1e-320", "1e-400", "0e-999", "1e400",
      "1e99999999999999999999", "1e-99999999999999999999",
      "4.9406564584124654e-324", "2.2250738585072011e-308",
      "2.2250738585072014e-308", "1.7976931348623157e308",
      "1.7976931348623159e308", "0.0000e500", "inf", "-inf", "INF",
      "Infinity", "iNfInItY", "infinit", "nan", "NaN", "nan()", "nan(a_1)",
      "nan(a-1)", "nan(", "0xinf", "0xnan",
      // Just below DBL_MIN: some round up to it and still set ERANGE.
      "0x1.fffffffffffffp-1023", "0x1.fffffffffffff7fp-1023",
      "0x1.fffffffffffff8p-1023", "0x1.fffffffffffff81p-1023",
      "0x3.ffffffffffffep-1024", "2.2250738585072012e-308",
      "2.2250738585072013e-308", "2.22507385850720138309e-308"};
  for (const char* token : kTokens) expect_like_strtod(token);
  expect_like_strtod(std::string("1\0" "2", 3));
  expect_like_strtod(min_subnormal);
  // One digit more: no longer exactly 2^-1074, so a range error.
  expect_like_strtod(min_subnormal.substr(0, min_subnormal.size() - 5) +
                     "6e-324");
  expect_like_strtod("0.00000" + min_subnormal.substr(0, 1) +
                     min_subnormal.substr(2, min_subnormal.size() - 7) +
                     "00e-318");
}

TEST(ParseDouble, SeededTokensMatchStrtod) {
  Xoshiro256 rng(0x57a7d0dULL);
  static const char kAlphabet[] = "0123456789.eEpPxX+- \tinfINFaA()_";
  static const char* const kPieces[] = {
      "0x",    "1",     "0",     "f",       ".",     "e-3",  "p-1074",
      "p-1075", "e-320", "e400", "p+1024", "00000", "99999", "inf", "nan"};
  for (int i = 0; i < 20000; ++i) {
    std::string token;
    for (std::uint64_t k = rng.next() % 7; k > 0; --k) {
      if (rng.next() % 2 == 0) {
        token += kAlphabet[rng.next() % (sizeof(kAlphabet) - 1)];
      } else {
        token += kPieces[rng.next() % std::size(kPieces)];
      }
    }
    expect_like_strtod(token);
  }
  static const char* const kFormats[] = {"%a", "%.17g", "%.3g", "%.25e",
                                         "%A", "%.1a",  " %a", "+%.17g"};
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t bits = rng.next();
    if (i % 4 == 0) bits &= 0x800fffffffffffffULL;  // subnormal or zero
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    char buf[64];
    std::snprintf(buf, sizeof(buf), kFormats[rng.next() % std::size(kFormats)],
                  v);
    expect_like_strtod(buf);
  }
}

}  // namespace
}  // namespace tgi::util
