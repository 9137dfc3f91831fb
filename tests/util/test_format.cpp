// Formatting helpers: fixed/scientific/percent/SI/commas and unit wrappers.
#include "util/format.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace tgi::util {
namespace {

TEST(Format, Fixed) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(fixed(3.14159, 0), "3");
  EXPECT_EQ(fixed(-1.5, 1), "-1.5");
}

TEST(Format, FixedIsSizedFromTheValue) {
  // Past 63 characters a fixed-size buffer would cut the digits off.
  EXPECT_EQ(fixed(1e60, 6),
            "999999999999999949387135297074018866963645011013410073083904."
            "000000");
  EXPECT_EQ(fixed(-1.5e57, 6),
            "-1499999999999999985407752241570241939668692766303109251072."
            "000000");
  EXPECT_EQ(fixed(1e300, 0).size(), 301u);
}

TEST(Format, AppendShortestRoundTrips) {
  std::string out = "x=";
  append_shortest(out, 0.85);
  EXPECT_EQ(out, "x=0.85");
  for (const auto& [v, text] :
       {std::pair<double, const char*>{0.8500004, "0.8500004"},
        {1e300, "1e+300"},
        {1e-300, "1e-300"},
        {-2.5, "-2.5"},
        {0.0, "0"},
        {2.2250738585072014e-308, "2.2250738585072014e-308"}}) {
    std::string s;
    append_shortest(s, v);
    EXPECT_EQ(s, text);
  }
}

TEST(Format, Scientific) {
  EXPECT_EQ(scientific(12345.0, 2), "1.23e+04");
}

TEST(Format, Percent) {
  EXPECT_EQ(percent(0.1234), "12.34%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(Format, SiPrefixes) {
  EXPECT_EQ(si_format(950.0, "W"), "950.00 W");
  EXPECT_EQ(si_format(1500.0, "W"), "1.50 kW");
  EXPECT_EQ(si_format(2.5e6, "FLOPS"), "2.50 MFLOPS");
  EXPECT_EQ(si_format(9.01e11, "FLOPS"), "901.00 GFLOPS");
  EXPECT_EQ(si_format(8.1e12, "FLOPS"), "8.10 TFLOPS");
}

TEST(Format, SiHandlesNegative) {
  EXPECT_EQ(si_format(-1500.0, "W"), "-1.50 kW");
}

TEST(Format, UnitWrappers) {
  EXPECT_EQ(format(kilowatts(1.52)), "1.52 kW");
  EXPECT_EQ(format(joules(7.2e6)), "7.20 MJ");
  EXPECT_EQ(format(seconds(12.5)), "12.50 s");
  EXPECT_EQ(format(gigaflops(901.0)), "901.00 GFLOPS");
  EXPECT_EQ(format(megabytes_per_sec(95.0)), "95.00 MB/s");
}

TEST(Format, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(-1234567), "-1,234,567");
}

}  // namespace
}  // namespace tgi::util
