// Descriptive statistics: closed-form checks over spans of doubles.
#include "stats/descriptive.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/error.h"

namespace tgi::stats {
namespace {

const std::vector<double> kData{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};

TEST(Descriptive, Sum) {
  EXPECT_DOUBLE_EQ(sum(kData), 40.0);
  EXPECT_DOUBLE_EQ(sum(std::vector<double>{}), 0.0);
}

TEST(Descriptive, KahanSumStaysAccurate) {
  // 1 + 1e-16 repeated: naive summation loses the small terms entirely.
  std::vector<double> xs(1000001, 1e-16);
  xs[0] = 1.0;
  EXPECT_NEAR(sum(xs), 1.0 + 1e-10, 1e-14);
}

TEST(Descriptive, Mean) { EXPECT_DOUBLE_EQ(mean(kData), 5.0); }

TEST(Descriptive, MinMax) {
  EXPECT_DOUBLE_EQ(min(kData), 2.0);
  EXPECT_DOUBLE_EQ(max(kData), 9.0);
}

TEST(Descriptive, Variance) {
  // Classic example: population variance 4, sample variance 32/7.
  EXPECT_DOUBLE_EQ(variance_population(kData), 4.0);
  EXPECT_DOUBLE_EQ(variance_sample(kData), 32.0 / 7.0);
  EXPECT_DOUBLE_EQ(stddev_sample(kData), std::sqrt(32.0 / 7.0));
}

TEST(Descriptive, Median) {
  EXPECT_DOUBLE_EQ(median(kData), 4.5);
  EXPECT_DOUBLE_EQ(median(std::vector<double>{3.0, 1.0, 2.0}), 2.0);
}

TEST(Descriptive, Percentile) {
  const std::vector<double> xs{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 25.0);
  EXPECT_THROW((void)percentile(xs, 1.5), util::PreconditionError);
}

TEST(Descriptive, EmptyInputsThrow) {
  const std::vector<double> empty;
  EXPECT_THROW((void)mean(empty), util::PreconditionError);
  EXPECT_THROW((void)min(empty), util::PreconditionError);
  EXPECT_THROW((void)max(empty), util::PreconditionError);
  EXPECT_THROW((void)median(empty), util::PreconditionError);
  EXPECT_THROW((void)variance_sample(std::vector<double>{1.0}),
               util::PreconditionError);
}

}  // namespace
}  // namespace tgi::stats
