// Means and weight construction — the machinery behind Eqs. 6-12.
#include "stats/means.h"

#include <gtest/gtest.h>

#include <ranges>
#include <vector>

#include "util/error.h"
#include "util/rng.h"

namespace tgi::stats {
namespace {

TEST(Means, ArithmeticGeometricHarmonicClosedForms) {
  const std::vector<double> xs{1.0, 4.0, 16.0};
  EXPECT_DOUBLE_EQ(arithmetic_mean(xs), 7.0);
  EXPECT_DOUBLE_EQ(geometric_mean(xs), 4.0);
  EXPECT_DOUBLE_EQ(harmonic_mean(xs), 3.0 / (1.0 + 0.25 + 0.0625));
}

TEST(Means, PositivityRequiredForGmHm) {
  const std::vector<double> xs{1.0, -2.0};
  EXPECT_THROW((void)geometric_mean(xs), util::PreconditionError);
  EXPECT_THROW((void)harmonic_mean(xs), util::PreconditionError);
}

TEST(Means, WeightedArithmetic) {
  const std::vector<double> xs{10.0, 20.0};
  const std::vector<double> w{0.25, 0.75};
  EXPECT_DOUBLE_EQ(weighted_arithmetic_mean(xs, w), 17.5);
}

TEST(Means, WeightedHarmonicAndGeometric) {
  const std::vector<double> xs{2.0, 8.0};
  const std::vector<double> w{0.5, 0.5};
  EXPECT_DOUBLE_EQ(weighted_harmonic_mean(xs, w), 1.0 / (0.25 + 0.0625));
  EXPECT_DOUBLE_EQ(weighted_geometric_mean(xs, w), 4.0);
}

TEST(Means, WeightedRejectsBadWeights) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW(
      (void)weighted_arithmetic_mean(xs, std::vector<double>{0.5, 0.6}),
      util::PreconditionError);
  EXPECT_THROW((void)weighted_arithmetic_mean(xs, std::vector<double>{1.0}),
               util::PreconditionError);
  EXPECT_THROW(
      (void)weighted_arithmetic_mean(xs, std::vector<double>{-0.5, 1.5}),
      util::PreconditionError);
}

TEST(Means, ProportionalWeights) {
  // Eq. 10-12 form: raw magnitudes normalize to a unit simplex.
  std::vector<double> w{10.0, 30.0, 60.0};
  normalize_weights(w);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_DOUBLE_EQ(w[0], 0.1);
  EXPECT_DOUBLE_EQ(w[1], 0.3);
  EXPECT_DOUBLE_EQ(w[2], 0.6);
  EXPECT_TRUE(weights_valid(w));
  // In place in a field: each w_i is raw_i / Σ raw, the sum taken in order.
  struct Item {
    double other = -1.0;
    double weight = 0.0;
  };
  std::vector<Item> items{{-1.0, 0.1}, {-1.0, 0.7}, {-1.0, 0.3}};
  const auto weights = std::views::transform(items, &Item::weight);
  normalize_weights(weights);
  const double total = 0.1 + 0.7 + 0.3;
  EXPECT_EQ(items[0].weight, 0.1 / total);
  EXPECT_EQ(items[1].weight, 0.7 / total);
  EXPECT_EQ(items[2].weight, 0.3 / total);
  EXPECT_EQ(items[1].other, -1.0);
  EXPECT_TRUE(weights_valid(weights));
}

TEST(Means, ProportionalWeightsErrors) {
  EXPECT_THROW(normalize_weights(std::vector<double>{}),
               util::PreconditionError);
  EXPECT_THROW(normalize_weights(std::vector<double>{1.0, -1.0}),
               util::PreconditionError);
  EXPECT_THROW(normalize_weights(std::vector<double>{0.0, 0.0}),
               util::PreconditionError);
}

TEST(Means, WeightsValid) {
  EXPECT_TRUE(weights_valid(std::vector<double>{0.5, 0.5}));
  EXPECT_FALSE(weights_valid(std::vector<double>{0.5, 0.6}));
  EXPECT_FALSE(weights_valid(std::vector<double>{-0.1, 1.1}));
  EXPECT_FALSE(weights_valid(std::vector<double>{}));
  EXPECT_TRUE(weights_valid(std::vector<double>{1.0}));
}

/// Property sweep: AM >= GM >= HM on positive data, equality iff constant.
class MeanInequality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MeanInequality, AmGmHmOrdering) {
  util::Xoshiro256 rng(GetParam());
  std::vector<double> xs(16);
  for (double& x : xs) x = rng.uniform(0.1, 100.0);
  const double am = arithmetic_mean(xs);
  const double gm = geometric_mean(xs);
  const double hm = harmonic_mean(xs);
  EXPECT_GE(am, gm - 1e-12);
  EXPECT_GE(gm, hm - 1e-12);
}

TEST_P(MeanInequality, WeightedAmIsConvexCombination) {
  util::Xoshiro256 rng(GetParam() ^ 0xabcdULL);
  std::vector<double> xs(8);
  std::vector<double> w(8);
  for (double& x : xs) x = rng.uniform(-50.0, 50.0);
  for (double& r : w) r = rng.uniform(0.1, 5.0);
  normalize_weights(w);
  const double m = weighted_arithmetic_mean(xs, w);
  EXPECT_LE(m, *std::max_element(xs.begin(), xs.end()) + 1e-12);
  EXPECT_GE(m, *std::min_element(xs.begin(), xs.end()) - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MeanInequality,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55));

}  // namespace
}  // namespace tgi::stats
