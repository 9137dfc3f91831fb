// util/simd.h: alignment and padding invariants of the aligned lanes,
// and — the load-bearing property — the fixed-shape reduction tree
// reducing in one pinned order: byte-identical to an independently-coded
// replay of the documented shape, and *not* the serial left fold.
#include "util/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include "util/rng.h"

namespace tgi::util::simd {
namespace {

TEST(SimdLayout, LaneWidthsAndPaddedSizes) {
  EXPECT_EQ(kLaneWidth<double>, 8u);
  EXPECT_EQ(kLaneWidth<float>, 16u);
  EXPECT_EQ(kLaneWidth<std::uint64_t>, 8u);
  EXPECT_EQ(padded_size<double>(0), 0u);
  EXPECT_EQ(padded_size<double>(1), 8u);
  EXPECT_EQ(padded_size<double>(8), 8u);
  EXPECT_EQ(padded_size<double>(9), 16u);
  EXPECT_EQ(padded_size<float>(16), 16u);
  EXPECT_EQ(padded_size<float>(17), 32u);
  EXPECT_EQ(padded_size<std::uint64_t>(1000), 1000u);
}

TEST(SimdLayout, LanesAreAlignedPaddedAndFilled) {
  for (std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                        std::size_t{1000}, std::size_t{4097}}) {
    const Lane<double> lane = make_lane<double>(n, 2.5);
    EXPECT_EQ(lane.size(), padded_size<double>(n));
    EXPECT_GE(lane.size(), n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(lane.data()) % kAlignment,
              0u);
    for (double v : lane) EXPECT_EQ(v, 2.5);  // padding included
  }
}

TEST(SimdLayout, AlignmentSurvivesReallocation) {
  Lane<float> grown;
  for (int i = 0; i < 1000; ++i) {
    grown.push_back(static_cast<float>(i));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(grown.data()) % kAlignment,
              0u);
  }
}

// Independent replay of the documented reduction shape (DESIGN.md §14):
// element i feeds partial i % kAccumulators over the whole blocks, the
// tail restarts at partial 0, and the partials combine by the fixed
// pairwise tree. If the shape in util/simd.h drifts, the byte
// comparison below fails first.
double replay_fixed_tree(const double* p, std::size_t n) {
  double partial[kAccumulators] = {};
  const std::size_t whole = n / kAccumulators * kAccumulators;
  for (std::size_t i = 0; i < whole; ++i) partial[i % kAccumulators] += p[i];
  for (std::size_t i = whole; i < n; ++i) partial[i - whole] += p[i];
  const double q0 = partial[0] + partial[1];
  const double q1 = partial[2] + partial[3];
  const double q2 = partial[4] + partial[5];
  const double q3 = partial[6] + partial[7];
  return (q0 + q1) + (q2 + q3);
}

std::vector<double> adversarial_data(std::size_t n) {
  // Magnitudes spread over ~12 decades: any reordering of the additions
  // lands on different bits with overwhelming probability.
  Xoshiro256 rng(0xC0FFEEULL + n);
  std::vector<double> x(n);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0) * std::pow(10.0, rng.uniform(-6.0, 6.0));
  return x;
}

TEST(SimdTree, TransformSumVisitsEveryIndexOnce) {
  std::vector<int> hits(37, 0);
  const double total = tree_transform_sum<double>(hits.size(), [&hits](std::size_t i) {
    ++hits[i];
    return static_cast<double>(i);
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_EQ(total, 666.0);  // 0 + 1 + ... + 36, exact in double
}

TEST(SimdTree, MatchesTheDocumentedShapeBitForBit) {
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                        std::size_t{8}, std::size_t{9}, std::size_t{100},
                        std::size_t{4095}, std::size_t{4096},
                        std::size_t{4097}, std::size_t{3 * 4096 + 17}}) {
    const std::vector<double> x = adversarial_data(n);
    const double* p = x.data();
    const double direct =
        tree_transform_sum<double>(n, [p](std::size_t i) { return p[i]; });
    const double replay = replay_fixed_tree(p, n);
    EXPECT_EQ(std::memcmp(&direct, &replay, sizeof(double)), 0)
        << "tree_transform_sum shape drifted at n=" << n;
  }
}

TEST(SimdTree, IsNotTheSerialLeftFold) {
  // Eight values of 2^-53 sum exactly to 2^-50; a serial left fold then
  // adds 1.0 last and keeps every bit: 1 + 2^-50. The tree instead lands
  // 1.0 on partial 0's running 2^-53, which rounds away — the shapes are
  // provably distinct, so a regression to a plain accumulate cannot pass
  // the byte comparison above.
  std::vector<double> x(9, std::ldexp(1.0, -53));
  x[8] = 1.0;
  const double fold = std::accumulate(x.begin(), x.end(), 0.0);
  const double* p = x.data();
  const double tree =
      tree_transform_sum<double>(x.size(), [p](std::size_t i) { return p[i]; });
  EXPECT_EQ(fold, 1.0 + std::ldexp(1.0, -50));
  EXPECT_NE(tree, fold);
}

}  // namespace
}  // namespace tgi::util::simd
