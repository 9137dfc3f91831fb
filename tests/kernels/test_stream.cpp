// STREAM kernel: validation, byte accounting, threading equivalence.
#include "kernels/stream.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.h"

namespace tgi::kernels {
namespace {

StreamConfig small_config() {
  StreamConfig cfg;
  cfg.array_elements = 100000;
  cfg.iterations = 2;
  cfg.threads = 1;
  return cfg;
}

TEST(Stream, ValidatesClosedForm) {
  const StreamResult r = run_stream(small_config());
  EXPECT_TRUE(r.validated);
}

TEST(Stream, RatesArePositiveAndSane) {
  const StreamResult r = run_stream(small_config());
  for (double rate : {r.copy.value(), r.scale.value(), r.add.value(),
                      r.triad.value()}) {
    EXPECT_GT(rate, 1e6);    // faster than 1 MB/s on any host
    EXPECT_LT(rate, 1e13);   // slower than 10 TB/s
  }
  EXPECT_GT(r.elapsed.value(), 0.0);
}

TEST(Stream, MultiThreadedStillValidates) {
  StreamConfig cfg = small_config();
  cfg.threads = 4;
  const StreamResult r = run_stream(cfg);
  EXPECT_TRUE(r.validated);
}

TEST(Stream, UnevenSliceStillValidates) {
  StreamConfig cfg = small_config();
  cfg.array_elements = 100003;  // not divisible by thread count
  cfg.threads = 3;
  EXPECT_TRUE(run_stream(cfg).validated);
}

TEST(Stream, ByteAccountingConstants) {
  // 2 words for Copy/Scale, 3 for Add/Triad, in 8-byte double words.
  const double word = static_cast<double>(sizeof(double));
  EXPECT_DOUBLE_EQ(stream_bytes_per_element_copy(), 2.0 * word);
  EXPECT_DOUBLE_EQ(stream_bytes_per_element_scale(), 2.0 * word);
  EXPECT_DOUBLE_EQ(stream_bytes_per_element_add(), 3.0 * word);
  EXPECT_DOUBLE_EQ(stream_bytes_per_element_triad(), 3.0 * word);
}

TEST(Stream, ClosedFormMatchesKernelRecurrence) {
  const StreamExpected e = stream_closed_form(3.0, 2);
  // One round from a=1, b=2, c=0: c=1, b=3, c=4, a=15; second round:
  // c=15, b=45, c=60, a=225 — exact in double.
  EXPECT_EQ(e.a, 225.0);
  EXPECT_EQ(e.b, 45.0);
  EXPECT_EQ(e.c, 60.0);
}

TEST(Stream, ToleranceScalesWithEachArraysOwnMagnitude) {
  // scalar = 100, one iteration: a = 10200, b = 100, c = 101. The
  // historical check scaled every array's tolerance by |a|, accepting a
  // corruption of b two orders of magnitude above b's own bound; the
  // fixed check scales by each array's own closed form.
  const StreamExpected e = stream_closed_form(100.0, 1);
  EXPECT_EQ(e.a, 10200.0);
  EXPECT_EQ(e.b, 100.0);
  EXPECT_EQ(e.c, 101.0);
  const double eps = stream_validation_epsilon();
  const double err_b = eps * std::fabs(e.b) * 2.0;  // 2x b's own bound
  EXPECT_LT(err_b, eps * std::fabs(e.a));  // ...the old bound passed it
  EXPECT_FALSE(stream_error_within(err_b, e.b));
  EXPECT_TRUE(stream_error_within(eps * std::fabs(e.b) / 2.0, e.b));

  StreamConfig cfg = small_config();
  cfg.scalar = 100.0;
  EXPECT_TRUE(run_stream(cfg).validated);
}

TEST(Stream, ToleranceZeroClosedFormFallsBackToAbsolute) {
  // scalar = -2, one iteration: a's closed form is exactly 0 (b = -2,
  // c = -1). The historical tolerance 1e-8 * |a| was exactly zero, so any
  // rounding in a[] failed validation; a zero expectation now falls back
  // to the absolute epsilon.
  const StreamExpected e = stream_closed_form(-2.0, 1);
  EXPECT_EQ(e.a, 0.0);
  EXPECT_EQ(e.b, -2.0);
  EXPECT_EQ(e.c, -1.0);
  const double eps = stream_validation_epsilon();
  EXPECT_TRUE(stream_error_within(eps / 2.0, e.a));
  EXPECT_FALSE(stream_error_within(eps * 2.0, e.a));

  StreamConfig cfg = small_config();
  cfg.scalar = -2.0;
  cfg.iterations = 1;
  EXPECT_TRUE(run_stream(cfg).validated);
}

TEST(Stream, Validation) {
  StreamConfig bad = small_config();
  bad.array_elements = 10;
  EXPECT_THROW((void)run_stream(bad), util::PreconditionError);
  bad = small_config();
  bad.iterations = 0;
  EXPECT_THROW((void)run_stream(bad), util::PreconditionError);
  bad = small_config();
  bad.threads = 0;
  EXPECT_THROW((void)run_stream(bad), util::PreconditionError);
}

}  // namespace
}  // namespace tgi::kernels
