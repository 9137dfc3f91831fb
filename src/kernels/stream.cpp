#include "kernels/stream.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <vector>

#include "util/error.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace tgi::kernels {

namespace {

double now_seconds() {
  // Native kernels time real execution, not the simulated timeline —
  // kernels' sanctioned wall-clock read.
  using wall = std::chrono::steady_clock;  // tgi-lint: allow(wall-clock-in-deterministic-path)
  return std::chrono::duration<double>(wall::now().time_since_epoch())
      .count();
}

struct Slice {
  std::size_t begin = 0;
  std::size_t end = 0;
};

Slice slice_for(std::size_t total, int thread, int threads) {
  const auto t = static_cast<std::size_t>(thread);
  const auto p = static_cast<std::size_t>(threads);
  const std::size_t base = total / p;
  const std::size_t extra = total % p;
  const std::size_t begin = t * base + std::min(t, extra);
  const std::size_t len = base + (t < extra ? 1 : 0);
  return {begin, begin + len};
}

}  // namespace

StreamExpected stream_closed_form(double scalar, int iterations) {
  StreamExpected e{1.0, 2.0, 0.0};
  for (int it = 0; it < iterations; ++it) {
    e.c = e.a;
    e.b = scalar * e.c;
    e.c = e.a + e.b;
    e.a = e.b + scalar * e.c;
  }
  return e;
}

double stream_validation_epsilon() {
  // The reference STREAM tolerance for double arrays: one rounding per
  // kernel per iteration accumulates.
  return 1e-8;
}

bool stream_error_within(double abs_err, double expected) {
  const double eps = stream_validation_epsilon();
  const double mag = std::fabs(expected);
  return mag > 0.0 ? abs_err <= eps * mag : abs_err <= eps;
}

StreamResult run_stream(const StreamConfig& config) {
  TGI_REQUIRE(config.array_elements >= 1000,
              "STREAM arrays must have >= 1000 elements");
  TGI_REQUIRE(config.iterations >= 1, "need at least one iteration");
  TGI_REQUIRE(config.threads >= 1, "need at least one thread");

  const std::size_t n = config.array_elements;
  const int threads = config.threads;
  std::vector<double> a(n, 1.0);
  std::vector<double> b(n, 2.0);
  std::vector<double> c(n, 0.0);
  double* const pa = a.data();
  double* const pb = b.data();
  double* const pc = c.data();

  // One timing per (kernel, iteration); workers sync on a barrier and
  // thread 0 reads the clock at the sync points.
  constexpr int kKernels = 4;
  std::vector<std::vector<double>> times(
      kKernels, std::vector<double>(static_cast<std::size_t>(
                    config.iterations)));
  std::barrier sync(threads);
  const double scalar = config.scalar;
  const double t_start = now_seconds();

  {
    // A pool of exactly `threads` workers runs `threads` tasks that rank
    // on a barrier: every task starts before any can finish, so no worker
    // ever needs a second task and the barrier cannot deadlock.
    util::ThreadPool pool(static_cast<std::size_t>(threads));
    for (int t = 0; t < threads; ++t) {
      pool.submit([pa, pb, pc, &sync, &times, n, scalar, t, threads,
                   iterations = config.iterations] {
        const Slice s = slice_for(n, t, threads);
        for (int it = 0; it < iterations; ++it) {
          const auto iu = static_cast<std::size_t>(it);
          double t0 = 0.0;

          sync.arrive_and_wait();
          if (t == 0) t0 = now_seconds();
          sync.arrive_and_wait();
          for (std::size_t i = s.begin; i < s.end; ++i) pc[i] = pa[i];
          sync.arrive_and_wait();
          if (t == 0) times[0][iu] = now_seconds() - t0;

          sync.arrive_and_wait();
          if (t == 0) t0 = now_seconds();
          sync.arrive_and_wait();
          for (std::size_t i = s.begin; i < s.end; ++i) pb[i] = scalar * pc[i];
          sync.arrive_and_wait();
          if (t == 0) times[1][iu] = now_seconds() - t0;

          sync.arrive_and_wait();
          if (t == 0) t0 = now_seconds();
          sync.arrive_and_wait();
          for (std::size_t i = s.begin; i < s.end; ++i) pc[i] = pa[i] + pb[i];
          sync.arrive_and_wait();
          if (t == 0) times[2][iu] = now_seconds() - t0;

          sync.arrive_and_wait();
          if (t == 0) t0 = now_seconds();
          sync.arrive_and_wait();
          for (std::size_t i = s.begin; i < s.end; ++i) {
            pa[i] = pb[i] + scalar * pc[i];
          }
          sync.arrive_and_wait();
          if (t == 0) times[3][iu] = now_seconds() - t0;
        }
      });
    }
    pool.wait();
  }

  StreamResult result;
  result.elapsed = util::seconds(now_seconds() - t_start);

  const auto nd = static_cast<double>(n);
  auto best_rate = [&](int kernel, double bytes_per_elem) {
    double best = times[static_cast<std::size_t>(kernel)][0];
    for (double v : times[static_cast<std::size_t>(kernel)]) {
      best = std::min(best, v);
    }
    best = std::max(best, 1e-9);
    return util::bytes_per_sec(nd * bytes_per_elem / best);
  };
  result.copy = best_rate(0, stream_bytes_per_element_copy());
  result.scale = best_rate(1, stream_bytes_per_element_scale());
  result.add = best_rate(2, stream_bytes_per_element_add());
  result.triad = best_rate(3, stream_bytes_per_element_triad());

  // Validate against the closed form after `iterations` rounds: the
  // reference STREAM check is each array's *average* per-element error,
  // computed here through the fixed-shape reduction tree (util/simd.h) so
  // the vectorized scan reduces in one pinned order. Each array's
  // tolerance scales with its own closed-form magnitude
  // (stream_error_within) — not a[]'s, which is wrongly loose when
  // |a| >> |b| and exactly zero (wrongly tight) when a's closed form
  // vanishes, e.g. scalar = -2 after one iteration.
  const StreamExpected expect = stream_closed_form(scalar, config.iterations);
  auto average_error = [n](const double* p, double expected) {
    return util::simd::tree_transform_sum<double>(
               n,
               [p, expected](std::size_t i) {
                 return std::fabs(p[i] - expected);
               }) /
           static_cast<double>(n);
  };
  result.validated =
      stream_error_within(average_error(pa, expect.a), expect.a) &&
      stream_error_within(average_error(pb, expect.b), expect.b) &&
      stream_error_within(average_error(pc, expect.c), expect.c);
  return result;
}

}  // namespace tgi::kernels
