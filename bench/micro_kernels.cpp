// Microbench: the SIMD kernel lanes, before vs after (DESIGN.md §14).
//
// Times each rewritten kernel inner loop against the exact loop it
// replaced, on the same data:
//
//   * reduce_tree   — the strict serial left fold (one FP-add dependency
//                     chain, unvectorizable without reordering) vs the
//                     fixed-shape reduction tree `tree_transform_sum`
//                     (kAccumulators independent chains, same bytes every
//                     build). The STREAM validation scan runs this shape.
//   * gups_verify   — the historical compare-and-break table scan vs the
//                     branchless OR-accumulated scan run_gups() uses on
//                     its aligned table. The "unaligned" columns time the
//                     same branchless scan over a plain std::vector with
//                     no alignment promise: the gap between the two
//                     speedups is what the aligned Lane buys.
//
// These are the two lanes a measurement keeps (DESIGN.md §14). Their
// speedups come from single-thread ILP/vectorization, so they hold on one
// core. The `[check] at least one lane speeds up >= 1.5x` line fails the
// exit code when they do not; tools/ci.sh runs this bench.
#include "bench_common.h"

#include <cmath>
#include <cstdint>

#include "util/rng.h"
#include "util/simd.h"

namespace {

namespace simd = tgi::util::simd;
using tgi::bench::best_seconds;
using tgi::bench::keep;

// Each variant is noinline so the timed region is the function as
// compiled, not a caller-context specialization the other variant
// doesn't get.

__attribute__((noinline)) double reduce_serial_fold(const double* p,
                                                    std::size_t n) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += p[i];
  return acc;
}

__attribute__((noinline)) double reduce_fixed_tree(const double* p,
                                                   std::size_t n) {
  return simd::tree_transform_sum<double>(
      n, [p](std::size_t i) { return p[i]; });
}

__attribute__((noinline)) bool verify_early_exit(const std::uint64_t* t,
                                                 std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) {
    if (t[i] != i) return false;
  }
  return true;
}

__attribute__((noinline)) bool verify_branchless(const std::uint64_t* t,
                                                 std::uint64_t n) {
  const std::uint64_t* TGI_SIMD_RESTRICT p = simd::assume_aligned(t);
  std::uint64_t deviation = 0;
  for (std::uint64_t i = 0; i < n; ++i) deviation |= p[i] ^ i;
  return deviation == 0;
}

__attribute__((noinline)) bool verify_branchless_unaligned(
    const std::uint64_t* t, std::uint64_t n) {
  std::uint64_t deviation = 0;
  for (std::uint64_t i = 0; i < n; ++i) deviation |= t[i] ^ i;
  return deviation == 0;
}

struct LaneResult {
  std::string lane;
  std::size_t elements = 0;
  double before_s = 0.0;
  double after_s = 0.0;
  double unaligned_s = 0.0;  ///< 0 when the lane has no unaligned variant
  [[nodiscard]] double speedup() const {
    return before_s / std::max(after_s, 1e-12);
  }
  [[nodiscard]] double unaligned_speedup() const {
    return before_s / std::max(unaligned_s, 1e-12);
  }
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Microbench",
                          "SIMD kernel lanes: before vs after throughput");
    const auto reduce_n = std::size_t{1}
                          << static_cast<unsigned>(
                                 e.config.get_int("reduce_log2", 17));
    const auto table_n = std::uint64_t{1}
                         << static_cast<unsigned>(
                                e.config.get_int("table_log2", 17));
    const auto repeats =
        static_cast<std::size_t>(e.config.get_int("repeats", 16));
    const auto trials =
        static_cast<std::size_t>(e.config.get_int("trials", 5));

    std::vector<LaneResult> lanes;

    // --- reduce_tree: serial fold vs fixed-shape tree --------------------
    simd::Lane<double> data = simd::make_lane<double>(reduce_n);
    {
      util::Xoshiro256 rng(e.spec.seed);
      for (std::size_t i = 0; i < reduce_n; ++i) {
        data[i] = rng.uniform(-1.0, 1.0);
      }
    }
    double fold_value = 0.0;
    double tree_value = 0.0;
    const double* dp = data.data();
    const double t_fold = best_seconds(trials, [&fold_value, dp, reduce_n,
                                                repeats] {
      for (std::size_t r = 0; r < repeats; ++r) {
        fold_value = reduce_serial_fold(dp, reduce_n);
        keep(fold_value);
      }
    });
    const double t_tree = best_seconds(trials, [&tree_value, dp, reduce_n,
                                                repeats] {
      for (std::size_t r = 0; r < repeats; ++r) {
        tree_value = reduce_fixed_tree(dp, reduce_n);
        keep(tree_value);
      }
    });
    lanes.push_back({"reduce_tree", reduce_n, t_fold, t_tree, 0.0});

    // --- gups_verify: compare-and-break vs branchless OR scan ------------
    simd::Lane<std::uint64_t> table = simd::make_lane<std::uint64_t>(
        static_cast<std::size_t>(table_n));
    for (std::uint64_t i = 0; i < table_n; ++i) {
      table[static_cast<std::size_t>(i)] = i;
    }
    bool early_ok = false;
    bool branchless_ok = false;
    const std::uint64_t* tp = table.data();
    const double t_early = best_seconds(trials, [&early_ok, tp, table_n,
                                                 repeats] {
      for (std::size_t r = 0; r < repeats; ++r) {
        early_ok = verify_early_exit(tp, table_n);
        keep(early_ok);
      }
    });
    const double t_branchless = best_seconds(trials, [&branchless_ok, tp,
                                                      table_n, repeats] {
      for (std::size_t r = 0; r < repeats; ++r) {
        branchless_ok = verify_branchless(tp, table_n);
        keep(branchless_ok);
      }
    });
    // The same branchless scan over a plain vector, no assume_aligned.
    const std::vector<std::uint64_t> plain(tp, tp + table_n);
    bool unaligned_ok = false;
    const std::uint64_t* up = plain.data();
    const double t_unaligned = best_seconds(trials, [&unaligned_ok, up,
                                                     table_n, repeats] {
      for (std::size_t r = 0; r < repeats; ++r) {
        unaligned_ok = verify_branchless_unaligned(up, table_n);
        keep(unaligned_ok);
      }
    });
    lanes.push_back({"gups_verify", static_cast<std::size_t>(table_n),
                     t_early, t_branchless, t_unaligned});

    util::TextTable tbl({"lane", "elements", "before (ms)", "after (ms)",
                         "speedup", "unaligned (ms)", "unaligned speedup"});
    double best_speedup = 0.0;
    for (const LaneResult& lane : lanes) {
      const bool has_unaligned = lane.unaligned_s > 0.0;
      tbl.add_row({lane.lane, std::to_string(lane.elements),
                   util::fixed(lane.before_s * 1e3, 3),
                   util::fixed(lane.after_s * 1e3, 3),
                   util::fixed(lane.speedup(), 2) + "x",
                   has_unaligned ? util::fixed(lane.unaligned_s * 1e3, 3)
                                 : "-",
                   has_unaligned
                       ? util::fixed(lane.unaligned_speedup(), 2) + "x"
                       : "-"});
      best_speedup = std::max(best_speedup, lane.speedup());
    }
    std::cout << tbl;
    std::cout << "\nbest of " << trials << " trials, " << repeats
              << " passes per trial, single thread\n";

    // Correctness of the rewritten lanes against their predecessors. The
    // tree reduction *reorders* the fold, so the two sums agree to a
    // rounding tolerance, not bitwise.
    bench::print_check(
        "fixed-shape tree agrees with the serial fold",
        std::fabs(tree_value - fold_value) <=
            1e-9 * std::max(1.0, std::fabs(fold_value)));
    bench::print_check("branchless verify agrees with early-exit verify",
                       early_ok && branchless_ok && unaligned_ok);
    bench::print_check("at least one lane speeds up >= 1.5x",
                       best_speedup >= 1.5);
  }, {"reduce_log2", "table_log2", "repeats", "trials"});
}
