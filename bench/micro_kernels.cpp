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
//                     branchless OR-accumulated scan run_gups() now uses.
//   * stream_triad  — the plain std::vector triad loop vs the aligned
//                     restrict Lane loop inside run_stream()'s workers.
//
// The speedups here are the recorded evidence for the §14 pass — they
// come from single-thread ILP/vectorization, so they hold on one core.
// Results land in BENCH_kernels.json (out=PATH to move it), written via
// util::AtomicFile — part of the repo's recorded perf trajectory
// (BENCH_*.json series, see ROADMAP); ci.sh collects and gates on it.
#include "bench_common.h"

#include <cmath>
#include <cstdint>
#include <cstring>

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

__attribute__((noinline)) void triad_plain(const double* b, const double* c,
                                           double* a, std::size_t n,
                                           double scalar) {
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + scalar * c[i];
}

__attribute__((noinline)) void triad_lane(const double* b, const double* c,
                                          double* a, std::size_t n,
                                          double scalar) {
  const double* TGI_SIMD_RESTRICT vb = simd::assume_aligned(b);
  const double* TGI_SIMD_RESTRICT vc = simd::assume_aligned(c);
  double* TGI_SIMD_RESTRICT va = simd::assume_aligned(a);
  for (std::size_t i = 0; i < n; ++i) va[i] = vb[i] + scalar * vc[i];
}

struct LaneResult {
  std::string lane;
  std::size_t elements = 0;
  double before_s = 0.0;
  double after_s = 0.0;
  [[nodiscard]] double speedup() const {
    return before_s / std::max(after_s, 1e-12);
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
    const auto triad_n = std::size_t{1}
                         << static_cast<unsigned>(
                                e.config.get_int("triad_log2", 15));
    const auto repeats =
        static_cast<std::size_t>(e.config.get_int("repeats", 16));
    const auto trials =
        static_cast<std::size_t>(e.config.get_int("trials", 5));
    const std::string out_path =
        e.config.get_string("out", "BENCH_kernels.json");

    std::vector<LaneResult> lanes;

    // --- reduce_tree: serial fold vs fixed-shape tree --------------------
    simd::Lane<double> data = simd::make_lane<double>(reduce_n);
    {
      util::Xoshiro256 rng(e.seed);
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
    lanes.push_back({"reduce_tree", reduce_n, t_fold, t_tree});

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
    lanes.push_back({"gups_verify", static_cast<std::size_t>(table_n),
                     t_early, t_branchless});

    // --- stream_triad: plain vectors vs aligned restrict lanes -----------
    std::vector<double> pa(triad_n, 0.0), pb(triad_n, 2.0), pc(triad_n, 0.5);
    simd::Lane<double> la = simd::make_lane<double>(triad_n, 0.0);
    simd::Lane<double> lb = simd::make_lane<double>(triad_n, 2.0);
    simd::Lane<double> lc = simd::make_lane<double>(triad_n, 0.5);
    const double t_plain = best_seconds(trials, [&pa, &pb, &pc, triad_n,
                                                 repeats] {
      for (std::size_t r = 0; r < repeats; ++r) {
        triad_plain(pb.data(), pc.data(), pa.data(), triad_n, 3.0);
        keep(pa[0]);
      }
    });
    const double t_aligned = best_seconds(trials, [&la, &lb, &lc, triad_n,
                                                   repeats] {
      for (std::size_t r = 0; r < repeats; ++r) {
        triad_lane(lb.data(), lc.data(), la.data(), triad_n, 3.0);
        keep(la[0]);
      }
    });
    lanes.push_back({"stream_triad", triad_n, t_plain, t_aligned});

    util::TextTable tbl({"lane", "elements", "before (ms)", "after (ms)",
                         "speedup"});
    double best_speedup = 0.0;
    for (const LaneResult& lane : lanes) {
      tbl.add_row({lane.lane, std::to_string(lane.elements),
                   util::fixed(lane.before_s * 1e3, 3),
                   util::fixed(lane.after_s * 1e3, 3),
                   util::fixed(lane.speedup(), 2) + "x"});
      best_speedup = std::max(best_speedup, lane.speedup());
    }
    std::cout << tbl;
    std::cout << "\nbest of " << trials << " trials, " << repeats
              << " passes per trial, single thread\n";

    // Correctness of the rewritten lanes against their predecessors. The
    // tree reduction *reorders* the fold, so the two sums agree to a
    // rounding tolerance, not bitwise; the triad lanes run the identical
    // per-element expression and must match exactly.
    bench::print_check(
        "fixed-shape tree agrees with the serial fold",
        std::fabs(tree_value - fold_value) <=
            1e-9 * std::max(1.0, std::fabs(fold_value)));
    bench::print_check("branchless verify agrees with early-exit verify",
                       early_ok && branchless_ok);
    bench::print_check("aligned triad lane matches the plain loop bitwise",
                       std::memcmp(pa.data(), la.data(),
                                   triad_n * sizeof(double)) == 0);
    const bool speedup_ok = best_speedup >= 1.5;
    bench::print_check("at least one lane speeds up >= 1.5x", speedup_ok);

    util::AtomicFile json(out_path);
    json.stream() << "{\n"
                  << "  \"bench\": \"micro_kernels\",\n"
                  << "  \"trials\": " << trials << ",\n"
                  << "  \"repeats\": " << repeats << ",\n"
                  << "  \"lanes\": [\n";
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const LaneResult& lane = lanes[i];
      json.stream() << "    {\"lane\": \"" << lane.lane << "\", "
                    << "\"elements\": " << lane.elements << ", "
                    << "\"before_s\": " << util::fixed(lane.before_s, 6)
                    << ", "
                    << "\"after_s\": " << util::fixed(lane.after_s, 6)
                    << ", "
                    << "\"speedup\": " << util::fixed(lane.speedup(), 3)
                    << "}" << (i + 1 < lanes.size() ? "," : "") << "\n";
    }
    json.stream() << "  ],\n"
                  << "  \"best_speedup\": " << util::fixed(best_speedup, 3)
                  << ",\n"
                  << "  \"speedup_ok\": " << (speedup_ok ? "true" : "false")
                  << "\n"
                  << "}\n";
    json.commit();
    std::cout << "wrote " << out_path << "\n";
  }, {"reduce_log2", "table_log2", "triad_log2", "repeats", "trials",
      "out"});
}
