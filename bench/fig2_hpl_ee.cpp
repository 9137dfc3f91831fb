// Figure 2 — "Energy Efficiency of HPL": MFLOPS/watt of the HPL benchmark
// on the Fire cluster as the number of MPI processes sweeps 16..128.
//
// Paper shape: efficiency RISES with process count (added cores deliver
// FLOPS faster than the whole-cluster wall power grows, because the idle
// baseline of all eight metered nodes is amortized). We reproduce the rise
// and report the fitted slope as the shape check.
#include "bench_common.h"

#include "stats/regression.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Figure 2",
                          "Energy Efficiency of HPL (Fire cluster)");
    const auto points = bench::run_sweep(e);
    const serve::PaperSeries paper = serve::paper_series(points, nullptr);

    const harness::Series series{"MPI processes", "MFLOPS/W", paper.x,
                                 paper.ee.at("HPL")};
    harness::print_series(std::cout, series, 2);

    // Context rows the paper quotes: absolute performance per point.
    util::TextTable detail(
        {"processes", "GFLOPS", "power (W)", "time (s)", "energy (kJ)"});
    for (const auto& pt : points) {
      const auto& m = core::find_measurement(pt.measurements, "HPL");
      detail.add_row({std::to_string(pt.processes),
                      util::fixed(m.performance / 1000.0, 1),
                      util::fixed(m.average_power.value(), 0),
                      util::fixed(m.execution_time.value(), 0),
                      util::fixed(m.energy.value() / 1000.0, 0)});
    }
    std::cout << "\n" << detail;

    const auto fit = stats::linear_fit(series.x, series.y);
    bench::print_check("HPL efficiency rises with process count",
                       fit.slope > 0.0);
    bench::print_check(
        "Fire @128 delivers the paper's 901-GFLOPS class (820..1000)",
        points.back().measurements[0].performance > 820e3 &&
            points.back().measurements[0].performance < 1000e3);
    bench::maybe_write_csv(e, serve::PaperCsv::kFig2HplEe, paper);
  });
}
