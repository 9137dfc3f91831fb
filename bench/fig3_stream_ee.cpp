// Figure 3 — "Energy Efficiency of Stream": MB/s per watt of the STREAM
// Triad benchmark on Fire across the MPI-process sweep.
//
// Paper shape: unlike HPL, STREAM's efficiency saturates early — memory
// controllers are bandwidth-bound with few streaming ranks per node, so
// added processes raise power without raising delivered MB/s. We check
// that the late-sweep trend is flat-to-declining while HPL's is rising.
#include "bench_common.h"

#include "stats/regression.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Figure 3",
                          "Energy Efficiency of Stream (Fire cluster)");
    const auto points = bench::run_sweep(e);
    const serve::PaperSeries paper = serve::paper_series(points, nullptr);

    const harness::Series series{"MPI processes", "MBPS/W", paper.x,
                                 paper.ee.at("STREAM")};
    harness::print_series(std::cout, series, 2);

    util::TextTable detail(
        {"processes", "aggregate MB/s", "power (W)", "time (s)"});
    for (const auto& pt : points) {
      const auto& m = core::find_measurement(pt.measurements, "STREAM");
      detail.add_row({std::to_string(pt.processes),
                      util::fixed(m.performance, 0),
                      util::fixed(m.average_power.value(), 0),
                      util::fixed(m.execution_time.value(), 0)});
    }
    std::cout << "\n" << detail;

    // Saturation: the second half of the sweep must not keep climbing the
    // way HPL does.
    const std::size_t half = series.y.size() / 2;
    const std::vector<double> x_late(series.x.begin() +
                                         static_cast<std::ptrdiff_t>(half),
                                     series.x.end());
    const std::vector<double> y_late(series.y.begin() +
                                         static_cast<std::ptrdiff_t>(half),
                                     series.y.end());
    const auto late_fit = stats::linear_fit(x_late, y_late);
    bench::print_check("STREAM efficiency saturates (late slope <= 0)",
                       late_fit.slope <= 0.0);
    const auto& hpl = paper.ee.at("HPL");
    bench::print_check(
        "STREAM EE grows far less than HPL EE across the sweep",
        series.y.back() / series.y.front() <
            0.5 * (hpl.back() / hpl.front()));
    bench::maybe_write_csv(e, serve::PaperCsv::kFig3StreamEe, paper);
  });
}
