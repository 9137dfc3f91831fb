// Figure 5 — "TGI using Arithmetic Mean": the Green Index of the Fire
// cluster (SystemG reference) across the core-count sweep with equal
// weights (paper Eqs. 6-8).
//
// Paper shape: TGI tracks the trend of the least-REE benchmark (IOzone's
// falling curve), which is the paper's central "goodness" argument for the
// metric. We print the per-benchmark REE decomposition at every point so
// the convex-combination structure of Eq. 4 is visible.
#include "bench_common.h"

#include "stats/correlation.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Figure 5",
                          "TGI using Arithmetic Mean (Fire vs SystemG)");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);
    const auto points = bench::run_sweep(e);
    const serve::PaperSeries paper = serve::paper_series(points, &calc);

    const harness::Series series{
        "cores", "TGI (AM)", paper.x,
        paper.tgi.at(core::WeightScheme::kArithmeticMean)};
    util::TextTable detail(
        {"cores", "TGI", "REE(HPL)", "REE(STREAM)", "REE(IOzone)",
         "least REE"});
    for (const auto& pt : points) {
      const core::TgiResult r = calc.compute(
          pt.measurements, core::WeightScheme::kArithmeticMean);
      detail.add_row({std::to_string(pt.processes), util::fixed(r.tgi, 4),
                      util::fixed(r.components[0].ree, 3),
                      util::fixed(r.components[1].ree, 3),
                      util::fixed(r.components[2].ree, 3),
                      r.least_ree().benchmark});
    }
    harness::print_series(std::cout, series, 4);
    std::cout << "\n" << detail;

    const auto& io = paper.ee.at("IOzone");
    const double r_io = stats::pearson(series.y, io);
    std::cout << "\nPCC(TGI-AM, IOzone EE) = " << util::fixed(r_io, 3)
              << "  (paper: .99)\n";
    bench::print_check("TGI-AM follows IOzone's trend (PCC > 0.9)",
                       r_io > 0.9);
    bench::print_check("IOzone has the least REE at full scale",
                       calc.compute(points.back().measurements,
                                    core::WeightScheme::kArithmeticMean)
                               .least_ree()
                               .benchmark == "IOzone");
    bench::maybe_write_csv(e, serve::PaperCsv::kFig5TgiAm, paper);
  });
}
