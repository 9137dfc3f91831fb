// Figure 6 — "TGI using Weighted Arithmetic Mean": both panels of the
// paper's figure — TGI under time weights (left panel) and under power and
// energy weights (right panel) — across the Fire core-count sweep.
//
// Paper finding (Section III/IV): time weights keep the desired
// inverse-proportionality to energy; energy and power weights cancel the
// energy term and drag TGI onto HPL's curve instead (Table II makes the
// same point with correlations; see table2_pcc).
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(
        std::cout, "Figure 6",
        "TGI using Weighted Arithmetic Mean (time / power / energy)");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);
    const auto points = bench::run_sweep(e);
    const serve::PaperSeries paper = serve::paper_series(points, &calc);

    const auto& we = paper.tgi.at(core::WeightScheme::kEnergy);
    const auto& am = paper.tgi.at(core::WeightScheme::kArithmeticMean);
    const harness::MultiSeries multi{
        "cores",
        paper.x,
        {{"TGI(W_t)", paper.tgi.at(core::WeightScheme::kTime)},
         {"TGI(W_p)", paper.tgi.at(core::WeightScheme::kPower)},
         {"TGI(W_e)", we},
         {"TGI(AM)", am}}};
    harness::print_multi_series(std::cout, multi, 4);

    // The weight vectors themselves at full scale, to show why: HPL
    // dominates the suite's energy, so W_e is HPL-heavy.
    const core::TgiResult full =
        calc.compute(points.back().measurements, core::WeightScheme::kEnergy);
    util::TextTable weights({"benchmark", "W_e at 128 cores", "REE"});
    for (const auto& comp : full.components) {
      weights.add_row({comp.benchmark, util::fixed(comp.weight, 3),
                       util::fixed(comp.ree, 3)});
    }
    std::cout << "\n" << weights;

    bench::print_check(
        "energy-weighted TGI diverges from AM (HPL-dominated weights)",
        std::abs(we.back() - am.back()) > 0.2);
    bench::print_check("AM-TGI falls across sweep while W_e-TGI rises",
                       am.back() < am.front() && we.back() > we.front());
    bench::maybe_write_csv(e, serve::PaperCsv::kFig6Weighted, paper);
  });
}
