// Ablation: central-tendency choice. The paper's related work (Smith '88;
// John '04, which Section V summarizes as "both arithmetic and harmonic
// means can be used to summarize performance if appropriate weights are
// applied") leaves the mean itself a design choice. This harness computes
// TGI under weighted arithmetic, harmonic, and geometric aggregation over
// the Fire sweep and shows what the choice does to level, trend, and the
// AM-GM-HM ordering.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "aggregation choice: arithmetic vs harmonic vs "
                          "geometric TGI");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);
    const auto points = bench::run_sweep(e);

    harness::MultiSeries multi;
    multi.x_label = "cores";
    multi.x.assign(e.spec.sweep.begin(), e.spec.sweep.end());
    std::vector<double> am;
    std::vector<double> hm;
    std::vector<double> gm;
    bool ordering_holds = true;
    for (const auto& pt : points) {
      const double a =
          calc.compute(pt.measurements, core::WeightScheme::kArithmeticMean,
                       {}, core::Aggregation::kWeightedArithmetic)
              .tgi;
      const double h =
          calc.compute(pt.measurements, core::WeightScheme::kArithmeticMean,
                       {}, core::Aggregation::kWeightedHarmonic)
              .tgi;
      const double g =
          calc.compute(pt.measurements, core::WeightScheme::kArithmeticMean,
                       {}, core::Aggregation::kWeightedGeometric)
              .tgi;
      am.push_back(a);
      hm.push_back(h);
      gm.push_back(g);
      ordering_holds = ordering_holds && a >= g - 1e-12 && g >= h - 1e-12;
    }
    multi.series = {{"arithmetic", am}, {"geometric", gm},
                    {"harmonic", hm}};
    harness::print_multi_series(std::cout, multi, 4);

    std::cout <<
        "\nReading: the harmonic mean is dominated by the WORST-normalized\n"
        "benchmark (IOzone here), the arithmetic mean by the best — the\n"
        "spread between the rows is the \"metric design\" uncertainty a\n"
        "published single number hides. The paper's Eq. 4 is the\n"
        "arithmetic row.\n";
    bench::print_check("AM >= GM >= HM at every sweep point",
                       ordering_holds);
    bench::print_check(
        "harmonic TGI sits below arithmetic by a meaningful margin",
        hm.back() < 0.8 * am.back());
    bench::maybe_write_csv(e, [&multi](const std::string& path) {
      harness::write_csv(multi, path);
    });
  });
}
