// Ablation: the cooling extension. The paper's advantage 2 / future work:
// "TGI can be extended to incorporate power consumed outside the HPC
// system, e.g., cooling." We scale wall power by PUE on the system under
// test, on the reference, and on both, showing exactly when facility
// overhead changes the index and when it cancels.
#include "bench_common.h"

#include <cmath>

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "cooling extension: PUE-scaled TGI");
    const auto reference = bench::reference_suite(e);
    power::ModelMeter meter(util::seconds(0.5));
    harness::SuiteRunner runner(e.spec.cluster, meter);
    const auto point = runner.run_suite(128);

    const core::TgiCalculator plain(reference);
    const double base = plain
                            .compute(point.measurements,
                                     core::WeightScheme::kArithmeticMean)
                            .tgi;

    util::TextTable table(
        {"PUE(system)", "PUE(reference)", "TGI@128", "vs base"});
    const std::vector<std::pair<double, double>> cases{
        {1.0, 1.0}, {1.6, 1.0}, {1.0, 1.6}, {1.6, 1.6}, {2.0, 1.2}};
    double tgi_both = 0.0;
    for (const auto& [sys_pue, ref_pue] : cases) {
      const core::TgiCalculator calc(
          reference, core::EfficiencyMetric::kPerformancePerWatt,
          core::CoolingModel{ref_pue});
      const double tgi =
          calc.compute(point.measurements,
                       core::WeightScheme::kArithmeticMean,
                       core::CoolingModel{sys_pue})
              .tgi;
      if (sys_pue == 1.6 && ref_pue == 1.6) tgi_both = tgi;
      table.add_row({util::fixed(sys_pue, 1), util::fixed(ref_pue, 1),
                     util::fixed(tgi, 4),
                     util::fixed(tgi / base * 100.0, 1) + "%"});
    }
    std::cout << table;
    std::cout <<
        "\nReading: PUE on the system under test scales TGI by 1/PUE; the\n"
        "same PUE applied to both sides cancels exactly (a center-wide\n"
        "index only separates systems when their facilities differ).\n";
    bench::print_check("identical PUE on both sides cancels",
                       std::fabs(tgi_both - base) < 1e-9);
  });
}
