// Ablation: communication overlap (HPL lookahead). The reference HPL can
// hide the panel broadcast under the trailing update; our Fire calibration
// assumes no lookahead (EXPERIMENTS.md). This ablation turns the overlap
// knob and reports what the optimization buys in GFLOPS, MFLOPS/W, and
// TGI — software tuning as an energy-efficiency lever, on the same
// hardware.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "HPL lookahead (comm/compute overlap)");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);

    util::TextTable table({"overlap", "HPL GFLOPS", "HPL MFLOPS/W",
                           "TGI(AM) @128"});
    const std::vector<double> overlaps = {0.0, 0.25, 0.5, 0.75, 1.0};
    // One self-contained task per overlap setting (own config, own meter).
    const auto points = util::parallel_map(
        overlaps.size(),
        [&](std::size_t k) {
          harness::SuiteConfig cfg;
          cfg.hpl.comm_overlap = overlaps[k];
          power::ModelMeter meter(util::seconds(0.5));
          harness::SuiteRunner runner(e.spec.cluster, meter, cfg);
          return runner.run_suite(128);
        },
        e.threads);
    double ee_none = 0.0;
    double ee_full = 0.0;
    for (std::size_t k = 0; k < overlaps.size(); ++k) {
      const double overlap = overlaps[k];
      const auto& hpl = core::find_measurement(points[k].measurements, "HPL");
      const double ee = hpl.performance / hpl.average_power.value();
      if (overlap == 0.0) ee_none = ee;
      if (overlap == 1.0) ee_full = ee;
      table.add_row(
          {util::percent(overlap, 0),
           util::fixed(hpl.performance / 1000.0, 1), util::fixed(ee, 1),
           util::fixed(calc.compute(points[k].measurements,
                                    core::WeightScheme::kArithmeticMean)
                           .tgi,
                       4)});
    }
    std::cout << table;
    std::cout << "\nfull lookahead improves HPL efficiency by "
              << util::percent(ee_full / ee_none - 1.0, 1)
              << " on the same hardware — a reminder that the Green Index\n"
                 "measures the software stack as much as the machine.\n";
    bench::print_check("overlap monotonically improves HPL efficiency",
                       ee_full > ee_none);
  });
}
