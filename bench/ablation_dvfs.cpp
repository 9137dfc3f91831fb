// Ablation: DVFS operating point. The power-aware-HPC question behind the
// paper's research program: does down-clocking improve energy efficiency?
//
// Dynamic CPU power falls cubically with frequency while HPL throughput
// falls only linearly — but the cluster's static draw (idle power, board,
// switch) is burned for longer at low clocks. TGI integrates that
// trade-off across the whole suite: compute-bound components reward
// moderate down-clocking until the static-power floor wins; memory- and
// I/O-bound components are clock-insensitive on the performance side and
// simply save CPU watts.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "DVFS operating point (Fire at 128 cores)");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);

    util::TextTable table({"clock (GHz)", "HPL GFLOPS", "HPL W",
                           "HPL MFLOPS/W", "TGI(AM)"});
    const std::vector<double> clocks = {1.4, 1.7, 2.0, 2.3};
    // One self-contained task per operating point (own tuning, own meter).
    const auto points = util::parallel_map(
        clocks.size(),
        [&](std::size_t k) {
          harness::SuiteConfig cfg;
          cfg.tuning.cpu_clock_ghz = clocks[k];
          power::ModelMeter meter(util::seconds(0.5));
          harness::SuiteRunner runner(e.spec.cluster, meter, cfg);
          return runner.run_suite(128);
        },
        e.threads);
    double best_tgi = 0.0;
    double best_clock = 0.0;
    double nominal_tgi = 0.0;
    for (std::size_t k = 0; k < clocks.size(); ++k) {
      const double ghz = clocks[k];
      const auto& hpl = core::find_measurement(points[k].measurements, "HPL");
      const double tgi =
          calc.compute(points[k].measurements,
                       core::WeightScheme::kArithmeticMean)
              .tgi;
      if (tgi > best_tgi) {
        best_tgi = tgi;
        best_clock = ghz;
      }
      if (ghz == 2.3) nominal_tgi = tgi;
      table.add_row({util::fixed(ghz, 1),
                     util::fixed(hpl.performance / 1000.0, 1),
                     util::fixed(hpl.average_power.value(), 0),
                     util::fixed(hpl.performance /
                                     hpl.average_power.value(), 1),
                     util::fixed(tgi, 4)});
    }
    std::cout << table;
    std::cout << "\nbest TGI operating point: " << util::fixed(best_clock, 1)
              << " GHz (TGI " << util::fixed(best_tgi, 4) << " vs "
              << util::fixed(nominal_tgi, 4) << " at nominal)\n";
    bench::print_check("DVFS sweep produces finite positive TGI everywhere",
                       best_tgi > 0.0);
  });
}
