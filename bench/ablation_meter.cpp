// Ablation: meter fidelity. How much does the instrument error model (the
// simulated Watts Up? PRO ES's 1 Hz sampling, 0.1 W quantization, ±1.5 %
// gain, 0.2 % noise) move the Green Index compared to a perfect meter?
//
// Answers the methodological question the paper leaves implicit: a metric
// is only as rankable as its measurement pipeline is repeatable.
#include "bench_common.h"

#include <cmath>

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "meter fidelity: WattsUp(sim) vs exact model");
    // Exact reference baseline for both pipelines.
    power::ModelMeter exact_ref(util::seconds(0.5));
    const auto reference = harness::reference_measurements(
        e.spec.reference, exact_ref);
    const core::TgiCalculator calc(reference);

    power::ModelMeter exact(util::seconds(0.5));
    harness::SuiteRunner exact_runner(e.spec.cluster, exact);

    util::TextTable table({"cores", "TGI exact", "TGI wattsup (5-run range)",
                           "max |rel err|"});
    // One task per sweep point; every trial seeds its own meter from
    // (trial, p) only, so the fan-out is order-independent by construction.
    struct PointRow {
      double truth = 0.0;
      double lo = 0.0;
      double hi = 0.0;
      double worst = 0.0;
    };
    const auto rows = util::parallel_map(
        e.spec.sweep.size(),
        [&](std::size_t k) {
          const std::size_t p = e.spec.sweep[k];
          power::ModelMeter exact_point(util::seconds(0.5));
          harness::SuiteRunner truth_runner(e.spec.cluster, exact_point);
          PointRow row;
          row.truth =
              calc.compute(truth_runner.run_suite(p).measurements,
                           core::WeightScheme::kArithmeticMean)
                  .tgi;
          row.lo = 1e300;
          row.hi = -1e300;
          for (std::uint64_t trial = 0; trial < 5; ++trial) {
            power::WattsUpConfig cfg;
            cfg.seed = 0xfeedULL + trial * 977 + p;
            power::WattsUpMeter plug(cfg);
            harness::SuiteRunner runner(e.spec.cluster, plug);
            const double tgi =
                calc.compute(runner.run_suite(p).measurements,
                             core::WeightScheme::kArithmeticMean)
                    .tgi;
            row.lo = std::min(row.lo, tgi);
            row.hi = std::max(row.hi, tgi);
            row.worst = std::max(row.worst,
                                 std::fabs(tgi - row.truth) / row.truth);
          }
          return row;
        },
        e.threads);
    double worst = 0.0;
    for (std::size_t k = 0; k < rows.size(); ++k) {
      worst = std::max(worst, rows[k].worst);
      table.add_row({std::to_string(e.spec.sweep[k]),
                     util::fixed(rows[k].truth, 4),
                     util::fixed(rows[k].lo, 4) + " .. " +
                         util::fixed(rows[k].hi, 4),
                     util::percent(worst)});
    }
    std::cout << table;
    std::cout << "\nworst relative TGI error across sweep: "
              << util::percent(worst) << "\n";
    // Three independent ±1.5% gain draws can stack to a few percent of
    // TGI, but must stay within the accuracy class's compounding bound.
    bench::print_check("instrument error keeps TGI within ~5%",
                       worst < 0.05);

    // Failure injection: a flaky serial link losing 15% of samples.
    {
      const double truth =
          calc.compute(exact_runner.run_suite(128).measurements,
                       core::WeightScheme::kArithmeticMean)
              .tgi;
      power::WattsUpConfig flaky;
      flaky.seed = 0xbadbadULL;
      flaky.dropout_rate = 0.15;
      power::WattsUpMeter meter(flaky);
      harness::SuiteRunner runner(e.spec.cluster, meter);
      const double tgi =
          calc.compute(runner.run_suite(128).measurements,
                       core::WeightScheme::kArithmeticMean)
              .tgi;
      const double err = std::fabs(tgi - truth) / truth;
      std::cout << "with 15% sample dropout at 128 cores: TGI "
                << util::fixed(tgi, 4) << " vs " << util::fixed(truth, 4)
                << " (" << util::percent(err) << " error)\n";
      bench::print_check(
          "trapezoidal bridging keeps dropout error within ~5%",
          err < 0.05);
    }
  });
}
