// Ablation: reference-system sensitivity. TGI is a SPEC-style relative
// metric, so the choice of reference rescales each benchmark's REE by a
// different factor — it can even reorder two systems under test. This
// harness quantifies that on three references: SystemG (the paper's),
// Fire itself (self-normalization), and a FLOPS-heavy accelerator box.
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Ablation",
                          "reference-system sensitivity of TGI");

    struct Ref {
      std::string name;
      sim::ClusterSpec spec;
    };
    const std::vector<Ref> refs{
        {"SystemG (paper)", sim::system_g()},
        {"Fire (self)", sim::fire_cluster()},
        {"AccelBox (FLOPS-heavy)", sim::accelerator_heavy_cluster()},
    };

    util::TextTable table({"reference", "TGI@16", "TGI@128",
                           "trend (128 vs 16)", "least REE @128"});
    // One self-contained task per reference machine.
    struct RefRow {
      core::TgiResult lo;
      core::TgiResult hi;
    };
    const auto rows = util::parallel_map(
        refs.size(),
        [&](std::size_t k) {
          power::ModelMeter ref_meter(util::seconds(0.5));
          const auto reference =
              harness::reference_measurements(refs[k].spec, ref_meter);
          const core::TgiCalculator calc(reference);
          power::ModelMeter meter(util::seconds(0.5));
          harness::SuiteRunner runner(e.spec.cluster, meter);
          RefRow row;
          row.lo = calc.compute(runner.run_suite(16).measurements,
                                core::WeightScheme::kArithmeticMean);
          row.hi = calc.compute(runner.run_suite(128).measurements,
                                core::WeightScheme::kArithmeticMean);
          return row;
        },
        e.threads);
    for (std::size_t k = 0; k < refs.size(); ++k) {
      table.add_row({refs[k].name, util::fixed(rows[k].lo.tgi, 4),
                     util::fixed(rows[k].hi.tgi, 4),
                     rows[k].hi.tgi > rows[k].lo.tgi ? "rising" : "falling",
                     rows[k].hi.least_ree().benchmark});
    }
    std::cout << table;
    std::cout <<
        "\nReading: the *absolute* Green Index and even its trend are\n"
        "functions of the reference machine; only comparisons against a\n"
        "FIXED reference are meaningful (the paper's SPEC analogy).\n";

    // Self-normalization sanity: Fire at full scale against itself at full
    // scale must give TGI = 1.
    power::ModelMeter m1(util::seconds(0.5));
    power::ModelMeter m2(util::seconds(0.5));
    harness::SuiteRunner self_runner(e.spec.cluster, m1);
    harness::SuiteConfig cfg;
    cfg.reference_iozone_nodes = e.spec.cluster.nodes;
    // Build the self-reference with whole-cluster metering to mirror the
    // system-under-test pipeline exactly.
    harness::SuiteRunner ref_runner(e.spec.cluster, m2, cfg);
    const auto self_point = ref_runner.run_suite(128);
    const core::TgiCalculator self_calc(self_point.measurements);
    const double self_tgi =
        self_calc.compute(self_runner.run_suite(128).measurements,
                          core::WeightScheme::kArithmeticMean)
            .tgi;
    std::cout << "self-referenced TGI at 128 cores: "
              << util::fixed(self_tgi, 6) << "\n";
    bench::print_check("self-reference yields TGI == 1",
                       std::abs(self_tgi - 1.0) < 1e-6);
  });
}
