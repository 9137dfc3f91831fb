// Table I — "Performance on SystemG": the reference system's performance
// and power for each suite benchmark (HPL / STREAM / IOzone).
//
// Paper anchors: HPL = 8.1 TFLOPS; IOzone measured on a small subset at
// 1.52 kW. Absolute wattage comes from our component models, so we check
// the magnitudes (TFLOPS class, kW class) rather than digits.
#include "bench_common.h"

#include "harness/measurement_io.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Table I",
                          "Performance on SystemG (reference system)");
    const auto reference = bench::reference_suite(e);

    util::TextTable table({"Benchmark", "Performance", "Power", "Time",
                           "Energy", "EE (perf/W)"});
    for (const auto& m : reference) {
      std::string perf;
      if (m.benchmark == "HPL") {
        perf = util::fixed(m.performance / 1e6, 2) + " TFLOPS";
      } else {
        perf = util::fixed(m.performance, 1) + " MBPS";
      }
      table.add_row({m.benchmark, perf,
                     util::fixed(m.average_power.value() / 1000.0, 2) + " kW",
                     util::fixed(m.execution_time.value(), 0) + " s",
                     util::fixed(m.energy.value() / 1e6, 2) + " MJ",
                     util::fixed(m.performance / m.average_power.value(), 3)});
    }
    std::cout << table;

    const auto& hpl = core::find_measurement(reference, "HPL");
    const auto& io = core::find_measurement(reference, "IOzone");
    bench::print_check("HPL lands in the paper's 8.1-TFLOPS class (7.2..9)",
                       hpl.performance > 7.2e6 && hpl.performance < 9.0e6);
    bench::print_check(
        "IOzone reference power is kW-class like the paper's 1.52 kW",
        io.average_power.value() > 500.0 &&
            io.average_power.value() < 6000.0);
    bench::print_check("full-scale HPL power is tens of kW",
                       hpl.average_power.value() > 2e4 &&
                           hpl.average_power.value() < 6e4);

    // tgi_sweep's reference_systemg.csv, byte for byte.
    bench::maybe_write_csv(e, [&reference](const std::string& path) {
      harness::write_measurements_file(path, reference);
    });
  });
}
