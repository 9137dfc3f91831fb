// Table II — "PCC between energy efficiency of individual benchmarks and
// TGI metric using different weights" (Eq. 17), plus the arithmetic-mean
// correlations the paper quotes in the text (.99 / .96 / .58 for IOzone /
// Stream / HPL).
//
// Expected ordering, not digits: with AM (and time) weights TGI correlates
// most with IOzone; with energy (and, in the paper, power) weights it
// correlates most with HPL — the paper's argument that energy/power
// weights lose the desired property.
#include "bench_common.h"

#include <map>

#include "stats/bootstrap.h"
#include "util/atomic_file.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(
        std::cout, "Table II",
        "PCC between per-benchmark EE and TGI under different weights");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);
    const auto points = bench::run_sweep(e);

    const auto hpl = bench::ee_series(points, "HPL");
    const auto stream = bench::ee_series(points, "STREAM");
    const auto io = bench::ee_series(points, "IOzone");

    const std::vector<core::WeightScheme> schemes{
        core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
        core::WeightScheme::kEnergy, core::WeightScheme::kPower};
    std::map<core::WeightScheme, std::vector<double>> tgi;
    for (const auto& pt : points) {
      for (const auto scheme : schemes) {
        tgi[scheme].push_back(calc.compute(pt.measurements, scheme).tgi);
      }
    }

    util::TextTable table(
        {"Benchmark", "AM", "Time", "Energy", "Power",
         "AM 95% bootstrap CI"});
    auto row = [&](const char* name, const std::vector<double>& ee) {
      std::vector<std::string> cells{name};
      for (const auto scheme : schemes) {
        cells.push_back(util::fixed(stats::pearson(tgi[scheme], ee), 3));
      }
      const stats::BootstrapInterval ci = stats::pearson_bootstrap_ci(
          tgi[core::WeightScheme::kArithmeticMean], ee);
      cells.push_back("[" + util::fixed(ci.lo, 2) + ", " +
                      util::fixed(ci.hi, 2) + "]");
      table.add_row(std::move(cells));
    };
    row("IOzone", io);
    row("Stream", stream);
    row("HPL", hpl);
    std::cout << table;
    std::cout << "\npaper text (AM column): IOzone .99, Stream .96, HPL .58\n"
              << "(bootstrap CIs quantify what an 8-point sweep can "
                 "actually resolve)\n";

    const auto& am = tgi[core::WeightScheme::kArithmeticMean];
    const auto& we = tgi[core::WeightScheme::kEnergy];
    bench::print_check(
        "AM: IOzone correlates above Stream, Stream above HPL",
        stats::pearson(am, io) > stats::pearson(am, stream) &&
            stats::pearson(am, stream) > stats::pearson(am, hpl));
    bench::print_check(
        "Energy weights: HPL becomes the top correlate (undesired)",
        stats::pearson(we, hpl) > stats::pearson(we, io) &&
            stats::pearson(we, hpl) > stats::pearson(we, stream));

    if (e.csv_path) {
      util::AtomicFile out(*e.csv_path);
      util::CsvWriter csv(out.stream());
      csv.write_row({"benchmark", "am", "time", "energy", "power"});
      for (const auto& [name, ee] :
           std::vector<std::pair<std::string, const std::vector<double>*>>{
               {"IOzone", &io}, {"Stream", &stream}, {"HPL", &hpl}}) {
        std::vector<std::string> cells{name};
        for (const auto scheme : schemes) {
          cells.push_back(
              util::fixed(stats::pearson(tgi[scheme], *ee), 6));
        }
        csv.write_row(cells);
      }
      out.commit();
      std::cout << "wrote " << *e.csv_path << "\n";
    }
  });
}
