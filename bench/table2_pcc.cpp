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

#include "stats/bootstrap.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(
        std::cout, "Table II",
        "PCC between per-benchmark EE and TGI under different weights");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);
    const serve::PaperSeries paper =
        serve::paper_series(bench::run_sweep(e), &calc);
    const auto& hpl = paper.ee.at("HPL");
    const auto& stream = paper.ee.at("STREAM");
    const auto& io = paper.ee.at("IOzone");
    const auto& tgi = paper.tgi;

    util::TextTable table(
        {"Benchmark", "AM", "Time", "Energy", "Power",
         "AM 95% bootstrap CI"});
    auto row = [&](const char* name, const std::vector<double>& ee) {
      std::vector<std::string> cells{name};
      for (const auto scheme : serve::kPaperSchemes) {
        cells.push_back(util::fixed(stats::pearson(tgi.at(scheme), ee), 3));
      }
      const stats::BootstrapInterval ci = stats::pearson_bootstrap_ci(
          tgi.at(core::WeightScheme::kArithmeticMean), ee);
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

    const auto& am = tgi.at(core::WeightScheme::kArithmeticMean);
    const auto& we = tgi.at(core::WeightScheme::kEnergy);
    bench::print_check(
        "AM: IOzone correlates above Stream, Stream above HPL",
        stats::pearson(am, io) > stats::pearson(am, stream) &&
            stats::pearson(am, stream) > stats::pearson(am, hpl));
    bench::print_check(
        "Energy weights: HPL becomes the top correlate (undesired)",
        stats::pearson(we, hpl) > stats::pearson(we, io) &&
            stats::pearson(we, hpl) > stats::pearson(we, stream));
    bench::maybe_write_csv(e, serve::PaperCsv::kTable2Pcc, paper);
  });
}
