// tgi_rank — build a Greener500-style list from measurement CSVs.
//
//   tgi_rank reference=systemg.csv machines=fire.csv,dept.csv,accel.csv
//            [scheme=am|time|energy|power]
//
// Machine names are taken from the CSV file stems. Prints the TGI-ordered
// list with each machine's FLOPS/W rank beside it and the disagreement
// count — the number of machines a FLOPS/W list would misplace.
#include <filesystem>
#include <iostream>
#include <sstream>

#include "harness/measurement_io.h"
#include "harness/ranking.h"
#include "util/config.h"
#include "util/error.h"

namespace {

using namespace tgi;

int run(int argc, const char* const* argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  util::require_known_keys(cfg, {"reference", "machines", "scheme"},
                           "tgi_rank");
  const auto reference_path = cfg.get("reference");
  const auto machines_spec = cfg.get("machines");
  if (!reference_path || !machines_spec) {
    std::cerr << "usage: tgi_rank reference=PATH machines=a.csv,b.csv,..."
                 " [scheme=am|time|energy|power]\n";
    return 2;
  }

  const core::TgiCalculator calc(
      harness::read_measurements_file(*reference_path));

  std::vector<harness::RankingSubmission> submissions;
  std::istringstream in(*machines_spec);
  std::string path;
  while (std::getline(in, path, ',')) {
    if (path.empty()) continue;
    harness::RankingSubmission sub;
    sub.machine = std::filesystem::path(path).stem().string();
    sub.measurements = harness::read_measurements_file(path);
    submissions.push_back(std::move(sub));
  }
  TGI_REQUIRE(!submissions.empty(), "no machine CSVs given");

  const harness::Ranking ranking = harness::rank_machines(
      calc, submissions,
      core::parse_weight_scheme(cfg.get_string("scheme", "am")));
  std::cout << harness::render_ranking(ranking);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "tgi_rank: error: " << ex.what() << "\n";
    return 1;
  }
}
