// tgi_calc — compute The Green Index from measurement CSVs.
//
// The adoption path for real hardware: run your suite behind a plug meter,
// record (benchmark, performance, unit, watts, seconds, joules) rows for
// the system under test and for your reference machine, then:
//
//   tgi_calc system=fire.csv reference=systemg.csv scheme=am
//   tgi_calc system=fire.csv reference=systemg.csv weights=0.1,0.7,0.2
//   tgi_calc system=fire.csv reference=systemg.csv scheme=time pue=1.6
//
// Options:
//   system=PATH       measurements of the system under test   (required)
//   reference=PATH    measurements of the reference system    (required)
//   scheme=am|time|energy|power   derived weight scheme (default am)
//   weights=w1,w2,... custom weights (overrides scheme; must sum to 1)
//   metric=perf_per_watt|inverse_edp   EE metric (default perf_per_watt)
//   aggregation=arithmetic|harmonic|geometric  mean over REEs (default
//                    arithmetic — the paper's Eq. 4)
//   pue=X             facility PUE of the system under test (default 1)
//   ref_pue=X         facility PUE of the reference (default 1)
#include <iostream>

#include "core/tgi.h"
#include "harness/measurement_io.h"
#include "util/config.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace tgi;

core::EfficiencyMetric parse_metric(const std::string& name) {
  if (name == "perf_per_watt") {
    return core::EfficiencyMetric::kPerformancePerWatt;
  }
  if (name == "inverse_edp") {
    return core::EfficiencyMetric::kInverseEnergyDelay;
  }
  throw util::PreconditionError("unknown metric '" + name +
                                "' (perf_per_watt|inverse_edp)");
}

core::Aggregation parse_aggregation(const std::string& name) {
  if (name == "arithmetic" || name == "am") {
    return core::Aggregation::kWeightedArithmetic;
  }
  if (name == "harmonic" || name == "hm") {
    return core::Aggregation::kWeightedHarmonic;
  }
  if (name == "geometric" || name == "gm") {
    return core::Aggregation::kWeightedGeometric;
  }
  throw util::PreconditionError("unknown aggregation '" + name +
                                "' (arithmetic|harmonic|geometric)");
}

std::vector<double> parse_weights(const std::string& spec) {
  // Checked whole-string parsing (util/config.cpp): "0.5x" and "abc" get
  // a PreconditionError naming the offending weight instead of a bare
  // std::stod that accepted trailing garbage or threw raw
  // std::invalid_argument past the CLI's error message.
  return util::parse_double_list(spec, "weights");
}

int run(int argc, const char* const* argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  util::require_known_keys(cfg,
                           {"system", "reference", "scheme", "weights",
                            "metric", "aggregation", "pue", "ref_pue"},
                           "tgi_calc");
  const auto system_path = cfg.get("system");
  const auto reference_path = cfg.get("reference");
  if (!system_path || !reference_path) {
    std::cerr << "usage: tgi_calc system=PATH reference=PATH"
                 " [scheme=am|time|energy|power] [weights=w1,w2,...]"
                 " [metric=perf_per_watt|inverse_edp] [pue=X] [ref_pue=X]\n";
    return 2;
  }

  const auto system = harness::read_measurements_file(*system_path);
  const auto reference = harness::read_measurements_file(*reference_path);
  const auto metric =
      parse_metric(cfg.get_string("metric", "perf_per_watt"));
  const core::CoolingModel system_cooling{cfg.get_double("pue", 1.0)};
  const core::CoolingModel reference_cooling{
      cfg.get_double("ref_pue", 1.0)};

  const core::Aggregation aggregation =
      parse_aggregation(cfg.get_string("aggregation", "arithmetic"));
  const core::TgiCalculator calc(reference, metric, reference_cooling);
  core::TgiResult result;
  if (cfg.has("weights")) {
    result = calc.compute_custom(system,
                                 parse_weights(*cfg.get("weights")),
                                 system_cooling, aggregation);
  } else {
    result = calc.compute(
        system, core::parse_weight_scheme(cfg.get_string("scheme", "am")),
        system_cooling, aggregation);
  }

  std::cout << "TGI = " << util::fixed(result.tgi, 6) << "   ("
            << core::weight_scheme_name(result.scheme) << ", "
            << core::aggregation_name(result.aggregation) << ", "
            << core::efficiency_metric_name(result.metric) << ")\n\n";
  util::TextTable table({"benchmark", "EE(sys)", "EE(ref)", "REE",
                         "weight", "contribution"});
  for (const auto& c : result.components) {
    table.add_row({c.benchmark, util::scientific(c.ee, 4),
                   util::scientific(c.ref_ee, 4), util::fixed(c.ree, 4),
                   util::fixed(c.weight, 4),
                   util::fixed(c.contribution, 4)});
  }
  std::cout << table;
  std::cout << "\nleast-REE benchmark: " << result.least_ree().benchmark
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "tgi_calc: error: " << ex.what() << "\n";
    return 1;
  }
}
