// Native suite: run the REAL benchmark kernels — the blocked LU solver,
// the threaded STREAM kernels on host memory, the IOzone tests against the
// simulated filesystem and GUPS — and aggregate them into a Green Index
// with a model-based power estimate.
//
// This is the path a user without a cluster takes: everything here
// executes actual computation on the local machine (with verified
// residuals and read-back checks), while power comes from the node model
// since laptops rarely have a plug meter attached.
#include <iostream>

#include "core/tgi.h"
#include "harness/native.h"
#include "power/node_model.h"
#include "sim/catalog.h"
#include "util/format.h"
#include "util/table.h"

int main() {
  using namespace tgi;
  std::cout << "running the real kernels (host scale)...\n";

  // Every kernel verifies itself; run_native_suite throws on a failure.
  harness::NativeSuiteConfig config;
  config.hpl_n = 512;
  config.hpl_block = 64;
  config.include_gups = true;
  const power::NodePowerModel node(sim::fire_cluster().node.power);
  const std::vector<core::BenchmarkMeasurement> system =
      harness::run_native_suite(config, node);
  for (const auto& m : system) {
    std::cout << "  " << m.benchmark << ": " << util::fixed(m.performance, 2)
              << " " << m.metric_unit << " in "
              << util::format(m.execution_time) << " @ "
              << util::format(m.average_power) << "\n";
  }
  std::cout << "\n";

  // --- Aggregate into TGI -------------------------------------------------
  // Reference: scale-down of the same node running the paper's reference
  // ratios — here we simply reuse the host results halved, standing in for
  // "last year's machine" to keep the example self-contained.
  std::vector<core::BenchmarkMeasurement> reference = system;
  for (auto& m : reference) m.performance *= 0.5;

  const core::TgiCalculator calc(reference);
  util::TextTable table({"scheme", "TGI"});
  for (const auto scheme :
       {core::WeightScheme::kArithmeticMean, core::WeightScheme::kTime,
        core::WeightScheme::kEnergy, core::WeightScheme::kPower}) {
    table.add_row({core::weight_scheme_name(scheme),
                   util::fixed(calc.compute(system, scheme).tgi, 4)});
  }
  std::cout << table;
  std::cout << "\n(every scheme reports 2.0: the system is exactly twice the\n"
               "reference's efficiency on every benchmark — a sanity anchor\n"
               "for the whole aggregation pipeline on real kernel output)\n";
  return 0;
}
