// tgi_simulate — price an application's phase structure on a machine.
//
//   tgi_simulate workload=app.conf [cluster=fire.conf] [meter=wattsup|model]
//                [pue=X] [trace=out.csv]
//
// Reads a workload description (sim/workload_io.h format, see
// workloads/*.conf), simulates it on the cluster, meters the run, and
// reports elapsed time, average power, energy, the per-phase cost
// decomposition, and the component energy breakdown — the "what would my
// app cost on that machine" question the TGI substrate can answer beyond
// the benchmark suite.
#include <iostream>

#include "harness/report.h"
#include "power/breakdown.h"
#include "power/meter.h"
#include "sim/catalog.h"
#include "sim/simulator.h"
#include "sim/spec_io.h"
#include "sim/workload_io.h"
#include "util/config.h"
#include "util/error.h"
#include "util/format.h"
#include "util/table.h"

namespace {

using namespace tgi;

int run(int argc, const char* const* argv) {
  const util::Config cfg = util::Config::from_args(argc, argv);
  util::require_known_keys(cfg,
                           {"workload", "cluster", "meter", "pue", "trace"},
                           "tgi_simulate");
  const auto workload_path = cfg.get("workload");
  if (!workload_path) {
    std::cerr << "usage: tgi_simulate workload=app.conf [cluster=spec.conf]"
                 " [meter=wattsup|model] [pue=X] [trace=out.csv]\n";
    return 2;
  }
  const std::string meter_kind = cfg.get_string("meter", "wattsup");
  TGI_REQUIRE(meter_kind == "wattsup" || meter_kind == "model",
              "meter must be 'wattsup' or 'model', got '" << meter_kind
                  << "'");
  const sim::Workload workload = sim::load_workload_file(*workload_path);
  const sim::ClusterSpec cluster =
      cfg.has("cluster") ? sim::load_cluster_file(*cfg.get("cluster"))
                         : sim::fire_cluster();
  const double pue = cfg.get_double("pue", 1.0);
  TGI_REQUIRE(pue >= 1.0, "pue must be >= 1");

  const sim::ExecutionSimulator simulator(cluster);
  const sim::SimulatedRun run = simulator.run(workload);

  std::unique_ptr<power::PowerMeter> meter;
  if (meter_kind == "model") {
    meter = std::make_unique<power::ModelMeter>(util::seconds(0.5));
  } else {
    meter = std::make_unique<power::WattsUpMeter>();
  }
  const power::MeterReading reading =
      meter->measure(run.timeline.as_source(), run.elapsed);

  std::cout << "workload '" << workload.benchmark << "' on "
            << cluster.name << " (" << cluster.total_cores()
            << " cores)\n\n";
  std::cout << "elapsed:        " << util::format(run.elapsed) << "\n";
  std::cout << "average power:  " << util::format(reading.average_power)
            << " IT";
  if (pue > 1.0) {
    std::cout << "  (" << util::format(reading.average_power * pue)
              << " with PUE " << util::fixed(pue, 2) << ")";
  }
  std::cout << "\nenergy:         " << util::format(reading.energy)
            << " IT";
  if (pue > 1.0) {
    std::cout << "  (" << util::format(reading.energy * pue)
              << " facility)";
  }
  std::cout << "\ntotal flops:    "
            << util::format(workload.total_flops() / run.elapsed) << "\n\n";

  util::TextTable phases({"phase", "duration", "compute", "memory", "io",
                          "comm", "nodes"});
  for (const auto& pb : run.phases) {
    phases.add_row({pb.label, util::format(pb.duration),
                    util::format(pb.compute), util::format(pb.memory),
                    util::format(pb.io), util::format(pb.comm),
                    std::to_string(pb.active_nodes)});
  }
  std::cout << phases << "\n";

  std::cout << power::render_breakdown(
      power::energy_breakdown(run.timeline));

  if (cfg.has("trace")) {
    harness::write_trace_csv(reading.trace, *cfg.get("trace"));
    std::cout << "\nwrote meter trace to " << *cfg.get("trace") << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& ex) {
    std::cerr << "tgi_simulate: error: " << ex.what() << "\n";
    return 1;
  }
}
