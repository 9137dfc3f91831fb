// Supplementary report: where the joules go.
//
// The paper's introduction leans on the exascale study's warning that
// non-computational energy (data movement) is overtaking compute energy.
// This report attributes every joule of each suite benchmark's run on Fire
// to CPU / memory / disk / network / board / PSU loss, making that claim a
// measured number instead of a citation.
#include "bench_common.h"

#include "kernels/iozone_model.h"
#include "power/breakdown.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Report",
                          "component energy breakdown (Fire, 128 cores)");
    kernels::HplModelParams hpl;
    hpl.processes = 128;
    kernels::StreamModelParams stream;
    stream.processes = 128;
    kernels::IozoneModelParams iozone;
    iozone.nodes = 8;
    struct Item {
      const char* name;
      sim::Workload workload;
    };
    const std::vector<Item> items{
        {"HPL", kernels::make_hpl_workload(e.spec.cluster, hpl)},
        {"STREAM",
         kernels::make_stream_workload(e.spec.cluster, stream)},
        {"IOzone",
         kernels::make_iozone_workload(e.spec.cluster, iozone)}};

    // Simulate the three runs concurrently (one simulator per task), then
    // print in fixed order so the report is byte-stable.
    struct Shown {
      util::Seconds elapsed{0.0};
      power::EnergyBreakdown breakdown;
    };
    const auto shown = util::parallel_map(
        items.size(),
        [&](std::size_t k) {
          const sim::ExecutionSimulator simulator(e.spec.cluster);
          const sim::SimulatedRun run = simulator.run(items[k].workload);
          return Shown{run.elapsed, power::energy_breakdown(run.timeline)};
        },
        e.threads);
    for (std::size_t k = 0; k < items.size(); ++k) {
      std::cout << "\n--- " << items[k].name << " ("
                << util::format(shown[k].elapsed) << ", "
                << util::format(shown[k].breakdown.total()) << ") ---\n"
                << power::render_breakdown(shown[k].breakdown);
    }
    const auto& hpl_b = shown[0].breakdown;
    const auto& stream_b = shown[1].breakdown;
    const auto& io_b = shown[2].breakdown;

    std::cout << "\nnon-compute energy share: HPL "
              << util::percent(hpl_b.non_compute_fraction(), 1)
              << ", STREAM "
              << util::percent(stream_b.non_compute_fraction(), 1)
              << ", IOzone "
              << util::percent(io_b.non_compute_fraction(), 1) << "\n";
    bench::print_check(
        "even compute-bound HPL burns a large non-compute share",
        hpl_b.non_compute_fraction() > 0.25);
    bench::print_check("IOzone is dominated by non-compute energy",
                       io_b.non_compute_fraction() > 0.7);
  });
}
