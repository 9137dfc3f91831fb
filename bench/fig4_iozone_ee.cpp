// Figure 4 — "Energy Efficiency of IOzone": MB/s per watt of the IOzone
// write test on Fire as the number of participating nodes sweeps 1..8.
//
// Paper shape: efficiency FALLS with node count — the shared storage
// backend saturates (and degrades under interleaved writers) while wall
// power keeps climbing. This is the curve the paper's TGI is expected to
// track, so its monotone decline is the most load-bearing shape check in
// the whole reproduction.
#include "bench_common.h"

#include "stats/regression.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Figure 4",
                          "Energy Efficiency of IOzone (Fire cluster)");
    // The node sweep tgi_sweep writes Figure 4 from: one IOzone
    // measurement per point, so point k's meter starts at run_offset k
    // (bit-identical to one meter shared across the serial 1..8 loop).
    const auto points = serve::iozone_node_sweep(e.spec, e.threads);
    std::vector<std::size_t> nodes;
    for (const auto& pt : points) nodes.push_back(pt.nodes);
    bench::maybe_write_points_trace(e, nodes, points);

    const harness::Series fig4 = serve::fig4_series(points);
    util::TextTable detail(
        {"nodes", "aggregate MB/s", "power (W)", "time (s)"});
    for (const auto& pt : points) {
      const auto& m = pt.measurements.front();
      detail.add_row({std::to_string(pt.nodes),
                      util::fixed(m.performance, 1),
                      util::fixed(m.average_power.value(), 0),
                      util::fixed(m.execution_time.value(), 0)});
    }
    harness::print_series(std::cout, {"nodes", "MBPS/W", fig4.x, fig4.y}, 4);
    std::cout << "\n" << detail;

    const auto fit = stats::linear_fit(fig4.x, fig4.y);
    bench::print_check("IOzone efficiency falls with node count",
                       fit.slope < 0.0);
    bench::print_check("decline is strong (last < 60% of first)",
                       fig4.y.back() < 0.6 * fig4.y.front());
    bench::maybe_write_csv(e, [&fig4](const std::string& path) {
      harness::write_csv(fig4, path);
    });
  });
}
