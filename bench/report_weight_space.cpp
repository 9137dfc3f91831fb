// Supplementary report: the weight simplex.
//
// The paper's advantage 1 lets consumers choose W_i for their workload —
// but how sensitive is the verdict to that choice? This report sweeps the
// 3-benchmark weight simplex on a coarse grid, reporting the TGI range,
// and for a two-machine comparison, the fraction of the simplex on which
// each machine wins — the quantitative version of "it depends on your
// workload."
#include "bench_common.h"

#include "harness/suite.h"

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Report",
                          "custom-weight simplex sweep (Fire vs AccelBox)");
    const auto reference = bench::reference_suite(e);
    const core::TgiCalculator calc(reference);

    const sim::ClusterSpec accel = sim::accelerator_heavy_cluster();
    const std::vector<sim::ClusterSpec> machines{e.spec.cluster, accel};
    const std::vector<std::size_t> scales{128, accel.total_cores()};
    // Both machines' suite points are independent; run them as two tasks.
    const auto measured = util::parallel_map(
        machines.size(),
        [&](std::size_t k) {
          power::ModelMeter meter(util::seconds(0.5));
          harness::SuiteRunner runner(machines[k], meter);
          return runner.run_suite(scales[k]).measurements;
        },
        e.threads);
    const auto& fire = measured[0];
    const auto& box = measured[1];

    // Sweep W over the simplex in steps of 0.05.
    const int steps = 20;
    double fire_min = 1e300;
    double fire_max = -1e300;
    int fire_wins = 0;
    int total = 0;
    std::vector<double> corner_fire(3);
    std::vector<double> corner_box(3);
    for (int i = 0; i <= steps; ++i) {
      for (int j = 0; j + i <= steps; ++j) {
        const double w_hpl = static_cast<double>(i) / steps;
        const double w_stream = static_cast<double>(j) / steps;
        // Rounding can push the remainder a few ulps negative at the
        // simplex boundary; clamp to keep the weights valid.
        const double w_io = std::max(0.0, 1.0 - w_hpl - w_stream);
        const std::vector<double> w{w_hpl, w_stream, w_io};
        const double tgi_fire = calc.compute_custom(fire, w).tgi;
        const double tgi_box = calc.compute_custom(box, w).tgi;
        fire_min = std::min(fire_min, tgi_fire);
        fire_max = std::max(fire_max, tgi_fire);
        if (tgi_fire > tgi_box) ++fire_wins;
        ++total;
        if (i == steps) corner_fire[0] = tgi_fire, corner_box[0] = tgi_box;
        if (j == steps) corner_fire[1] = tgi_fire, corner_box[1] = tgi_box;
        if (i == 0 && j == 0) {
          corner_fire[2] = tgi_fire;
          corner_box[2] = tgi_box;
        }
      }
    }

    util::TextTable table({"weight corner", "Fire TGI", "AccelBox TGI",
                           "winner"});
    const char* corners[] = {"all-HPL (1,0,0)", "all-STREAM (0,1,0)",
                             "all-IOzone (0,0,1)"};
    for (std::size_t c = 0; c < 3; ++c) {
      table.add_row({corners[c], util::fixed(corner_fire[c], 3),
                     util::fixed(corner_box[c], 3),
                     corner_fire[c] > corner_box[c] ? "Fire" : "AccelBox"});
    }
    std::cout << table;
    std::cout << "\nFire's TGI across the simplex: ["
              << util::fixed(fire_min, 3) << ", " << util::fixed(fire_max, 3)
              << "]\nFire beats AccelBox on "
              << util::percent(static_cast<double>(fire_wins) / total, 1)
              << " of weight choices (" << fire_wins << "/" << total
              << " grid points)\n";
    std::cout <<
        "Reading: a published Green Index is only comparable alongside its\n"
        "weight vector; two sites can legitimately disagree on which\n"
        "machine is greener because they weight the suite differently.\n";
    bench::print_check("TGI varies across the simplex (range > 25%)",
                       fire_max > 1.25 * fire_min);
    bench::print_check("neither machine dominates the whole simplex",
                       fire_wins > 0 && fire_wins < total);
  });
}
