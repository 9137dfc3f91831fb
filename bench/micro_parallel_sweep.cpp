// Microbench: the deterministic parallel sweep engine.
//
// Times the paper's Figure 5/6 suite sweep three ways — the legacy serial
// path (one SuiteRunner, one shared meter), ParallelSweep with threads=1,
// and ParallelSweep with threads=N — and proves the engine's contract on
// the spot: all three produce bit-identical SuitePoint vectors, and the
// threaded run is just faster. The speedup check needs real cores, so it
// reports "skipped" unless a spin probe (bench::effective_cores) measures
// at least 4 — nproc alone overstates what a shared VM delivers.
#include "bench_common.h"

#include <algorithm>
#include <thread>

int main(int argc, char** argv) {
  using namespace tgi;
  return bench::run_harness(argc, argv, [](bench::Experiment& e) {
    harness::print_banner(std::cout, "Microbench",
                          "serial vs parallel suite sweep");
    // Repeat the grid to give the pool enough points to chew on.
    const auto repeat =
        static_cast<std::size_t>(e.config.get_int("repeat", 4));
    std::vector<std::size_t> grid;
    for (std::size_t r = 0; r < repeat; ++r) {
      for (const std::size_t p : e.spec.sweep) grid.push_back(p);
    }
    std::size_t threads = e.threads;
    if (threads == 0) threads = util::ThreadPool::default_thread_count();

    const harness::MeterFactory factory = serve::spec_meter_factory(e.spec);
    // Each path is timed as the best of kTrials runs after a warm-up run:
    // one run of a few milliseconds is at the mercy of one scheduler
    // hiccup on a shared host.
    constexpr std::size_t kTrials = 5;
    // Legacy serial path: one runner, one meter shared across all points.
    std::vector<harness::SuitePoint> serial;
    const double t_serial = bench::best_seconds(kTrials, [&] {
      const std::unique_ptr<power::PowerMeter> meter = factory(0);
      harness::SuiteRunner runner(e.spec.cluster, *meter);
      serial = runner.sweep(grid);
    });

    harness::ParallelSweepConfig one;
    one.threads = 1;
    std::vector<harness::SuitePoint> points_1;
    const double t_one = bench::best_seconds(kTrials, [&] {
      points_1 = harness::ParallelSweep(e.spec.cluster, factory, one).run(grid);
    });

    harness::ParallelSweepConfig many;
    many.threads = threads;
    std::vector<harness::SuitePoint> points_n;
    const double t_many = bench::best_seconds(kTrials, [&] {
      points_n =
          harness::ParallelSweep(e.spec.cluster, factory, many).run(grid);
    });

    util::TextTable table({"path", "threads", "wall (s)", "points/s"});
    auto rate = [&](double secs) {
      return util::fixed(static_cast<double>(grid.size()) /
                             std::max(secs, 1e-9),
                         1);
    };
    table.add_row({"serial SuiteRunner::sweep", "1",
                   util::fixed(t_serial, 3), rate(t_serial)});
    table.add_row({"ParallelSweep", "1", util::fixed(t_one, 3),
                   rate(t_one)});
    table.add_row({"ParallelSweep", std::to_string(threads),
                   util::fixed(t_many, 3), rate(t_many)});
    std::cout << table;
    const double speedup = t_serial / std::max(t_many, 1e-9);
    std::cout << "\n" << grid.size() << " sweep points; speedup vs serial: "
              << util::fixed(speedup, 2) << "x with " << threads
              << " threads\n";

    const bool identical_1 = bench::same_points(serial, points_1);
    const bool identical_n = bench::same_points(serial, points_n);
    bench::print_check("ParallelSweep(threads=1) output identical to serial",
                       identical_1);
    bench::print_check("ParallelSweep(threads=N) output identical to serial",
                       identical_n);
    const unsigned cores =
        std::thread::hardware_concurrency();  // tgi-lint: allow(raw-thread)
    const double effective = bench::effective_cores(threads);
    std::cout << "effective cores (spin probe, up to " << threads
              << " threads): " << util::fixed(effective, 2) << " of "
              << cores << " visible\n";
    if (effective >= 4.0 && threads >= 4) {
      bench::print_check("speedup >= 2x on >= 4 effective cores",
                         speedup >= 2.0);
    } else {
      std::cout << "[check] speedup >= 2x on >= 4 effective cores: skipped ("
                << util::fixed(effective, 2) << " measured)\n";
    }
  }, {"repeat"});
}
